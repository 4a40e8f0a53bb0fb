"""The exact commands never load numpy or scipy; the float backend loads
numpy alone, on first use.

Each check runs in a fresh interpreter, since this test process has long
since imported numpy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
DATA_DIR = Path(__file__).parent / "data"

#: Prints which of numpy and scipy the code before it left in ``sys.modules``.
_REPORT = """
import json, sys
print(json.dumps(sorted({m.split(".")[0] for m in sys.modules} & {"numpy", "scipy"})))
"""


def loaded_after(code: str, cwd: Path) -> list[str]:
    proc = subprocess.run(
        [sys.executable, "-c", code + _REPORT],
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def run_cli(argv: list[str]) -> str:
    return f"""
from markov_bayes import cli
rc = cli.main({argv!r})
assert rc == 0, rc
"""


def test_importing_the_cli_loads_neither(tmp_path):
    assert loaded_after("import markov_bayes.cli", tmp_path) == []


@pytest.mark.parametrize("mode", ["seq", "batch"])
def test_learn_loads_neither(tmp_path, mode):
    argv = ["learn", str(DATA_DIR / "two_point_bundle.json"),
            str(DATA_DIR / "two_point.csv"), "--mode", mode,
            "--out", str(tmp_path / "post.json")]
    assert loaded_after(run_cli(argv), tmp_path) == []
    assert "posterior" in json.loads((tmp_path / "post.json").read_text())


@pytest.mark.parametrize("suite", ["markov", "inversion", "dagger", "functor", "coincidence", "zn"])
def test_the_exact_suites_load_neither(tmp_path, suite):
    argv = ["check", "--suite", suite, "--cases", "3", "--out", str(tmp_path / "r.json")]
    assert loaded_after(run_cli(argv), tmp_path) == []


def test_gauss_fit_loads_numpy_and_never_scipy(tmp_path):
    csv = tmp_path / "reg.csv"
    csv.write_text("x1,x2,y\n1,0,1.5\n0,1,-2\n1,1,0.25\n2,1,1\n")
    argv = ["gauss", "fit", str(csv), "--sigma", "0.5", "--out", str(tmp_path / "fit.json")]
    assert loaded_after(run_cli(argv), tmp_path) == ["numpy"]
    assert len(json.loads((tmp_path / "fit.json").read_text())["map"]) == 2


def test_the_gauss_names_resolve_from_the_package(tmp_path):
    code = """
import markov_bayes
from markov_bayes import gauss
assert markov_bayes.GaussPosterior is gauss.GaussPosterior
names = {}
exec("from markov_bayes import *", names)
for name in ("GaussPosterior", "RegressionData", "fit_posterior", "gauss_batch",
             "gauss_sequential", "map_estimate", "predictive_density"):
    assert names[name] is getattr(gauss, name), name
assert names["gauss"] is gauss
"""
    assert loaded_after(code, tmp_path) == ["numpy"]


def test_an_unknown_package_attribute_still_fails(tmp_path):
    code = """
import markov_bayes
try:
    markov_bayes.no_such_name
except AttributeError as e:
    assert "no_such_name" in str(e)
else:
    raise AssertionError("attribute lookup did not fail")
"""
    assert loaded_after(code, tmp_path) == []
