"""The command-line surface: frozen outputs, exit codes, error JSON."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from markov_bayes import FinSpace, Kernel, Model, delta, product, uniform_state
from markov_bayes.cli import main
from markov_bayes.serialize import kernel_to_json, model_to_json
from markov_bayes.suites import SuiteFailure, SuiteReport

DATA_DIR = Path(__file__).parent / "data"
SRC = Path(__file__).parents[1] / "src"
BUNDLE = str(DATA_DIR / "two_point_bundle.json")
CSV = str(DATA_DIR / "two_point.csv")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def write_json(tmp_path, name, doc) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.fixture
def kernel_files(tmp_path, xy, std_kernel, std_prior):
    x, y = xy
    g = Kernel(y, x, (("1/2", "1/2"), (0, 1)))
    return {
        "f": write_json(tmp_path, "f.json", kernel_to_json(std_kernel)),
        "g": write_json(tmp_path, "g.json", kernel_to_json(g)),
        "prior": write_json(tmp_path, "prior.json", kernel_to_json(std_prior)),
    }


# ---------- compose and invert ----------


def test_compose_two_kernels(capsys, kernel_files):
    doc = run_json(capsys, "compose", kernel_files["f"], kernel_files["g"])
    assert doc["rows"] == [["3/8", "5/8"], ["1/4", "3/4"]]
    assert doc["source"]["name"] == "X"
    assert doc["target"]["name"] == "X"


def test_compose_requires_two_files(capsys, kernel_files):
    code, out, err = run(capsys, "compose", kernel_files["f"])
    assert code == 1
    assert json.loads(err)["error"] == "validation"


def test_compose_rejects_mismatched_shapes(capsys, kernel_files):
    code, _, err = run(capsys, "compose", kernel_files["f"], kernel_files["prior"])
    assert code == 1
    assert json.loads(err)["type"] == "SpaceMismatch"


def test_invert_frozen_value(capsys, kernel_files):
    doc = run_json(capsys, "invert", kernel_files["f"], kernel_files["prior"])
    assert doc["rows"] == [["3/5", "2/5"], ["1/3", "2/3"]]


def test_invert_rejects_a_non_state_prior(capsys, kernel_files):
    code, _, err = run(capsys, "invert", kernel_files["f"], kernel_files["f"])
    assert code == 1
    assert "state" in json.loads(err)["message"]


# ---------- learn ----------


def test_learn_batch_worked_example(capsys):
    doc = run_json(capsys, "learn", BUNDLE, CSV)
    assert doc["posterior"] == {"m0": "32/59", "m1": "27/59"}
    assert "trace" not in doc


def test_learn_seq_includes_the_trace(capsys):
    doc = run_json(capsys, "learn", BUNDLE, CSV, "--mode", "seq")
    assert doc["posterior"] == {"m0": "32/59", "m1": "27/59"}
    assert doc["trace"] == [
        {"m0": "1/2", "m1": "1/2"},
        {"m0": "8/11", "m1": "3/11"},
        {"m0": "32/59", "m1": "27/59"},
    ]


def test_learn_trace_tsv(capsys, tmp_path):
    tsv = tmp_path / "trace.tsv"
    run_json(capsys, "learn", BUNDLE, CSV, "--mode", "seq", "--trace-tsv", str(tsv))
    assert tsv.read_text() == (
        "step\tm0\tm1\n"
        "0\t1/2\t1/2\n"
        "1\t8/11\t3/11\n"
        "2\t32/59\t27/59\n"
    )


def test_learn_trace_tsv_demands_seq_mode(capsys, tmp_path):
    code, _, err = run(
        capsys, "learn", BUNDLE, CSV, "--trace-tsv", str(tmp_path / "t.tsv")
    )
    assert code == 1
    assert "seq" in json.loads(err)["message"]


def test_learn_argmax(capsys):
    doc = run_json(capsys, "learn", BUNDLE, CSV, "--argmax")
    assert doc["argmax"] == "m0"


def test_learn_warns_on_marginal_mismatch(capsys):
    code, _, err = run(capsys, "learn", BUNDLE, CSV)
    assert code == 0
    warning = json.loads(err)
    assert warning["warning"] == "output-marginal-mismatch"
    assert warning["expected"] == {"y0": "11/24", "y1": "13/24"}
    assert warning["observed"] == {"y0": "1/2", "y1": "1/2"}


def test_learn_zero_likelihood_exits_two(capsys, tmp_path):
    m = FinSpace("M", ("m0", "m1"))
    x = FinSpace("X", ("x0",))
    y = FinSpace("Y", ("y0", "y1"))
    channel = Kernel(product(m, x), y, ((1, 0), (1, 0)))
    model = Model(m, uniform_state(m), x, delta(x, "x0"), y, channel)
    bundle = write_json(tmp_path, "dead.json", model_to_json(model))
    csv = tmp_path / "dead.csv"
    csv.write_text("x,y\nx0,y1\n")
    for mode in ("seq", "batch"):
        code, _, err = run(capsys, "learn", bundle, str(csv), "--mode", mode)
        assert code == 2
        assert json.loads(err.splitlines()[-1])["error"] == "zero-likelihood"


def test_learn_batch_prints_posteriors_past_the_digit_limit(capsys, tmp_path):
    limit = sys.get_int_max_str_digits()
    csv = tmp_path / "long.csv"
    csv.write_text("x,y\n" + "x0,y0\nx0,y1\n" * 3000)
    out = tmp_path / "post.json"
    code, _, err = run(capsys, "learn", BUNDLE, str(csv), "--out", str(out))
    assert code == 0, err
    posterior = json.loads(out.read_text())["posterior"]
    assert max(len(p.partition("/")[2]) for p in posterior.values()) > limit
    doc = run_json(capsys, "predict", BUNDLE, str(out), "x0")
    assert set(doc["predictive"]) == {"y0", "y1"}
    assert sys.get_int_max_str_digits() == limit


def test_learn_missing_file_exits_one(capsys, tmp_path):
    code, _, err = run(capsys, "learn", str(tmp_path / "nope.json"), CSV)
    assert code == 1
    assert json.loads(err)["error"] == "validation"


# ---------- predict ----------


def test_predict_pipes_from_learn_output(capsys, tmp_path):
    post = write_json(
        tmp_path, "post.json", {"posterior": {"m0": "32/59", "m1": "27/59"}}
    )
    doc = run_json(capsys, "predict", BUNDLE, post, "x0")
    # 32/59*2/3 + 27/59*1/4 and the complement
    assert doc["predictive"] == {"y0": "337/708", "y1": "371/708"}


def test_predict_accepts_a_bare_label_map(capsys, tmp_path):
    post = write_json(tmp_path, "post.json", {"m0": "1/1", "m1": "0/1"})
    doc = run_json(capsys, "predict", BUNDLE, post, "x0")
    assert doc["predictive"] == {"y0": "2/3", "y1": "1/3"}


def test_predict_unknown_input_label(capsys, tmp_path):
    post = write_json(tmp_path, "post.json", {"m0": "1/2", "m1": "1/2"})
    code, _, err = run(capsys, "predict", BUNDLE, post, "x9")
    assert code == 1
    assert json.loads(err)["type"] == "UnknownLabel"


# ---------- gauss ----------


@pytest.fixture
def regression_csv(tmp_path):
    rng = np.random.default_rng(19)
    x = rng.normal(size=(20, 2))
    y = x @ np.array([1.5, -0.5]) + 0.1 * rng.normal(size=20)
    lines = ["x1,x2,y"]
    for row, t in zip(x, y):
        lines.append(f"{float(row[0])!r},{float(row[1])!r},{float(t)!r}")
    path = tmp_path / "reg.csv"
    path.write_text("\n".join(lines) + "\n")
    return str(path), x, y


def test_gauss_fit_map_is_least_squares(capsys, regression_csv):
    path, x, y = regression_csv
    doc = run_json(capsys, "gauss", "fit", path, "--sigma", "0.5")
    ols, *_ = np.linalg.lstsq(x, y, rcond=None)
    assert np.max(np.abs(np.array(doc["map"]) - ols)) < 1e-9
    assert doc["posterior"]["mean"] == doc["map"]


def test_gauss_update_modes_agree(capsys, tmp_path, regression_csv):
    path, _, _ = regression_csv
    prior = write_json(
        tmp_path,
        "gprior.json",
        {"mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]},
    )
    seq = run_json(capsys, "gauss", "update", prior, path, "--sigma", "0.5", "--mode", "seq")
    bat = run_json(capsys, "gauss", "update", prior, path, "--sigma", "0.5", "--mode", "batch")
    assert np.max(
        np.abs(np.array(seq["posterior"]["mean"]) - np.array(bat["posterior"]["mean"]))
    ) < 1e-9


def test_gauss_predict(capsys, tmp_path):
    post = write_json(
        tmp_path,
        "gpost.json",
        {"posterior": {"mean": [2.0], "cov": [[0.25]]}},
    )
    doc = run_json(capsys, "gauss", "predict", post, "3.0", "--sigma", "0.5")
    assert doc["mean"] == pytest.approx(6.0)
    assert doc["variance"] == pytest.approx(0.25 * 9.0 + 0.25)


def test_gauss_predict_takes_a_negative_first_coordinate(capsys, tmp_path):
    post = write_json(
        tmp_path,
        "gpost.json",
        {"posterior": {"mean": [2.0, 3.0], "cov": [[0.25, 0.0], [0.0, 0.25]]}},
    )
    doc = run_json(capsys, "gauss", "predict", post, "-1.5,2", "--sigma", "1")
    assert doc["mean"] == pytest.approx(3.0)
    assert doc["variance"] == pytest.approx(0.25 * (2.25 + 4.0) + 1.0)


@pytest.mark.parametrize("point", ["1,,2", "1,2,", ","])
def test_gauss_predict_rejects_empty_coordinates(capsys, tmp_path, point):
    post = write_json(
        tmp_path,
        "gpost.json",
        {"posterior": {"mean": [2.0, 3.0], "cov": [[0.25, 0.0], [0.0, 0.25]]}},
    )
    code, _, err = run(capsys, "gauss", "predict", post, point, "--sigma", "1")
    assert code == 1
    assert "empty coordinate" in json.loads(err)["message"]


def test_gauss_seq_update_rejects_non_finite_rows(capsys, tmp_path):
    prior = write_json(
        tmp_path, "gprior.json", {"mean": [0.0], "cov": [[1.0]]}
    )
    path = tmp_path / "bad.csv"
    path.write_text("x1,y\n1.0,2.0\n0.5,nan\n")
    code, _, err = run(
        capsys, "gauss", "update", prior, str(path), "--sigma", "1", "--mode", "seq"
    )
    assert code == 1
    assert "line 3" in json.loads(err)["message"]


def test_gauss_fit_rank_deficient_exits_one(capsys, tmp_path):
    path = tmp_path / "thin.csv"
    path.write_text("x1,x2,y\n1.0,2.0,3.0\n")
    code, _, err = run(capsys, "gauss", "fit", str(path), "--sigma", "1.0")
    assert code == 1
    assert json.loads(err)["type"] == "RankDeficient"


# ---------- check ----------


def test_check_reports_a_clean_suite(capsys):
    doc = run_json(capsys, "check", "--suite", "markov", "--cases", "5", "--seed", "3")
    assert doc == {"suite": "markov", "cases": 5, "seed": 3, "ok": True, "failures": 0}


def test_check_seed_comes_from_the_environment(capsys, monkeypatch):
    monkeypatch.setenv("MARKOV_BAYES_SEED", "123")
    doc = run_json(capsys, "check", "--suite", "inversion", "--cases", "3")
    assert doc["seed"] == 123


def test_check_law_violation_exits_three(capsys, monkeypatch):
    # fake a failing report to pin the reporting path; the suites themselves
    # are exercised for real elsewhere
    def broken(suite, cases, seed):
        return SuiteReport(
            suite=suite,
            cases=cases,
            seed=seed,
            failures=[SuiteFailure(suite, 4, 7000025, "made-up breakage")],
        )

    monkeypatch.setattr("markov_bayes.cli.run_suite", broken)
    code, out, err = run(capsys, "check", "--suite", "markov", "--cases", "5")
    assert code == 3
    assert json.loads(out)["ok"] is False
    detail = json.loads(err)
    assert detail["error"] == "law-violation"
    assert "case 4" in detail["message"]
    assert detail["failures"][0]["case_seed"] == 7000025


@pytest.mark.parametrize("cases", ["0", "-3"])
def test_check_needs_at_least_one_case(capsys, cases):
    code, out, err = run(capsys, "check", "--suite", "markov", "--cases", cases)
    assert code == 1
    assert out == ""
    assert json.loads(err)["type"] == "usage"


def test_check_unknown_suite_is_a_usage_error(capsys):
    code, _, err = run(capsys, "check", "--suite", "nonsense")
    assert code == 1
    assert json.loads(err)["type"] == "usage"


# ---------- output routing and processes ----------


def test_out_flag_writes_a_file_instead_of_stdout(capsys, tmp_path, kernel_files):
    target = tmp_path / "out.json"
    code, out, _ = run(
        capsys, "compose", kernel_files["f"], kernel_files["g"], "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["rows"][0] == ["3/8", "5/8"]


def test_module_entry_point_propagates_exit_codes(tmp_path):
    # the child process imports the package from this checkout's source
    path = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    proc = subprocess.run(
        [sys.executable, "-m", "markov_bayes", "learn", str(tmp_path / "no.json"), CSV],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 1
    assert json.loads(proc.stderr)["error"] == "validation"
    proc = subprocess.run(
        [sys.executable, "-m", "markov_bayes", "learn", BUNDLE, CSV],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["posterior"] == {"m0": "32/59", "m1": "27/59"}
