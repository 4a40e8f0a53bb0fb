"""The command-line surface: frozen outputs, exit codes, error JSON."""

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from markov_bayes import FinSpace, Kernel, Model, delta, product, uniform_state
from markov_bayes import finstoch
from markov_bayes.cli import main
from markov_bayes.learning import sequential_update
from markov_bayes.serialize import (
    kernel_to_json,
    model_from_json,
    model_to_json,
    trace_to_json,
    training_set_from_csv,
)
from markov_bayes.suites import SuiteFailure, SuiteReport
from test_exact_io import _grid_bundle

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


#: sha256 of the stdout of ``learn --mode seq`` on the two-point bundle and
#: the 200 observations of ``_seeded_csv``, as rendered before the
#: sequential step inverted the two-outcome event channel.
SEQ_GOLDEN_SHA256 = "c75442b5714c7bdd873ff6aeac865e9eb6f6b28b47b6b6e3c83157a5b024cf09"

#: sha256 of the ``--trace-tsv`` file of the same run, recorded before the
#: TSV reused the text of the JSON trace.
SEQ_TSV_GOLDEN_SHA256 = "28f151790837ddb55b2f987338491b99c01dd69c60231ce7494840fc39b9b289"


def _seeded_csv(path: Path, n: int, seed: int) -> str:
    rng = random.Random(seed)
    path.write_text(
        "x,y\n" + "".join(f"x0,{rng.choice(('y0', 'y1'))}\n" for _ in range(n)),
        encoding="utf-8",
    )
    return str(path)


def test_learn_seq_output_is_byte_for_byte_pinned(capsys, tmp_path):
    csv = _seeded_csv(tmp_path / "seeded.csv", 200, 200)
    tsv = tmp_path / "trace.tsv"
    code, out, err = run(capsys, "learn", BUNDLE, csv, "--mode", "seq", "--trace-tsv", str(tsv))
    assert code == 0, err
    assert len(json.loads(out)["trace"]) == 201
    assert hashlib.sha256(out.encode()).hexdigest() == SEQ_GOLDEN_SHA256
    assert hashlib.sha256(tsv.read_bytes()).hexdigest() == SEQ_TSV_GOLDEN_SHA256


def test_learn_seq_renders_each_state_once(capsys, tmp_path, monkeypatch):
    """The ``posterior`` key and ``--trace-tsv`` reuse the trace's text: the
    command converts exactly the integers that rendering every state of a
    fresh trace once converts."""
    csv = _seeded_csv(tmp_path / "seeded.csv", 50, 50)
    converted = []
    real = finstoch._int_text
    monkeypatch.setattr(finstoch, "_int_text", lambda n: converted.append(n) or real(n))

    def conversions(*argv) -> int:
        converted.clear()
        assert run(capsys, "learn", BUNDLE, csv, "--mode", "seq", *argv)[0] == 0
        return len(converted)

    plain = conversions()
    with_tsv = conversions("--trace-tsv", str(tmp_path / "trace.tsv"))
    converted.clear()
    model = model_from_json(json.loads(Path(BUNDLE).read_text()))
    data = training_set_from_csv(Path(csv).read_text())
    trace_to_json(sequential_update(model, data))
    assert len(converted) > 51
    assert plain == with_tsv == len(converted)


def _rough_bundle() -> dict:
    """Two inputs, a zero prior entry, and channel entries over the primes
    53 and 59."""
    return {
        "params": {"name": "M", "elements": ["m0", "m1", "m2"]},
        "prior": {"m0": "0/1", "m1": "1/3", "m2": "2/3"},
        "input": {"name": "X", "elements": ["x0", "x1"]},
        "input_state": {"x0": "1/2", "x1": "1/2"},
        "output": {"name": "Y", "elements": ["y0", "y1"]},
        "channel": [
            ["1/2", "1/2"], ["1/2", "1/2"],
            ["1/53", "52/53"], ["3/4", "1/4"],
            ["7/59", "52/59"], ["1/5", "4/5"],
        ],
    }


#: sha256 of the stdout of ``learn --mode batch``, recorded before the batch
#: posterior was rendered from its factored form.
BATCH_GOLDEN_SHA256 = {
    "grid-50x5x5-n2000": "8c0e421ae6e9f440afb2f54864f5df35fea01a6fd124dcf984961e4bca1ad499",
    "two-point-n6000": "412e48701460df3c1c209b0587b14073d2a4f90ae51e7cd4610232c4ae06f89b",
    "rough-n900": "a41f0d4ff45671ce5333b406561dc0c039b855ec3c2cff5721b0a0edae379539",
}


def _batch_case(tmp_path, case: str) -> tuple[str, str]:
    """The bundle and training CSV files of a pinned batch case."""
    rng = random.Random(case)
    if case.startswith("grid"):
        bundle, n = _grid_bundle(rng, 50, 5, 5), 2000
    elif case.startswith("two-point"):
        bundle, n = json.loads(Path(BUNDLE).read_text()), 6000
    else:
        bundle, n = _rough_bundle(), 900
    xs, ys = bundle["input"]["elements"], bundle["output"]["elements"]
    csv = tmp_path / "train.csv"
    csv.write_text("x,y\n" + "".join(f"{rng.choice(xs)},{rng.choice(ys)}\n" for _ in range(n)))
    return write_json(tmp_path, "b.json", bundle), str(csv)


@pytest.mark.parametrize("case", sorted(BATCH_GOLDEN_SHA256))
def test_learn_batch_output_is_byte_for_byte_pinned(capsys, tmp_path, case):
    code, out, err = run(capsys, "learn", *_batch_case(tmp_path, case))
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == BATCH_GOLDEN_SHA256[case]


#: sha256 of the stdout of ``predict`` at the last input label, from the
#: posterior ``learn --mode batch`` writes for each batch case above; the
#: grid and two-point posteriors are past the 4,300-digit limit.  Recorded
#: before the reader converted each distinct text and denominator once.
PREDICT_GOLDEN_SHA256 = {
    "grid-50x5x5-n2000": "7b9c8ae96d30bedf40143e40818678bfa8d1319eaf84b48b6bd13efd76a98752",
    "two-point-n6000": "e3fecb32d27a3d6acefbace1e5e4bbab650c56fd79bc2997502f711b3dddc751",
    "rough-n900": "bbcdc1f1fdca0b0a8d2948eb22f834d084f7d7c4af8d25f204f6e70bdbb50ad8",
}


@pytest.mark.parametrize("case", sorted(PREDICT_GOLDEN_SHA256))
def test_predict_output_is_byte_for_byte_pinned(capsys, tmp_path, case):
    bundle, csv = _batch_case(tmp_path, case)
    post = tmp_path / "post.json"
    code, _, err = run(capsys, "learn", bundle, csv, "--out", str(post))
    assert code == 0, err
    x_star = json.loads(Path(bundle).read_text())["input"]["elements"][-1]
    code, out, err = run(capsys, "predict", bundle, str(post), x_star)
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == PREDICT_GOLDEN_SHA256[case]


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


def test_learn_refuses_trace_tsv_without_seq_before_reading_its_files(capsys, tmp_path):
    code, _, err = run(
        capsys, "learn", str(tmp_path / "no.json"), str(tmp_path / "no.csv"),
        "--trace-tsv", str(tmp_path / "t.tsv"),
    )
    assert code == 1
    assert json.loads(err) == {
        "error": "validation", "type": "ValueError", "message": "--trace-tsv requires --mode seq"
    }


def test_learn_argmax(capsys):
    doc = run_json(capsys, "learn", BUNDLE, CSV, "--argmax")
    assert doc["argmax"] == "m0"


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


@pytest.mark.parametrize(
    "bad, message",
    [
        ("x0,y9", "label 'y9' is not in space 'Y'"),
        ("x9,y0", "label 'x9' is not in space 'X'"),
        ("x9,y9", "label 'x9' is not in space 'X'"),
    ],
)
def test_learn_names_the_first_unknown_label_after_repeated_pairs(capsys, tmp_path, bad, message):
    # the batch route counts the pairs before it indexes them; the label
    # it names is still the first unknown one in the file, as on seq
    csv = tmp_path / "train.csv"
    csv.write_text("x,y\n" + "x0,y0\nx0,y1\n" * 300 + f"{bad}\n" + "x0,y0\n" * 50 + "x8,y8\n")
    for mode in ("seq", "batch"):
        code, out, err = run(capsys, "learn", BUNDLE, str(csv), "--mode", mode)
        assert (code, out) == (1, "")
        assert json.loads(err) == {"error": "validation", "type": "UnknownLabel", "message": message}


def test_learn_missing_file_exits_one(capsys, tmp_path):
    code, _, err = run(capsys, "learn", str(tmp_path / "nope.json"), CSV)
    assert code == 1
    assert json.loads(err)["error"] == "validation"


@pytest.mark.parametrize(
    "path, value, message",
    [
        (("params", "elements"), 5, "space 'M': field 'elements' must be a list, got int"),
        (("channel",), 7, "model: field 'channel' must be a list, got int"),
        (("channel", 1), 3, "model: field 'channel' row 1 must be a list, got int"),
        (("prior",), ["1/2", "1/2"], "state on space 'M' must be a dict, got list"),
    ],
)
def test_learn_names_a_bundle_field_of_the_wrong_type(capsys, tmp_path, path, value, message):
    doc = json.loads(Path(BUNDLE).read_text())
    *outer, last = path
    target = doc
    for key in outer:
        target = target[key]
    target[last] = value
    bundle = write_json(tmp_path, "bad.json", doc)
    code, _, err = run(capsys, "learn", bundle, CSV)
    assert code == 1
    assert json.loads(err) == {"error": "validation", "type": "ValueError", "message": message}


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


@pytest.mark.parametrize(
    "point", ["1,,2", "1,2,", ",", "nan,1,inf", "1,-inf", "Infinity,0", "1,NaN"]
)
def test_gauss_predict_rejects_empty_coordinates(capsys, tmp_path, point):
    post = write_json(
        tmp_path,
        "gpost.json",
        {"posterior": {"mean": [2.0, 3.0], "cov": [[0.25, 0.0], [0.0, 0.25]]}},
    )
    code, out, err = run(capsys, "gauss", "predict", post, point, "--sigma", "1")
    assert code == 1
    assert out == ""
    reason = "empty" if "" in point.split(",") else "non-finite"
    message = json.loads(err)["message"]
    assert f"{reason} coordinate" in message
    assert repr(point) in message


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


@pytest.mark.parametrize(
    "posterior, argv",
    [
        ('{"mean": [null], "cov": [[1e300]]}', ["predict", "1e308", "--sigma", "1"]),
        ('{"mean": [NaN], "cov": [[1]]}', ["update", "CSV", "--sigma", "1", "--mode", "seq"]),
        ('{"mean": [Infinity], "cov": [[1]]}', ["update", "CSV", "--sigma", "1"]),
        ('{"mean": [1], "cov": [[1]]}', ["predict", "1", "--sigma", "inf"]),
        ('{"mean": [1], "cov": [[1]]}', ["update", "CSV", "--sigma", "nan"]),
        # finite inputs whose predictive variance overflows
        ('{"mean": [1], "cov": [[1e300]]}', ["predict", "1e308", "--sigma", "1"]),
    ],
)
def test_gauss_refuses_non_finite_posteriors_sigmas_and_results(capsys, tmp_path, posterior, argv):
    path = tmp_path / "post.json"
    path.write_text(posterior)
    csv = tmp_path / "r.csv"
    csv.write_text("x1,y\n1,2\n2,3\n")
    action, *rest = argv
    code, out, err = run(
        capsys, "gauss", action, str(path), *[str(csv) if a == "CSV" else a for a in rest]
    )
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "validation"


@pytest.mark.parametrize(
    "argv",
    [
        ["fit", "r.csv", "--sigma", "1e-320"],
        ["update", "wide.json", "r.csv", "--sigma", "1", "--mode", "seq"],
    ],
)
def test_gauss_overflow_writes_one_error_and_no_warning(tmp_path, argv):
    (tmp_path / "r.csv").write_text("x1,y\n1,2\n2,3\n3,5\n")
    (tmp_path / "wide.json").write_text('{"mean": [1], "cov": [[1e300]]}')
    path = [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    proc = subprocess.run(
        [sys.executable, "-m", "markov_bayes", "gauss", *argv],
        capture_output=True, text=True, env=env, cwd=tmp_path,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    [line] = proc.stderr.splitlines()
    assert set(json.loads(line)) == {"error", "type", "message"}


def test_gauss_seq_refuses_the_overflowed_root_of_a_prior_that_batch_absorbs(capsys, tmp_path):
    prior = write_json(tmp_path, "wide.json", {"mean": [1], "cov": [[1e300]]})
    path = tmp_path / "r.csv"
    path.write_text("x1,y\n1,2\n2,3\n3,5\n")
    argv = ["gauss", "update", prior, str(path), "--sigma", "1", "--mode"]
    code, out, err = run(capsys, *argv, "seq")
    assert (code, out) == (1, "")
    assert json.loads(err) == {
        "error": "validation",
        "type": "RankDeficient",
        "message": "the posterior at noise scale 1 overflows the float range",
    }
    assert run_json(capsys, *argv, "batch")["posterior"]["cov"][0][0] > 0


@pytest.mark.parametrize(
    "action, argv, message",
    [
        ("predict", ["POST", "1e308", "--sigma", "1"],
         "the prediction at [1e+308], sigma 1, overflows"),
        ("predict", ["POST", "2", "--sigma", "1e200"],
         "the prediction at [2.0], sigma 1e+200, overflows"),
        ("fit", ["CSV", "--sigma", "1e308"],
         "the posterior at noise scale 1e+308 overflows the float range"),
    ],
    ids=["predict-point", "predict-sigma", "fit-sigma"],
)
def test_gauss_overflow_names_the_point_or_the_sigma(capsys, tmp_path, action, argv, message):
    files = {
        "POST": write_json(tmp_path, "post.json", {"mean": [0.5], "cov": [[1.0]]}),
        "CSV": str(tmp_path / "r.csv"),
    }
    (tmp_path / "r.csv").write_text("x1,y\n1,2\n2,3\n")
    code, out, err = run(capsys, "gauss", action, *[files.get(a, a) for a in argv])
    assert (code, out) == (1, "")
    assert json.loads(err)["message"] == message


@pytest.mark.parametrize(
    "sigma, message",
    [
        ("1e-160", "the posterior at noise scale 1e-160 underflows the float range"),
        ("1e-200", "the posterior at noise scale 1e-200 underflows the float range"),
        ("1e-300", "the posterior at noise scale 1e-300 underflows the float range"),
        # 1e-320 is subnormal, so it reads back as the float it parsed to
        ("1e-320", f"normal matrix condition inf exceeds 1e+12 at noise scale {1e-320:g}"),
    ],
)
def test_gauss_fit_refusal_names_a_tiny_noise_scale(capsys, tmp_path, sigma, message):
    path = tmp_path / "r.csv"
    path.write_text("x1,y\n1,2\n2,3\n3,5\n")
    code, out, err = run(capsys, "gauss", "fit", str(path), "--sigma", sigma)
    assert (code, out) == (1, "")
    assert json.loads(err) == {
        "error": "validation", "type": "RankDeficient", "message": message,
    }


@pytest.mark.parametrize("mode", ["seq", "batch"])
def test_gauss_update_refuses_a_posterior_that_underflows(capsys, tmp_path, mode):
    prior = write_json(tmp_path, "prior.json", {"mean": [0.5], "cov": [[1.0]]})
    path = tmp_path / "r.csv"
    path.write_text("x1,y\n1,2\n2,3\n3,5\n")
    argv = ["gauss", "update", prior, str(path), "--sigma", "1e-300", "--mode", mode]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert json.loads(err)["message"] == (
        "the posterior at noise scale 1e-300 underflows the float range"
    )


def test_gauss_fit_rank_deficient_exits_one(capsys, tmp_path):
    path = tmp_path / "thin.csv"
    path.write_text("x1,x2,y\n1.0,2.0,3.0\n")
    code, _, err = run(capsys, "gauss", "fit", str(path), "--sigma", "1.0")
    assert code == 1
    assert json.loads(err)["type"] == "RankDeficient"


def test_gauss_fit_refuses_a_quoted_field_naming_its_line(capsys, tmp_path):
    # the regression format has no CSV quoting: a field is a bare number
    path = tmp_path / "quoted.csv"
    path.write_text('x1,y\n1.0,2.0\n\n"1.5",3.0\n2.0,4.5\n')
    code, out, err = run(capsys, "gauss", "fit", str(path), "--sigma", "1")
    assert code == 1
    assert out == ""
    assert json.loads(err)["message"] == "regression CSV line 4: non-numeric field"


@pytest.mark.parametrize("mode", ["seq", "batch"])
def test_gauss_update_refuses_a_duplicate_column(capsys, tmp_path, mode):
    rng = np.random.default_rng(5)
    x = rng.normal(size=(30, 2))
    y = x @ np.array([1.0, -1.0]) + 0.1 * rng.normal(size=30)
    lines = ["x1,x2,x3,y"]
    for (a, b), t in zip(x.tolist(), y.tolist()):
        lines.append(f"{a!r},{b!r},{b!r},{t!r}")
    path = tmp_path / "dup.csv"
    path.write_text("\n".join(lines) + "\n")
    prior = write_json(
        tmp_path, "gprior.json", {"mean": [0.0] * 3, "cov": (1e10 * np.eye(3)).tolist()}
    )
    code, out, err = run(
        capsys, "gauss", "update", prior, str(path), "--sigma", "0.5", "--mode", mode
    )
    assert code == 1
    assert out == ""
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


@pytest.mark.parametrize("text", ["abc", "", "1e3", "7.0"])
def test_check_names_a_bad_seed_in_the_environment(capsys, monkeypatch, text):
    monkeypatch.setenv("MARKOV_BAYES_SEED", text)
    code, out, err = run(capsys, "check", "--suite", "zn", "--cases", "1")
    assert (code, out) == (1, "")
    assert json.loads(err) == {
        "error": "validation",
        "type": "ValueError",
        "message": f"MARKOV_BAYES_SEED must be an integer, got {text!r}",
    }


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


def test_nothing_leaks_from_one_call_into_the_next(capsys, tmp_path):
    # the parser is built once per process, so every call must start clean
    assert run_json(capsys, "learn", BUNDLE, CSV, "--argmax")["argmax"] == "m0"
    assert "argmax" not in run_json(capsys, "learn", BUNDLE, CSV)

    target = tmp_path / "out.json"
    code, out, _ = run(capsys, "learn", BUNDLE, CSV, "--out", str(target))
    assert code == 0 and out == ""
    target.unlink()
    assert run_json(capsys, "learn", BUNDLE, CSV)["posterior"] == {"m0": "32/59", "m1": "27/59"}
    assert not target.exists()

    code, out, err = run(capsys, "learn", BUNDLE)
    assert code == 1 and out == ""
    assert json.loads(err)["type"] == "usage"
    assert run(capsys, "learn", BUNDLE, CSV, "--mode", "seq")[0] == 0


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
