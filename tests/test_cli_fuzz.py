"""Hostile input to the command line: every malformed bundle, training CSV,
posterior, kernel or regression file, every hostile noise scale and every
hostile ``check`` argument or seed gets a documented exit code, one JSON
error object on stderr, no warning and no traceback, in bounded time, and
what a command prints on success is strict JSON, with no ``NaN`` or
``Infinity``.

Each case starts from a valid document and breaks it in one or two ways:
a value of the wrong JSON type, a missing key, a duplicate or unknown
label, a point mass where mass was spread, a negative entry, a huge
exponent, a stray ``\\r``, a truncated or empty file, or nesting past what
the JSON reader can follow.  Training CSVs get wrong headers, unknown
labels, stray ``\\r``, NUL bytes and quotes.  Gaussian posteriors, points,
regression rows and noise scales get ``null``, ``NaN``, infinities,
``1e308``, ``1e-320`` and integers past the float range.  ``check`` gets
unknown suites, hostile ``--cases`` and ``--seed`` texts and a hostile
``MARKOV_BAYES_SEED``, always with a few cases.  ``cli.main`` runs
in-process, and the number of examples keeps the whole module to a few
seconds.
"""

import io
import json
import os
import time
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from markov_bayes.cli import main
from markov_bayes.suites import SUITES

DATA_DIR = Path(__file__).parent / "data"
BUNDLE = json.loads((DATA_DIR / "two_point_bundle.json").read_text(encoding="utf-8"))
POSTERIOR = {"posterior": {"m0": "32/59", "m1": "27/59"}}
KERNEL = {
    "source": {"name": "X", "elements": ["x0", "x1"]},
    "target": {"name": "Y", "elements": ["y0", "y1"]},
    "rows": [["3/4", "1/4"], ["1/2", "1/2"]],
}
PRIOR = {
    "source": {"name": "I", "elements": ["*"]},
    "target": {"name": "X", "elements": ["x0", "x1"]},
    "rows": [["1/2", "1/2"]],
}
BACK = {
    "source": {"name": "Y", "elements": ["y0", "y1"]},
    "target": {"name": "X", "elements": ["x0", "x1"]},
    "rows": [["1/3", "2/3"], ["1", "0"]],
}
CSV = "x,y\nx0,y0\nx0,y1\n"
GAUSS_POSTERIOR = {"posterior": {"mean": [0.5, -1.0], "cov": [[1.0, 0.25], [0.25, 2.0]]}}
REGRESSION = (("1", "2", "3"), ("2", "1", "0"), ("0.5", "0.5", "1"))

#: Numbers past, at or below the edges of the float range, and not numbers.
HOSTILE_NUMBERS = (
    None, float("nan"), float("inf"), float("-inf"), 1e308, -1e308, 1e-320, 0.0,
    -1.0, 10**400,
)
#: The same as command-line or CSV text.
HOSTILE_NUMBER_TEXTS = (
    "nan", "NaN", "inf", "-inf", "Infinity", "1e308", "-1e308", "1e-320", "0", "-1",
    "1" + "0" * 400, "", "x",
)

#: Wall-time bound for one case, far above what any case needs.
CASE_SECONDS = 5.0

EXITS = {0, 1, 2}

#: Entries that are not valid probabilities, or that spell numbers whose
#: size the reader must bound.
HOSTILE_ENTRIES = (
    "-1/2", "3/2", "1/0", "0/0", "1e-99999999", "1e999999999", "9e-600",
    "nan", "inf", "-0", "1/2\r", "\r", "", " ", "1_/2", "0x1", "½",
    "1" * 700 + "/" + "1" * 700,
)

json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**30), max_value=10**30),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=6),
    st.sampled_from(HOSTILE_ENTRIES),
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(max_size=4), inner, max_size=3),
    ),
    max_leaves=6,
)


def _paths(doc, prefix=()):
    """Every path into a nested dict/list document, the root included."""
    yield prefix
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _paths(value, prefix + (i,))


def _at(doc, path):
    for step in path:
        doc = doc[step]
    return doc


def _mutate(data, doc):
    """``doc`` with one hostile change, drawn from ``data``."""
    doc = json.loads(json.dumps(doc))
    kind = data.draw(
        st.sampled_from(("replace", "delete", "duplicate", "rename", "point", "entry", "cr"))
    )
    paths = list(_paths(doc))
    if kind == "replace":
        path = data.draw(st.sampled_from(paths))
        value = data.draw(json_values)
        if not path:
            return value
        _at(doc, path[:-1])[path[-1]] = value
    elif kind == "delete":
        path = data.draw(st.sampled_from([p for p in paths if p] or [()]))
        if path:
            del _at(doc, path[:-1])[path[-1]]
    elif kind == "duplicate":
        lists = [p for p in paths if isinstance(_at(doc, p), list) and _at(doc, p)]
        if lists:
            target = _at(doc, data.draw(st.sampled_from(lists)))
            target.append(target[0])
    elif kind == "rename":
        maps = [p for p in paths if isinstance(_at(doc, p), dict) and _at(doc, p)]
        if maps:
            target = _at(doc, data.draw(st.sampled_from(maps)))
            key = data.draw(st.sampled_from(sorted(target)))
            target[key + data.draw(st.sampled_from(("9", "\r", "⊗", " ")))] = target.pop(key)
    elif kind == "point":
        # a row or label map of rationals becomes a point mass, so that
        # parameters drop out and observations can have zero likelihood
        rows = [p for p in paths if isinstance(_at(doc, p), (list, dict)) and _at(doc, p)]
        if rows:
            target = _at(doc, data.draw(st.sampled_from(rows)))
            keys = list(target) if isinstance(target, dict) else list(range(len(target)))
            hot = data.draw(st.sampled_from(keys))
            for key in keys:
                target[key] = "1" if key == hot else "0"
    else:
        strings = [p for p in paths if p and isinstance(_at(doc, p), str)]
        if strings:
            path = data.draw(st.sampled_from(strings))
            old = _at(doc, path)
            new = data.draw(st.sampled_from(HOSTILE_ENTRIES)) if kind == "entry" else old + "\r"
            _at(doc, path[:-1])[path[-1]] = new
    return doc


def _render(data, doc) -> str:
    """A document as file text, sometimes cut short, emptied or over-nested."""
    text = json.dumps(doc, ensure_ascii=data.draw(st.booleans()))
    form = data.draw(st.sampled_from(("whole",) * 6 + ("empty", "cut", "deep", "crlf")))
    if form == "empty":
        return ""
    if form == "cut":
        return text[: data.draw(st.integers(0, max(len(text) - 1, 0)))]
    if form == "deep":
        return "[" * 100_000 + text + "]" * 100_000
    if form == "crlf":
        return text.replace(",", ",\r")
    return text


def _csv_text(data) -> str:
    labels = st.sampled_from(("x0", "y0", "y1", "x1", "", " x0", "y0\r", '"x0"', "x0,y0", "\x00", "m0"))
    header = data.draw(st.sampled_from(("x,y", "x,y", "y,x", "x", "", "x,y,z", "﻿x,y")))
    rows = data.draw(st.lists(st.tuples(labels, labels), max_size=6))
    end = data.draw(st.sampled_from(("\n", "\r\n", "\r")))
    text = end.join([header, *(f"{a},{b}" for a, b in rows)]) + end
    if data.draw(st.booleans()):
        return CSV
    return text if data.draw(st.integers(0, 9)) else ""


def _write(directory: Path, name: str, text: str) -> str:
    path = directory / name
    path.write_text(text, encoding="utf-8", newline="")
    return str(path)


def _no_constant(name: str):
    raise AssertionError(f"output is not strict JSON: {name}")


def _run(argv: list[str]) -> None:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
        # outside a test runner, a warning is a line on stderr
        warnings.simplefilter("always")
        code = main(argv)
    elapsed = time.perf_counter() - start
    assert code in EXITS, (code, err.getvalue())
    assert elapsed < CASE_SECONDS, (argv, elapsed)
    assert "Traceback" not in err.getvalue()
    assert not caught, [str(w.message) for w in caught]
    if code == 0:
        assert err.getvalue() == ""
        json.loads(out.getvalue(), parse_constant=_no_constant)
        return
    lines = err.getvalue().splitlines()
    assert len(lines) == 1, err.getvalue()
    report = json.loads(lines[0])
    assert isinstance(report, dict) and set(report) == {"error", "type", "message"}
    assert out.getvalue() == ""


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


FUZZ = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _with(doc, path, value):
    doc = json.loads(json.dumps(doc))
    _at(doc, path[:-1])[path[-1]] = value
    return doc


@pytest.mark.parametrize(
    "path, value, message",
    [
        # an invalid text repeated in a row and across rows
        (("channel",), [["1/0", "1/0"], ["1/0", "1/0"]], "not a rational: '1/0'"),
        (("prior",), {"m0": "1e999999999", "m1": "1e999999999"},
         "rational '1e999999999' has exponent 999999999, beyond the bound of 1100 for its length"),
        # every entry is parsed before any row is checked, first bad one first
        (("channel",), [["3/2", "-1/2"], ["x", "x"]], "not a rational: 'x'"),
        # two spellings of one half, then a text repeated in a bad row
        (("channel",), [["1/2 ", "2/4"], ["1/3", "1/3"]], "row 1 sums to 2/3, not 1"),
        # entries of other JSON types than strings
        (("channel", 1), ["1/2", 1], "not a rational: 1"),
        (("channel", 0), [["1/2"], "1/2"], "not a rational: ['1/2']"),
        (("channel", 0), [None, "1"], "not a rational: None"),
        (("channel", 1), [{"p": ["1/2"]}, "1/2"], "not a rational: {'p': ['1/2']}"),
        (("input_state", "x0"), True, "not a rational: True"),
    ],
)
def test_learn_reports_the_first_bad_entry(workdir, path, value, message):
    bundle = _write(workdir, "bundle.json", json.dumps(_with(BUNDLE, path, value)))
    csv = _write(workdir, "train.csv", CSV)
    for mode in ("seq", "batch"):
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(["learn", bundle, csv, "--mode", mode])
        assert code == 1
        assert json.loads(err.getvalue()) == {
            "error": "validation", "type": "ValueError", "message": message
        }


@FUZZ
@given(st.data())
def test_learn_survives_malformed_bundles_and_csvs(workdir, data):
    bundle = BUNDLE
    for _ in range(data.draw(st.integers(0, 2))):
        bundle = _mutate(data, bundle)
    argv = [
        "learn",
        _write(workdir, "bundle.json", _render(data, bundle)),
        _write(workdir, "train.csv", _csv_text(data)),
        "--mode",
        data.draw(st.sampled_from(("seq", "batch"))),
    ]
    if data.draw(st.booleans()):
        argv.append("--argmax")
    _run(argv)


@FUZZ
@given(st.data())
def test_predict_survives_malformed_bundles_and_posteriors(workdir, data):
    bundle = _mutate(data, BUNDLE) if data.draw(st.booleans()) else BUNDLE
    posterior = _mutate(data, POSTERIOR)
    _run([
        "predict",
        _write(workdir, "bundle.json", _render(data, bundle)),
        _write(workdir, "posterior.json", _render(data, posterior)),
        data.draw(st.sampled_from(("x0", "x9", ""))),
    ])


@FUZZ
@given(st.data())
def test_invert_survives_malformed_kernels(workdir, data):
    kernel = _mutate(data, KERNEL)
    prior = _mutate(data, PRIOR) if data.draw(st.booleans()) else PRIOR
    _run([
        "invert",
        _write(workdir, "kernel.json", _render(data, kernel)),
        _write(workdir, "prior.json", _render(data, prior)),
    ])


@FUZZ
@given(st.data())
def test_compose_survives_malformed_kernels(workdir, data):
    kernels = [KERNEL, BACK, KERNEL][: data.draw(st.integers(1, 3))]
    hit = data.draw(st.integers(0, len(kernels) - 1))
    kernels[hit] = _mutate(data, kernels[hit])
    _run([
        "compose",
        *[_write(workdir, f"k{i}.json", _render(data, k)) for i, k in enumerate(kernels)],
    ])


def _hostile_numbers(data, doc):
    """``doc`` with one to three of its numbers made hostile."""
    doc = json.loads(json.dumps(doc))
    numbers = [p for p in _paths(doc) if isinstance(_at(doc, p), float)]
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(numbers))
        _at(doc, path[:-1])[path[-1]] = data.draw(st.sampled_from(HOSTILE_NUMBERS))
    return doc


def _gauss_posterior(data, workdir) -> str:
    form = data.draw(st.sampled_from(("numbers", "numbers", "mutate", "valid")))
    if form == "numbers":
        doc = _hostile_numbers(data, GAUSS_POSTERIOR)
    else:
        doc = _mutate(data, GAUSS_POSTERIOR) if form == "mutate" else GAUSS_POSTERIOR
    return _write(workdir, "gauss.json", _render(data, doc))


def _regression_csv(data, workdir) -> str:
    rows = [list(row) for row in REGRESSION]
    for _ in range(data.draw(st.integers(0, 2))):
        row = data.draw(st.sampled_from(rows))
        row[data.draw(st.integers(0, 2))] = data.draw(st.sampled_from(HOSTILE_NUMBER_TEXTS))
    text = "x1,x2,y\n" + "".join(",".join(row) + "\n" for row in rows)
    return _write(workdir, "reg.csv", text)


def _sigma(data) -> list[str]:
    return ["--sigma", data.draw(st.sampled_from(("1", "0.5", *HOSTILE_NUMBER_TEXTS)))]


@FUZZ
@given(st.data())
def test_gauss_fit_survives_hostile_rows_and_sigmas(workdir, data):
    _run(["gauss", "fit", _regression_csv(data, workdir), *_sigma(data)])


@FUZZ
@given(st.data())
def test_gauss_update_survives_hostile_posteriors_rows_and_sigmas(workdir, data):
    _run([
        "gauss", "update", _gauss_posterior(data, workdir), _regression_csv(data, workdir),
        *_sigma(data), "--mode", data.draw(st.sampled_from(("seq", "batch"))),
    ])


@FUZZ
@given(st.data())
def test_gauss_predict_survives_hostile_posteriors_points_and_sigmas(workdir, data):
    coordinates = st.sampled_from(("1", "-2.5", *HOSTILE_NUMBER_TEXTS))
    point = ",".join(data.draw(st.lists(coordinates, min_size=1, max_size=3)))
    _run(["gauss", "predict", _gauss_posterior(data, workdir), point, *_sigma(data)])


#: Seeds as text: in range, negative, past any machine word, past what
#: ``int`` reads, and not integers.
SEED_TEXTS = (
    "0", "7", "-1", " 3 ", "1_0", "1" + "0" * 400, "9" * 5000, "", "abc", "1e3", "7.0",
    "0x10", "nan",
)


@FUZZ
@given(st.data())
def test_check_survives_hostile_suites_cases_and_seeds(data):
    suite = data.draw(st.sampled_from((*sorted(SUITES), "", "Markov", "zn ", "all", None)))
    argv = ["check"] if suite is None else ["check", "--suite", suite]
    # never the default 100 cases: a valid count stays at one or two
    argv += ["--cases", data.draw(st.sampled_from(("1", "2", "0", "-1", "", "x", "1.5", "1e3")))]
    if data.draw(st.booleans()):
        argv += ["--seed", data.draw(st.sampled_from(SEED_TEXTS))]
    env = data.draw(st.one_of(st.none(), st.sampled_from(SEED_TEXTS)))
    with mock.patch.dict(os.environ):
        os.environ.pop("MARKOV_BAYES_SEED", None)
        if env is not None:
            os.environ["MARKOV_BAYES_SEED"] = env
        _run(argv)
