"""Round trips through the JSON and CSV forms must be bit exact."""

import csv
import io
import json
import random
import re
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markov_bayes import (
    FinSpace,
    GaussPosterior,
    RegressionData,
    ParaMorphism,
    TrainingSet,
    bayes_learn,
    bayes_lens,
    product,
    sequential_update,
    state,
)
from markov_bayes.sampling import (
    rand_kernel,
    rand_model,
    rand_para_morphism,
    rand_ps_morphism,
    rand_ps_object,
    rand_space,
    rand_state,
)
from markov_bayes.serialize import (
    CSV_BLOCK_ROWS,
    gauss_posterior_from_json,
    gauss_posterior_to_json,
    kernel_from_json,
    kernel_to_json,
    lens_from_json,
    lens_to_json,
    model_from_json,
    model_to_json,
    para_from_json,
    para_to_json,
    ps_morphism_from_json,
    ps_morphism_to_json,
    ps_object_from_json,
    ps_object_to_json,
    regression_data_from_csv,
    regression_data_to_csv,
    space_from_json,
    space_to_json,
    state_from_map,
    state_to_map,
    trace_to_json,
    trace_to_tsv,
    training_set_from_csv,
    training_set_to_csv,
)
from markov_bayes.suites import _CODECS

DATA_DIR = Path(__file__).parent / "data"

seeds = st.integers(min_value=0, max_value=10**9)


# ---------- finite structures ----------


@given(seeds)
@settings(max_examples=50)
def test_space_round_trip(seed):
    rng = random.Random(seed)
    plain = rand_space(rng, "A")
    assert space_from_json(space_to_json(plain)) == plain
    joint = product(plain, rand_space(rng, "B"))
    back = space_from_json(space_to_json(joint))
    assert back == joint
    assert back.factors == joint.factors


def test_space_factor_consistency_is_checked():
    doc = space_to_json(product(FinSpace("A", ("a",)), FinSpace("B", ("b0", "b1"))))
    doc["elements"] = list(reversed(doc["elements"]))
    with pytest.raises(ValueError):
        space_from_json(doc)
    with pytest.raises(ValueError):
        space_from_json({"name": "A", "elements": ["a"], "factors": []})


@given(seeds)
@settings(max_examples=50)
def test_kernel_round_trip(seed):
    rng = random.Random(seed)
    src = rand_space(rng, "A")
    tgt = rand_space(rng, "B")
    k = rand_kernel(rng, src, tgt)
    doc = json.loads(json.dumps(kernel_to_json(k)))
    assert kernel_from_json(doc) == k


@given(seeds)
@settings(max_examples=50)
def test_state_map_round_trip(seed):
    rng = random.Random(seed)
    space = rand_space(rng, "A")
    st_ = rand_state(rng, space)
    assert state_from_map(space, state_to_map(st_)) == st_


def test_state_map_rejects_wrong_labels():
    space = FinSpace("A", ("a0", "a1"))
    with pytest.raises(ValueError):
        state_from_map(space, {"a0": "1/2", "b1": "1/2"})
    with pytest.raises(ValueError):
        state_from_map(space, {"a0": "1/1"})


def test_rationals_survive_as_strings():
    space = FinSpace("A", ("a0", "a1", "a2"))
    st_ = state(space, ("1/7", "2/7", "4/7"))
    doc = json.loads(json.dumps(state_to_map(st_)))
    assert doc == {"a0": "1/7", "a1": "2/7", "a2": "4/7"}
    assert state_from_map(space, doc).probs == (
        Fraction(1, 7),
        Fraction(2, 7),
        Fraction(4, 7),
    )


# ---------- state-carrying structures ----------


@given(seeds)
@settings(max_examples=30, deadline=None)
def test_ps_round_trips(seed):
    rng = random.Random(seed)
    src = rand_ps_object(rng, "A")
    assert ps_object_from_json(ps_object_to_json(src)) == src
    f = rand_ps_morphism(rng, src, "B")
    assert ps_morphism_from_json(ps_morphism_to_json(f)) == f


@given(seeds)
@settings(max_examples=20, deadline=None)
def test_para_and_lens_round_trips(seed):
    rng = random.Random(seed)
    src = rand_ps_object(rng, "A")
    f = rand_para_morphism(rng, src, "P", "B")
    assert para_from_json(para_to_json(f)) == f
    lens = bayes_lens(f.body)
    assert lens_from_json(lens_to_json(lens)) == lens


@given(seeds)
@settings(max_examples=20, deadline=None)
def test_learner_round_trips_with_a_lens_body(seed):
    rng = random.Random(seed)
    model = rand_para_morphism(rng, rand_ps_object(rng, "A"), "P", "B")
    learner = bayes_learn(model)
    doc = json.loads(json.dumps(para_to_json(learner)))
    assert set(doc["body"]) == {"forward", "backward"}
    assert para_from_json(doc) == learner
    assert para_from_json(doc) != model
    # the suites' failure serializer dispatches on type and writes either kind
    for case in (model, learner):
        assert para_from_json(json.loads(json.dumps(_CODECS[ParaMorphism][1](case)))) == case


# ---------- model bundles ----------


@given(seeds)
@settings(max_examples=30, deadline=None)
def test_model_round_trip(seed):
    rng = random.Random(seed)
    model = rand_model(rng, 3, 3, 3)
    doc = json.loads(json.dumps(model_to_json(model)))
    assert model_from_json(doc) == model


def test_bundle_fixture_parses_to_the_worked_model(two_point_model):
    doc = json.loads((DATA_DIR / "two_point_bundle.json").read_text())
    assert model_from_json(doc) == two_point_model


def test_model_json_reports_missing_fields():
    with pytest.raises(ValueError, match="model"):
        model_from_json({"params": {"name": "M", "elements": ["m0"]}})


def test_an_edited_document_leaves_later_renders_alone():
    # every writer reads the kernel's cached text, and hands out fresh lists
    model = rand_model(random.Random(3), 3, 3, 3)
    before = json.dumps(model_to_json(model))
    doc = model_to_json(model)
    doc["channel"][0][0] = doc["prior"][model.params.elements[0]] = "x"
    kernel_to_json(model.channel)["rows"][1].append("x")
    state_to_map(model.input_state).clear()
    assert json.dumps(model_to_json(model)) == before
    assert kernel_to_json(model.channel)["rows"] == json.loads(before)["channel"]


# ---------- training data ----------


def test_training_csv_round_trip():
    data = TrainingSet((("x0", "y0"), ("x1", "y1"), ("x0", "y1")))
    text = training_set_to_csv(data)
    assert text.splitlines()[0] == "x,y"
    assert training_set_from_csv(text) == data


def test_training_csv_fixture(two_point_model):
    data = training_set_from_csv((DATA_DIR / "two_point.csv").read_text())
    assert list(data) == [("x0", "y0"), ("x0", "y1")]


def test_training_csv_errors():
    with pytest.raises(ValueError, match="header"):
        training_set_from_csv("a,b\nx0,y0\n")
    with pytest.raises(ValueError, match="empty"):
        training_set_from_csv("")
    with pytest.raises(ValueError, match="line 2"):
        training_set_from_csv("x,y\nx0,y0,extra\n")


def test_training_csv_skips_blank_lines():
    data = training_set_from_csv("x,y\nx0,y0\n\nx1,y1\n")
    assert list(data) == [("x0", "y0"), ("x1", "y1")]


# ---------- traces ----------


def test_trace_json_and_tsv(two_point_model):
    trace = sequential_update(
        two_point_model, TrainingSet((("x0", "y0"), ("x0", "y1")))
    )
    assert trace_to_json(trace) == [
        {"m0": "1/2", "m1": "1/2"},
        {"m0": "8/11", "m1": "3/11"},
        {"m0": "32/59", "m1": "27/59"},
    ]
    assert trace_to_tsv(trace) == (
        "step\tm0\tm1\n"
        "0\t1/2\t1/2\n"
        "1\t8/11\t3/11\n"
        "2\t32/59\t27/59\n"
    )


# ---------- gaussian structures ----------


def test_gauss_posterior_round_trip():
    post = GaussPosterior(
        mean=np.array([0.1, -2.5]),
        cov=np.array([[1.5, 0.25], [0.25, 0.75]]),
    )
    doc = json.loads(json.dumps(gauss_posterior_to_json(post)))
    back = gauss_posterior_from_json(doc)
    assert np.array_equal(back.mean, post.mean)
    assert np.array_equal(back.cov, post.cov)


def test_regression_csv_round_trip():
    data = RegressionData(
        design=np.array([[1.0, 0.5], [0.25, -3.0], [0.1, 1e-7]]),
        targets=np.array([2.0, -1.5, 0.125]),
    )
    text = regression_data_to_csv(data)
    assert text.splitlines()[0] == "x1,x2,y"
    back = regression_data_from_csv(text)
    # repr round-trips floats exactly
    assert np.array_equal(back.design, data.design)
    assert np.array_equal(back.targets, data.targets)


def test_regression_csv_errors():
    with pytest.raises(ValueError, match="header"):
        regression_data_from_csv("a,b,y\n1,2,3\n")
    with pytest.raises(ValueError, match="non-numeric"):
        regression_data_from_csv("x1,y\noops,3\n")
    with pytest.raises(ValueError, match="empty"):
        regression_data_from_csv("")
    # a short row and a long row have the right number of fields between them
    with pytest.raises(ValueError, match="line 2: expected 3 fields"):
        regression_data_from_csv("x1,x2,y\n1,2\n3,4,5,6\n")
    for field in ("nan", "inf", "-Infinity"):
        with pytest.raises(ValueError, match="line 4: non-finite"):
            regression_data_from_csv(f"x1,x2,y\n1,2,3\n\n4,{field},6\n7,8,9\n")
        with pytest.raises(ValueError, match="line 3: non-finite"):
            regression_data_from_csv(f"x1,y\n1,2\n3,{field}\n")


def test_regression_csv_reader_peaks_under_three_times_the_file_size():
    npr = np.random.default_rng(5000)
    x = npr.uniform(-1.0, 1.0, (5000, 8))
    y = x @ npr.uniform(-2.0, 2.0, 8) + 0.5 * npr.standard_normal(5000)
    text = "x1,x2,x3,x4,x5,x6,x7,x8,y\n" + "".join(
        ",".join(map(repr, row)) + f",{t!r}\n" for row, t in zip(x.tolist(), y.tolist())
    )
    tracemalloc.start()
    try:
        data = regression_data_from_csv(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(data.design, x) and np.array_equal(data.targets, y)
    assert peak <= 3 * len(text), peak / len(text)


# ---------- the regression CSV reader against the csv-module reader ----------


def _csv_module_reader(text: str) -> RegressionData:
    """The reader as first written on ``csv.reader``, kept as the reference."""
    reader = csv.reader(io.StringIO(text))
    try:
        header = [h.strip() for h in next(reader)]
    except StopIteration:
        raise ValueError("regression CSV is empty") from None
    dim = len(header) - 1
    if dim < 1 or header[-1] != "y" or header[:-1] != [f"x{i + 1}" for i in range(dim)]:
        raise ValueError(
            f"regression CSV header must be 'x1,...,xn,y', got {header!r}"
        )
    rows, targets, lines = [], [], []
    for line, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != dim + 1:
            raise ValueError(
                f"regression CSV line {line}: expected {dim + 1} fields"
            )
        try:
            values = [float(v) for v in row]
        except ValueError:
            raise ValueError(f"regression CSV line {line}: non-numeric field") from None
        rows.append(values[:-1])
        targets.append(values[-1])
        lines.append(line)
    design = np.asarray(rows, dtype=float).reshape(-1, dim)
    targets = np.asarray(targets, dtype=float)
    finite = np.isfinite(design).all(axis=1) & np.isfinite(targets)
    if not finite.all():
        line = lines[int(np.argmin(finite))]
        raise ValueError(f"regression CSV line {line}: non-finite field")
    return RegressionData(design, targets)


def _random_field(rng: random.Random) -> str:
    roll = rng.random()
    if roll < 0.008:
        return rng.choice(["nan", "inf", "-Infinity", "NaN", "+inf"])
    if roll < 0.016:
        return rng.choice(["oops", "", " ", "1..2", "0x10", "1_", "--1", "1e"])
    return _number_field(rng)


def _number_field(rng: random.Random) -> str:
    value = rng.uniform(-1e3, 1e3)
    form = rng.randrange(6)
    if form == 0:
        return repr(value)
    if form == 1:
        return f"{value:.4e}"
    if form == 2:
        return f" {value:.3f} "
    if form == 3:
        return f"{rng.randint(1, 9)}_{rng.randint(0, 9)}"
    if form == 4:
        return f"{value:.2E}".replace("E+0", "E")
    return str(rng.randint(-50, 50))


def _random_regression_csv(rng: random.Random) -> str:
    """Header, rows and line ends with the faults the reader must name."""
    roll = rng.random()
    if roll < 0.02:
        return ""
    dim = rng.randint(1, 4)
    header = [f"x{i + 1}" for i in range(dim)] + ["y"]
    if roll < 0.03:
        header = [""]
    elif roll < 0.05:
        header[rng.randrange(dim + 1)] = "z"
    elif roll < 0.08:
        header = [f" {h} " for h in header]
    lines = [",".join(header)]
    n_rows = 0 if rng.random() < 0.05 else rng.randint(0, 30)
    fault = rng.random()
    for _ in range(n_rows):
        if rng.random() < 0.1:
            lines.append(rng.choice(["", "", " "]))
        fields = [_random_field(rng) for _ in range(dim + 1)]
        lines.append(",".join(fields))
    if n_rows and fault < 0.3:
        at = rng.randrange(1, len(lines))
        kind = rng.randrange(3)
        short = ",".join(_random_field(rng) for _ in range(dim))
        long = ",".join(_random_field(rng) for _ in range(dim + 2))
        if kind == 0:
            lines.insert(at, short)
        elif kind == 1:
            lines.insert(at, long)
        else:
            # a short row then a long one: the total field count is right
            lines[at:at] = [short, long]
    ends = [rng.choice(["\n", "\n", "\r\n", "\r"]) for _ in lines]
    if rng.random() < 0.5:
        ends = ["\n"] * len(lines)
    text = "".join(line + end for line, end in zip(lines, ends))
    if rng.random() < 0.2:
        text = text[: -len(ends[-1])]
    return text


def _read_outcome(reader, text):
    try:
        data = reader(text)
    except ValueError as e:
        return type(e), str(e)
    return data.design, data.targets


def _same_outcome(a, b) -> bool:
    """The same error type and message, or bit-equal design and targets."""
    errors = isinstance(a[0], type), isinstance(b[0], type)
    if any(errors):
        return all(errors) and a == b
    return np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def _reference_outcome(text: str):
    """The reader's outcome on ``text``, which must be the reference's."""
    got = _read_outcome(regression_data_from_csv, text)
    # A file read in text mode ends lines at "\n", "\r\n" and a lone "\r".
    # On a string that keeps a lone "\r", csv either stops with csv.Error
    # or reads "\r\r\n" as one line end, so the reference reads what the
    # file read would give.
    want = _read_outcome(_csv_module_reader, io.StringIO(text, newline=None).getvalue())
    if not re.search("\r(?!\n)", text):
        assert _same_outcome(_read_outcome(_csv_module_reader, text), want)
    assert _same_outcome(got, want), (text, got, want)
    return want


def _outcome_kind(outcome) -> str:
    return outcome[1].split(": ")[-1] if isinstance(outcome[0], type) else "parsed"


def test_regression_csv_reader_matches_the_csv_module_reader():
    kinds = Counter()
    for seed in range(400):
        want = _reference_outcome(_random_regression_csv(random.Random(seed)))
        kinds[_outcome_kind(want)] += 1
    for kind in ("parsed", "non-finite field", "non-numeric field",
                 "need at least one observation", "regression CSV is empty"):
        assert kinds[kind] >= 5, kinds
    assert sum(v for k, v in kinds.items() if k.startswith("expected")) >= 20, kinds


def _block_spanning_csv(rng: random.Random, fault: str) -> str:
    """A file of 2 to 3 reader blocks with a blank line on each block
    boundary and at most two planted faults."""
    dim = rng.randint(1, 4)
    n_rows = rng.randint(CSV_BLOCK_ROWS + 1, 3 * CSV_BLOCK_ROWS)
    rows = [[_number_field(rng) for _ in range(dim + 1)] for _ in range(n_rows)]
    last = (n_rows - 1) // CSV_BLOCK_ROWS * CSV_BLOCK_ROWS
    if fault in ("non-finite", "non-numeric"):
        at = rng.randrange(last, n_rows)
        rows[at][rng.randrange(dim + 1)] = "inf" if fault == "non-finite" else "oops"
    elif fault == "non-finite-then-non-numeric":
        # the reference names a non-numeric field before any non-finite one
        rows[rng.randrange(last)][0] = "nan"
        rows[rng.randrange(last, n_rows)][dim] = "1..2"
    elif fault == "non-numeric-then-short":
        rows[rng.randrange(CSV_BLOCK_ROWS)][0] = "oops"
        rows[rng.randrange(CSV_BLOCK_ROWS, n_rows)].pop()
    lines = ["x" + ",x".join(str(i + 1) for i in range(dim)) + ",y"]
    lines += [",".join(row) for row in rows]
    # a blank line on each block boundary, and a few anywhere
    for boundary in range(2 * CSV_BLOCK_ROWS, 0, -CSV_BLOCK_ROWS):
        if boundary < n_rows:
            lines.insert(boundary + 1, "")
    for _ in range(rng.randint(0, 3)):
        lines.insert(rng.randrange(1, len(lines)), "")
    end = rng.choice(["\n", "\r\n", "\r"])
    return end.join(lines) + end


def test_regression_csv_reader_matches_the_csv_module_reader_across_blocks():
    faults = ["none", "non-finite", "non-numeric", "non-finite-then-non-numeric",
              "non-numeric-then-short"]
    kinds = Counter()
    for seed in range(25):
        fault = faults[seed % len(faults)]
        text = _block_spanning_csv(random.Random(seed), fault)
        want = _reference_outcome(text)
        kinds[_outcome_kind(want)] += 1
        if fault == "non-numeric-then-short":
            line = next(i for i, record in enumerate(text.splitlines(), start=1)
                        if "oops" in record)
            assert want[1] == f"regression CSV line {line}: non-numeric field"
        elif fault != "none":
            assert _outcome_kind(want) == fault.split("-then-")[-1] + " field", want
    assert kinds == Counter({"parsed": 5, "non-finite field": 5, "non-numeric field": 15})
