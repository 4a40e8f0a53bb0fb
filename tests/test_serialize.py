"""Round trips through the JSON and CSV forms must be bit exact."""

import json
import random
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
    TrainingSet,
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
    for field in ("nan", "inf", "-Infinity"):
        with pytest.raises(ValueError, match="line 4: non-finite"):
            regression_data_from_csv(f"x1,x2,y\n1,2,3\n\n4,{field},6\n7,8,9\n")
        with pytest.raises(ValueError, match="line 3: non-finite"):
            regression_data_from_csv(f"x1,y\n1,2\n3,{field}\n")
