"""Planted faults: a law fails when the route it checks is wrong.

Each test patches one production function inside the module a suite reads
it from, or a writer in the suites' codec table, so that it is wrong in one
realistic way, and runs a few cases of that suite.  The report must carry
that law's message: a law that still passes with its route broken checks
nothing.  The inversion and dagger
laws each have a fault in ``FAULTS``, the roundtrip laws each have one in
``ROUNDTRIP_FAULTS``, and a test keeps every law of those three suites
covered.
"""

import ast
import inspect
import random

import pytest

import markov_bayes.gauss as gauss
from markov_bayes import serialize, suites
from markov_bayes.conditioning import Disintegration
from markov_bayes.finstoch import (
    Kernel,
    compose,
    identity,
    tensor,
    uniform_row,
    uniform_state,
)
from markov_bayes.learning import Model, TrainingSet
from markov_bayes.paralens import LensMorphism
from markov_bayes.ps import PSMorphism, _ps_trusted, dagger, ps_tensor
from markov_bayes.suites import run_suite

CASES = 10
SEED = 7


def _messages(suite: str) -> set[str]:
    return {failure.message for failure in run_suite(suite, CASES, SEED).failures}


def test_batch_returning_the_prior_breaks_coincidence(monkeypatch):
    monkeypatch.setattr(suites, "batch_update", lambda model, data: model.prior)
    assert "sequential and batch posteriors differ" in _messages("coincidence")


def test_factorized_batch_dropping_the_last_observation_breaks_zn(monkeypatch):
    real = suites.batch_update_factorized

    def drop_last(model, data):
        return real(model, TrainingSet(data.pairs[:-1]))

    monkeypatch.setattr(suites, "batch_update_factorized", drop_last)
    assert "replicated-space and likelihood-product posteriors differ" in _messages("zn")


def test_sequential_skipping_the_last_row_breaks_gauss(monkeypatch):
    real = gauss.gauss_sequential

    def skip_last(data, sigma, prior):
        rest = gauss.RegressionData(data.design[:-1], data.targets[:-1])
        return real(rest, sigma, prior)

    monkeypatch.setattr(gauss, "gauss_sequential", skip_last)
    assert "one-at-a-time and all-at-once updates differ" in _messages("gauss")


# the real functions, which the faults below wrap
_invert, _disintegrate, _condition = suites.invert, suites.disintegrate, suites.condition


def _rotated(k: Kernel) -> Kernel:
    """``k`` with its first row moved to the end."""
    return Kernel(k.source, k.target, k.rows[1:] + k.rows[:1])


def _uniform_rows(f: Kernel, pi) -> Kernel:
    return Kernel(f.source, f.target, [uniform_row(len(f.target))] * len(f.source))


def _invert_against_uniform(f, pi):
    return _invert(f, uniform_state(f.source))


def _disintegrate_uniform_marginal(omega):
    split = _disintegrate(omega)
    return Disintegration(uniform_state(split.marginal.target), split.channel)


def _disintegrate_rotated_channel(omega):
    split = _disintegrate(omega)
    return Disintegration(split.marginal, _rotated(split.channel))


#: Each law message of the inversion and dagger suites, with the name in
#: ``suites`` that a fault replaces and the fault.
FAULTS = {
    "inverse does not satisfy the joint-state equation":
        ("inversion", "invert", _invert_against_uniform),
    "disintegration marginal is not the state":
        ("inversion", "disintegrate", _disintegrate_uniform_marginal),
    "disintegration channel differs on the support":
        ("inversion", "disintegrate", _disintegrate_rotated_channel),
    "inverting twice does not come back almost surely":
        ("inversion", "invert", _invert_against_uniform),
    "canonicalization is not an almost-sure idempotent":
        ("inversion", "canonicalize", _uniform_rows),
    "unique invertibility disagrees with the pushforward support":
        ("inversion", "is_uniquely_invertible_at", lambda f, pi, y: True),
    "conditional does not rebuild the joint rows":
        ("inversion", "condition", lambda s: _rotated(_condition(s))),
    "double inversion is not the identity":
        ("dagger", "dagger",
         lambda f: _ps_trusted(f.dst, f.src, _invert(f.rep, uniform_state(f.src.space)))),
    # each of these builds a morphism without canonicalize
    "inversion does not reverse composition":
        ("dagger", "ps_compose", lambda f, g: _ps_trusted(f.src, g.dst, compose(f.rep, g.rep))),
    "inversion does not fix identities":
        ("dagger", "ps_identity", lambda obj: _ps_trusted(obj, obj, identity(obj.space))),
    "inversion does not respect the product of morphisms":
        ("dagger", "ps_tensor",
         lambda a, b: _ps_trusted(
             ps_tensor(a.src, b.src), ps_tensor(a.dst, b.dst), tensor(a.rep, b.rep)
         )),
    "morphisms differing off the support are not identified":
        ("dagger", "PSMorphism", _ps_trusted),
}

#: Laws with no fault of their own, each with the reason.
EXEMPT = {
    # A disintegrate or jointify that fails to rebuild a joint state also
    # breaks "disintegration marginal is not the state" or "disintegration
    # channel differs on the support", which disintegrate jointify(pi, f),
    # and every joint state is such a jointify; no fault was found that
    # breaks this law alone.
    "jointify does not rebuild the disintegrated state",
}


@pytest.mark.parametrize("message", sorted(FAULTS))
def test_each_inversion_and_dagger_law_fails_under_its_fault(monkeypatch, message):
    suite, name, fault = FAULTS[message]
    monkeypatch.setattr(suites, name, fault)
    assert message in _messages(suite)


def _rotated_kernel_to_json(k):
    return serialize.kernel_to_json(_rotated(k))


def _model_to_json_with_a_uniform_prior(model):
    doc = serialize.model_to_json(model)
    return {**doc, "prior": serialize.state_to_map(uniform_state(model.params))}


def _training_set_to_csv_dropping_the_last(data):
    return serialize.training_set_to_csv(TrainingSet(data.pairs[:-1]))


def _lens_to_json_swapped(lens):
    return serialize.lens_to_json(LensMorphism(lens.backward, lens.forward))


def _state_to_map_rotated(st):
    return dict(zip(st.target.elements, st._texts[0][1:] + st._texts[0][:1]))


# the real writer, which the fault below wraps
_regression_data_to_csv = serialize.regression_data_to_csv


def _regression_data_to_csv_to_12_decimals(data):
    return _regression_data_to_csv(
        gauss.RegressionData(data.design.round(12), data.targets.round(12))
    )


#: Each law message of the roundtrip suite, with the fault that breaks it:
#: a type whose writer in ``suites._CODECS`` the fault replaces, or the name
#: of a function in ``serialize`` that the table's writers or the check call.
ROUNDTRIP_FAULTS = {
    "integer does not round trip": (int, str),
    "kernel does not round trip": (Kernel, _rotated_kernel_to_json),
    "model does not round trip": (Model, _model_to_json_with_a_uniform_prior),
    "training set does not round trip":
        (TrainingSet, _training_set_to_csv_dropping_the_last),
    "state-preserving morphism does not round trip":
        (PSMorphism, lambda m: serialize.ps_morphism_to_json(dagger(m))),
    "lens does not round trip": (LensMorphism, _lens_to_json_swapped),
    "product structure is lost in a round trip":
        ("space_to_json", lambda s: {"name": s.name, "elements": list(s.elements)}),
    "state map does not round trip": ("state_to_map", _state_to_map_rotated),
    "regression data does not round trip bit-exactly":
        ("regression_data_to_csv", _regression_data_to_csv_to_12_decimals),
}


@pytest.mark.parametrize("message", sorted(ROUNDTRIP_FAULTS))
def test_each_roundtrip_law_fails_under_its_fault(monkeypatch, message):
    target, fault = ROUNDTRIP_FAULTS[message]
    if isinstance(target, str):
        monkeypatch.setattr(serialize, target, fault)
    else:
        name, _, from_json = suites._CODECS[target]
        monkeypatch.setitem(suites._CODECS, target, (name, fault, from_json))
    assert message in _messages("roundtrip")


def test_every_inversion_and_dagger_law_has_a_fault():
    """Also every roundtrip law: its literal messages and the table's."""
    tree = ast.parse(inspect.getsource(suites))
    messages = {
        node.args[1].value
        for function in tree.body
        if isinstance(function, ast.FunctionDef)
        and function.name in ("_inversion_check", "_dagger_check", "_roundtrip_check")
        for node in ast.walk(function)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", None) == "_require"
        and isinstance(node.args[1], ast.Constant)
    }
    drawn = suites._roundtrip_draw(random.Random(SEED)).values()
    messages |= {
        f"{suites._CODECS[type(value)][0]} does not round trip" for value in drawn
    }
    faulted = FAULTS.keys() | ROUNDTRIP_FAULTS.keys()
    assert messages - faulted - EXEMPT == set()
    assert faulted | EXEMPT <= messages
