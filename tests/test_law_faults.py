"""Planted faults: a law fails when the route it checks is wrong.

Each test patches one production function inside the module a suite reads
it from, so that it is wrong in one realistic way, and runs a few cases of
that suite.  The report must carry that law's message: a law that still
passes with its route broken checks nothing.  The inversion and dagger
laws each have a fault in ``FAULTS``, and a test keeps every law of those
two suites covered.
"""

import ast
import inspect

import pytest

import markov_bayes.gauss as gauss
from markov_bayes import suites
from markov_bayes.conditioning import Disintegration
from markov_bayes.finstoch import (
    Kernel,
    compose,
    identity,
    tensor,
    uniform_row,
    uniform_state,
)
from markov_bayes.learning import TrainingSet
from markov_bayes.ps import _ps_trusted, ps_tensor
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


def test_every_inversion_and_dagger_law_has_a_fault():
    tree = ast.parse(inspect.getsource(suites))
    messages = {
        node.args[1].value
        for function in tree.body
        if isinstance(function, ast.FunctionDef)
        and function.name in ("_inversion_check", "_dagger_check")
        for node in ast.walk(function)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_require"
    }
    assert messages - FAULTS.keys() - EXEMPT == set()
    assert FAULTS.keys() | EXEMPT <= messages
