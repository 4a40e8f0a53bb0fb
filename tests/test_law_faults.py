"""Planted faults: a law of the seq = batch claim fails when its route is wrong.

Each test patches one production function inside the module a suite reads
it from, so that it is wrong in one realistic way, and runs a few cases of
that suite.  The report must carry that law's message: a law that still
passes with its route broken checks nothing.
"""

import markov_bayes.gauss as gauss
from markov_bayes import suites
from markov_bayes.learning import TrainingSet
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
