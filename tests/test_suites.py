"""The seeded law suites themselves: registry, determinism, reporting."""

import random
from dataclasses import asdict

import pytest

from markov_bayes import suites
from markov_bayes.serialize import kernel_to_json
from markov_bayes.suites import SUITES, case_seed, run_suite


def test_registry_names():
    assert set(SUITES) == {
        "markov",
        "inversion",
        "dagger",
        "functor",
        "coincidence",
        "zn",
        "roundtrip",
        "gauss",
    }


@pytest.mark.parametrize("name", sorted(SUITES))
def test_every_suite_runs_clean_on_a_small_budget(name):
    report = run_suite(name, 25, 11)
    assert report.ok
    assert (report.suite, report.cases, report.seed) == (name, 25, 11)
    assert report.failures == []


def test_reports_are_deterministic():
    a = run_suite("markov", 10, 42)
    b = run_suite("markov", 10, 42)
    assert asdict(a) == asdict(b)


def test_case_seed_is_an_injective_stride():
    assert case_seed(7, 0) == 7 * 1_000_003
    assert case_seed(7, 25) == 7 * 1_000_003 + 25
    seen = {case_seed(s, i) for s in range(5) for i in range(1000)}
    assert len(seen) == 5000


def test_unknown_suite_name():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("nonsense", 5, 1)


def test_any_error_in_a_case_is_recorded_with_its_seed():
    def body(rng):
        raise ZeroDivisionError("division by zero")

    report = suites._run("probe", 3, 5, body, lambda rng: {"draw": rng.random()})
    assert [f.case_seed for f in report.failures] == [case_seed(5, i) for i in range(3)]
    first = report.failures[0]
    assert first.message == "unexpected error: ZeroDivisionError('division by zero')"
    assert first.instance == {"draw": random.Random(case_seed(5, 0)).random()}


def test_markov_failures_describe_the_checked_kernel(monkeypatch):
    drawn = []
    original = suites.rand_kernel

    def recording(*args, **kwargs):
        drawn.append(original(*args, **kwargs))
        return drawn[-1]

    monkeypatch.setattr(suites, "rand_kernel", recording)
    for index in range(200):
        cs = case_seed(7, index)
        drawn.clear()
        suites._markov_case(random.Random(cs))
        checked_f = drawn[0]
        described = suites._markov_describe(random.Random(cs))
        assert described["f"] == kernel_to_json(checked_f), f"case seed {cs}"
