"""The seeded law suites themselves: registry, determinism, reporting."""

import inspect
import json
import random
from dataclasses import asdict

import pytest

from markov_bayes import Kernel, cli, suites
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
    def draw(rng):
        return {"n": rng.randrange(100)}

    def check(n):
        raise ZeroDivisionError("division by zero")

    report = suites._run("probe", 3, 5, draw, check)
    assert [f.case_seed for f in report.failures] == [case_seed(5, i) for i in range(3)]
    first = report.failures[0]
    assert first.message == "unexpected error: ZeroDivisionError('division by zero')"
    assert first.instance == {"n": random.Random(case_seed(5, 0)).randrange(100)}


def test_an_error_while_drawing_is_recorded_without_an_instance(monkeypatch):
    def broken(rng, model, count):
        raise IndexError("no label to draw")

    monkeypatch.setattr(suites, "rand_observations", broken)
    report = run_suite("coincidence", 3, 7)
    assert [f.case_seed for f in report.failures] == [case_seed(7, i) for i in range(3)]
    assert all(f.instance is None for f in report.failures)
    assert report.failures[0].message == (
        "unexpected error: IndexError('no label to draw')"
    )


@pytest.mark.parametrize("name", sorted(SUITES))
def test_failures_report_every_value_the_check_received(name):
    draw, check = SUITES[name]
    received = []

    def failing(**instance):
        received.append(instance)
        check(**instance)
        raise suites._CheckFailed("forced")

    report = suites._run(name, 3, 7, draw, failing)
    assert len(report.failures) == len(received) == 3
    for failure, checked in zip(report.failures, received):
        assert failure.message == "forced"
        json.dumps(failure.instance)
        assert set(failure.instance) == set(inspect.signature(check).parameters)
        for key, value in checked.items():
            back = suites._CODECS[type(value)][2](failure.instance[key])
            assert back == value, (name, key)


@pytest.mark.parametrize("error", [AttributeError, ValueError])
def test_a_record_that_cannot_be_written_is_still_a_law_violation(
    monkeypatch, capsys, error
):
    name, to_json, from_json = suites._CODECS[Kernel]

    def writer(k):
        if len(k.target) > 2:
            raise error("cannot write this kernel")
        return to_json(k)

    monkeypatch.setitem(suites._CODECS, Kernel, (name, writer, from_json))
    argv = ["check", "--suite", "roundtrip", "--cases", "3", "--seed", "7"]
    assert cli.main(argv) == 3
    failures = json.loads(capsys.readouterr().err)["failures"]
    assert failures
    for failure in failures:
        assert failure["instance"] is None
        assert failure["message"].endswith(
            f"; writing the instance failed: {error.__name__}('cannot write this kernel')"
        )
