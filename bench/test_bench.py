"""Tests of the benchmark itself: inputs, oracles and tracing.

    python3 -m pytest bench
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import harness
import workloads
from markov_bayes import finstoch, learning
from markov_bayes.learning import batch_update_factorized, joint_channel
from markov_bayes.serialize import model_from_json, training_set_from_csv
from tracer import Tracer
from workloads import DISAGREE, OK, WORKLOADS, WRONG, Call, run_op

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _files(workdir: Path) -> dict:
    return {p.name: p.read_bytes() for p in workdir.iterdir()}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_deterministic_for_a_seed(name, tmp_path):
    wl = WORKLOADS[name]
    dirs = [tmp_path / d for d in ("a", "b", "c")]
    for d in dirs:
        d.mkdir()
    same, again, other = (wl.make_op(seed, 1, d) for seed, d in zip((5, 5, 6), dirs))
    assert same.ref == again.ref and _files(dirs[0]) == _files(dirs[1])
    assert other.ref != same.ref


def test_every_op_gets_its_own_model(tmp_path):
    wl = WORKLOADS["learn-seq"]
    bundles = {
        wl.make_op(3, i, tmp_path).files[0].read_text() for i in range(2 * wl.cycle)
    }
    assert len(bundles) == 2 * wl.cycle


def test_closed_form_reference_is_the_factorized_batch_posterior():
    shape = workloads.LearnShape(6, 3, 2, (40,), "batch")
    bundle, csv, weights, pairs = workloads.make_learn_inputs(shape, random.Random(1), 40)
    want = batch_update_factorized(model_from_json(bundle), training_set_from_csv(csv))
    assert workloads.reference_posterior(weights, pairs) == list(want.probs)


def test_parse_fraction_reads_past_the_int_str_digit_limit():
    big = 7**12000
    assert workloads.parse_fraction(_digits(big) + "/3") == Fraction(big, 3)


def _digits(n: int) -> str:
    """Decimal digits of ``n`` without ``str(int)``, which the limit forbids."""
    out = []
    while n:
        n, r = divmod(n, 10**1000)
        out.append(f"{r:01000d}" if n else f"{r:d}")
    return "".join(reversed(out))


@pytest.fixture
def small_learn(tmp_path):
    wl = workloads.LearnWorkload(
        "learn-seq", workloads.LearnShape(4, 2, 3, (12,), "seq")
    )
    op = wl.make_op(1, 0, tmp_path)
    return wl, op


def test_learn_oracle_accepts_the_program_and_rejects_a_perturbed_posterior(small_learn):
    wl, op = small_learn
    calls = run_op(op)
    assert wl.judge(op, calls) == (OK, {})
    doc = json.loads(calls[0].out)
    post = doc["posterior"]
    first, second = next((a, b) for a in post for b in post if post[a] != post[b])
    post[first], post[second] = post[second], post[first]
    doc["trace"][-1] = post
    forged = Call(calls[0].argv, 0, json.dumps(doc), calls[0].err)
    assert wl.judge(op, [forged])[0] == WRONG


def _posterior_out(mean, cov) -> str:
    return json.dumps({"posterior": {"mean": list(mean), "cov": [list(r) for r in cov]},
                       "map": list(mean)})


def test_gauss_oracle_rejects_a_silent_disagreement(tmp_path):
    wl = WORKLOADS["gauss"]
    op = wl.make_op(1, 0, tmp_path)
    calls = run_op(op)
    verdict, detail = wl.judge(op, calls)
    assert verdict == OK and detail["seq_batch_max_abs_diff"] < 1e-6
    assert detail["items"] == workloads.GAUSS_ROWS

    seq = json.loads(calls[1].out)["posterior"]
    shifted = np.asarray(seq["mean"]) + 1e-3
    forged = Call(calls[1].argv, 0, _posterior_out(shifted, seq["cov"]))
    assert wl.judge(op, [calls[0], forged, *calls[2:]])[0] == DISAGREE


REFUSAL = '{"error": "validation", "type": "RankDeficient", "message": "m"}\n'


def test_gauss_oracle_accepts_a_loud_refusal_only_on_a_collinear_design(tmp_path):
    wl = WORKLOADS["gauss"]
    ops = {i: wl.make_op(1, i, tmp_path) for i in (0, 3)}
    assert not ops[0].ref["collinear"] and ops[3].ref["collinear"]
    for i, op in ops.items():
        refused = [Call(argv, 1, "", REFUSAL) for argv, _ in op.steps[:3]]
        verdict, detail = wl.judge(op, refused)
        if i == 0:
            assert verdict == workloads.REFUSED
        else:
            tally = harness.Tally()
            tally.add(op, refused, 0.1, verdict, detail)
            assert verdict == OK and tally.items_ok == 0
    other = [Call(argv, 1, "", REFUSAL.replace("RankDeficient", "ValueError"))
             for argv, _ in ops[3].steps[:3]]
    assert wl.judge(ops[3], other)[0] == workloads.REFUSED


def test_check_oracle_flags_a_law_violation(tmp_path):
    wl = WORKLOADS["check"]
    op = wl.make_op(1, 7, tmp_path)
    calls = run_op(op)
    assert [c.argv[2] for c in calls] == list(workloads.CHECK_CASES)
    assert wl.judge(op, calls)[0] == OK
    report = dict(json.loads(calls[0].out), ok=False, failures=2)
    violated = [Call(calls[0].argv, 3, json.dumps(report)), *calls[1:]]
    verdict, detail = wl.judge(op, violated)
    assert verdict == WRONG and detail == {"cases_failed": 2}
    assert wl.judge(op, calls[:-1])[0] == WRONG


@pytest.fixture
def traced_learn_seq(tmp_path):
    """The first learn-seq op (n=25), run once under the tracer."""
    wl = WORKLOADS["learn-seq"]
    op = wl.make_op(9, 0, tmp_path)
    tracer = Tracer()
    tracer.install()
    try:
        joint_channel.cache_clear()
        harness.execute(wl, op, harness.Tally(), tracer)
    finally:
        tracer.uninstall()
    return op, tracer


def test_learn_seq_op_records_one_invert_per_observation(traced_learn_seq):
    op, tracer = traced_learn_seq
    assert op.items == 25
    assert tracer.summary()["calls"]["conditioning.invert"] == 25


def test_self_times_sum_to_each_op_wall_time(traced_learn_seq):
    _, tracer = traced_learn_seq
    summary = tracer.summary()
    assert summary["op_total_ns"]
    assert summary["op_self_ns"] == summary["op_total_ns"]


def test_uninstall_restores_every_binding():
    compose, kernel_init = finstoch.compose, finstoch.Kernel.__init__
    tracer = Tracer()
    tracer.install()
    assert learning.compose is not compose
    tracer.uninstall()
    assert learning.compose is compose and finstoch.compose is compose
    assert finstoch.Kernel.__init__ is kernel_init


def test_benchmark_json_lists_the_metrics_the_harness_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_run_fails_without_the_package_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "check", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
