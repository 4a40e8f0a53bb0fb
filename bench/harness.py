"""The benchmark's op loops and the metrics they report."""

from __future__ import annotations

import contextlib
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy
import scipy

import markov_bayes
from markov_bayes.learning import joint_channel
from tracer import MODULES, Tracer
from workloads import OK, WORKLOADS, WRONG, run_op

#: The source tree the package was imported from, and the checkout around it.
SRC = Path(markov_bayes.__file__).resolve().parent.parent
ROOT = SRC.parent
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"

#: Seconds one cycle of each workload took on a 2-core x86-64 box when the
#: benchmark was written.  A run executes round(--seconds / this) whole
#: cycles, so every commit runs the same ops and medians and tails compare
#: like with like.
NOMINAL_CYCLE_S = {"learn-seq": 2.45, "learn-batch": 3.9, "check": 0.35, "gauss": 0.94}

#: Cycles in the fixed op set of a traced run.  The set is replayed in
#: traced/untraced pairs until --seconds of op time have passed.
TRACE_CYCLES = {"learn-seq": 1, "learn-batch": 1, "check": 5, "gauss": 2}

SETUP_REPEATS = 5

#: What one item is, per workload, for ``items_per_s``.
ITEM = {"learn-seq": "obs", "learn-batch": "obs", "check": "cases", "gauss": "rows"}

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}

#: Functions reported with ``.calls`` and ``.self_s``.
TRACED_FUNCTIONS = (
    "finstoch.kernel_init", "finstoch.compose", "finstoch.tensor", "finstoch.structural",
    "conditioning.invert", "conditioning.is_uniquely_invertible_at",
    "learning.joint_channel", "learning.sequential_update",
    "learning.batch_update_literal", "learning.batch_update_factorized",
    "learning.output_marginal_mismatch",
    "serialize.model_from_json", "serialize.training_set_from_csv",
    "serialize.state_to_map", "serialize.trace_to_json",
    "serialize.regression_data_from_csv",
    "gauss.fit_posterior", "gauss.gauss_sequential", "gauss.gauss_batch",
    "gauss.predictive_density",
    "ps.dagger", "ps.ps_compose", "ps.ps_tensor",
    "paralens.bayes_learn", "paralens.para_lens_compose",
)

PER_LAYER_EXTRA = {
    "learning.joint_channel.hits": "count",
    "learning.joint_channel.hit_ratio": "ratio",
    "learning.seq_step_s": "s",
    "learning.posterior_den_bits_max": "bits",
    "serialize.bytes_out": "bytes",
    "gauss.seq_batch_max_abs_diff": "abs",
    "suites.cases_failed": "count",
    "cli.exit_1": "count",
    "cli.exit_2": "count",
    "cli.exit_3": "count",
    "cli.warnings": "count",
    "trace.overhead_ratio": "ratio",
    "trace.spans": "count",
}


def per_layer_units() -> dict:
    units = {}
    for name in TRACED_FUNCTIONS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for module in MODULES:
        units[f"{module}.calls"] = "count"
        units[f"{module}.self_s"] = "s"
    units.update(PER_LAYER_EXTRA)
    return units


class Tally:
    """Verdicts, exit codes, error types and op details of a sequence of ops."""

    def __init__(self):
        self.latencies: list[float] = []
        self.items_ok = 0
        self.verdicts = Counter()
        self.exits = Counter()
        self.errors = Counter()
        self.warnings = 0
        self.bytes_out = 0
        self.cases_failed = 0
        self.seq_batch_diff = 0.0

    def add(self, op, calls, latency: float, verdict: str, detail: dict) -> None:
        self.latencies.append(latency)
        self.verdicts[verdict] += 1
        if verdict == OK:
            self.items_ok += detail.get("items", op.items)
        for call in calls:
            self.exits["exception" if call.exc else str(call.rc)] += 1
            kind = call.error_type()
            if kind is not None:
                self.errors[kind] += 1
            self.warnings += sum('"warning"' in line for line in call.err.splitlines())
            self.bytes_out += len(call.out.encode("utf-8"))
        self.cases_failed += detail.get("cases_failed", 0)
        self.seq_batch_diff = max(self.seq_batch_diff, detail.get("seq_batch_max_abs_diff", 0.0))

    @property
    def attempted(self) -> int:
        return sum(self.verdicts.values())

    @property
    def failed(self) -> int:
        return self.attempted - self.verdicts[OK]

    @property
    def correct(self) -> bool:
        return self.verdicts[WRONG] == 0


def execute(wl, op, tally: Tally, tracer=None) -> float:
    """Run one op (timed), then judge it and tally the verdict (untimed)."""
    if tracer is not None:
        tracer.begin_op(op.index)
    t0 = time.perf_counter()
    calls = run_op(op)
    latency = time.perf_counter() - t0
    if tracer is not None:
        tracer.end_op()
    verdict, detail = wl.judge(op, calls)
    tally.add(op, calls, latency, verdict, detail)
    return latency


def setup(wl, seed: int, workdir: Path) -> tuple[list, list[float]]:
    """Import the package in a fresh process, then generate and write the
    first cycle's inputs; repeated, so the median is steady."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import markov_bayes.cli"],
                       env=env, cwd=ROOT, check=True)
        ops = [wl.make_op(seed, i, workdir) for i in range(wl.cycle)]
        times.append(time.perf_counter() - t0)
    return ops, times


def tail(latencies: list[float]) -> dict:
    """Latency at the highest percentile with at least ten samples beyond
    it; the maximum when that percentile would fall below p75."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = n - 11
    if k < 0 or (k + 1) / n < 0.75:
        k = n - 1
    return {"value": ordered[k], "percentile": round(100 * (k + 1) / n, 2),
            "samples": n, "beyond": n - 1 - k}


def run_untraced(wl, seed: int, seconds: int, workdir: Path, first_ops: list):
    cycles = max(1, round(seconds / NOMINAL_CYCLE_S[wl.name]))
    tally = Tally()
    for i in range(cycles * wl.cycle):
        op = first_ops[i] if i < len(first_ops) else wl.make_op(seed, i, workdir)
        execute(wl, op, tally)
        op.remove_files()
    return tally, cycles


def run_traced(wl, seed: int, seconds: int, workdir: Path, first_ops: list):
    ops = list(first_ops) + [
        wl.make_op(seed, i, workdir)
        for i in range(len(first_ops), TRACE_CYCLES[wl.name] * wl.cycle)
    ]
    tracer = Tracer()
    first = None
    self_ns, total_ns = Counter(), Counter()
    traced_s = untraced_s = 0.0
    passes = 0
    while passes == 0 or traced_s + untraced_s < seconds:
        tracer.reset()
        tracer.install()
        joint_channel.cache_clear()
        tally = Tally()
        traced_s += sum(execute(wl, op, tally, tracer) for op in ops)
        tracer.uninstall()
        summary = tracer.summary()
        self_ns.update(summary["self_ns"])
        total_ns.update(summary["total_ns"])
        if first is None:
            first = (tally, summary, tracer.joint_channel_hits, tracer.den_bits_max)
        joint_channel.cache_clear()
        untraced_s += sum(execute(wl, op, Tally()) for op in ops)
        passes += 1
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{wl.name}-seed{seed}.jsonl")
    for op in ops:
        op.remove_files()
    tally, summary, hits, den_bits = first
    return tally, per_layer_metrics(wl, ops, tally, summary["calls"], self_ns, total_ns,
                                    passes, hits, den_bits, traced_s / untraced_s)


def per_layer_metrics(wl, ops, tally, calls, self_ns, total_ns, passes, hits, den_bits,
                      overhead):
    """Counts from the first traced pass; times as means per traced pass."""
    values = {}
    for name in TRACED_FUNCTIONS:
        values[f"{name}.calls"] = calls[name]
        values[f"{name}.self_s"] = self_ns[name] / passes / 1e9
    for module in MODULES:
        names = [n for n in calls if n.split(".")[0] == module]
        values[f"{module}.calls"] = sum(calls[n] for n in names)
        values[f"{module}.self_s"] = sum(self_ns[n] for n in names) / passes / 1e9
    jc_calls = calls["learning.joint_channel"]
    seq_obs = sum(op.items for op in ops) if wl.name == "learn-seq" else 0
    values.update({
        "learning.joint_channel.hits": hits,
        "learning.joint_channel.hit_ratio": hits / jc_calls if jc_calls else 0.0,
        "learning.seq_step_s": (total_ns["learning.sequential_update"] / passes / seq_obs / 1e9
                                if seq_obs else 0.0),
        "learning.posterior_den_bits_max": den_bits,
        "serialize.bytes_out": tally.bytes_out,
        "gauss.seq_batch_max_abs_diff": tally.seq_batch_diff,
        "suites.cases_failed": tally.cases_failed,
        "cli.exit_1": tally.exits["1"],
        "cli.exit_2": tally.exits["2"],
        "cli.exit_3": tally.exits["3"],
        "cli.warnings": tally.warnings,
        "trace.overhead_ratio": overhead,
        "trace.spans": sum(calls.values()),
    })
    units = per_layer_units()
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def end_to_end_metrics(wl, tally: Tally, setup_times: list[float]) -> tuple[dict, dict]:
    op_time = sum(tally.latencies)
    op_tail = tail(tally.latencies)
    values = {
        "setup_s": statistics.median(setup_times),
        "items_per_s": tally.items_ok / op_time,
        "op_p50_s": statistics.median(tally.latencies),
        "op_tail_s": op_tail["value"],
        "ok_ratio": (tally.attempted - tally.failed) / tally.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    named = {f"{ITEM[wl.name]}_per_s": {"value": values["items_per_s"], "unit": "1/s"},
             "fail_ratio": {"value": tally.failed / tally.attempted, "unit": "ratio"}}
    return metrics, {"named": named, "op_tail": op_tail, "op_time_s": op_time,
                     "op_latencies_s": tally.latencies}


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "int_max_str_digits": sys.get_int_max_str_digits(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def run(workload: str, seed: int, seconds: int, traced: bool) -> tuple[dict, dict]:
    """One benchmark run: the result object and the detail object."""
    wl = WORKLOADS[workload]
    workdir = WORK / f"{wl.name}-seed{seed}-{os.getpid()}"
    try:
        first_ops, setup_times = setup(wl, seed, workdir)
        if traced:
            tally, metrics = run_traced(wl, seed, seconds, workdir, first_ops)
            detail = {}
        else:
            tally, cycles = run_untraced(wl, seed, seconds, workdir, first_ops)
            metrics, detail = end_to_end_metrics(wl, tally, setup_times)
            detail["cycles"] = cycles
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still be using it
            WORK.rmdir()
    detail.update({
        "workload": wl.name,
        "seed": seed,
        "trace": int(traced),
        "environment": environment(),
        "verdicts": dict(tally.verdicts),
        "exit_codes": dict(tally.exits),
        "error_types": dict(tally.errors),
    })
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    return result, detail
