"""Seeded inputs, ops and correctness oracles for the four workloads.

A workload is an endless sequence of ops.  Op ``i`` is built from the
workload seed and ``i`` alone, so one seed always gives the same inputs, and
every op gets its own model (the in-process ``joint_channel`` cache then
behaves as it does in a fresh ``markov-bayes`` process).  An op runs one or
more ``markov-bayes`` commands in-process through ``cli.main``; its verdict
comes afterwards from an oracle that does not share the program's route to
the answer it checks.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from markov_bayes import cli

#: Verdicts.  ``wrong`` is a wrong exact answer, a law violation or a
#: malformed output, and makes the whole run incorrect; the others are
#: failures counted in ``failed``.
OK, REFUSED, CRASH, DISAGREE, WRONG = "ok", "refused", "crash", "disagree", "wrong"
DOCUMENTED_EXITS = (0, 1, 2, 3)

#: Gaussian posteriors from fit, sequential and batch updates must agree to
#: this share of their scale (1 + max |mean|, max |cov|); predictions must
#: match the batch posterior to PREDICT_RTOL.
GAUSS_RTOL = 1e-6
PREDICT_RTOL = 1e-9


@dataclass
class Call:
    """One ``cli.main`` invocation and what it left behind."""

    argv: list[str]
    rc: int | None = None
    out: str = ""
    err: str = ""
    exc: str | None = None

    def error_type(self) -> str | None:
        if self.exc is not None:
            return self.exc
        if self.rc == 0:
            return None
        for line in self.err.splitlines():
            try:
                doc = json.loads(line)
            except ValueError:
                continue
            if isinstance(doc, dict) and "error" in doc:
                return str(doc.get("type"))
        return "unreported"


@dataclass
class Op:
    """The inputs of one op: command steps plus what its oracle needs."""

    index: int
    items: int
    steps: list[tuple[list[str], Path | None]]
    ref: dict
    files: list[Path] = field(default_factory=list)

    def remove_files(self) -> None:
        for path in self.files:
            path.unlink(missing_ok=True)


def invoke(argv: list[str]) -> Call:
    """Run ``markov-bayes <argv>`` in-process, capturing both streams."""
    call = Call(argv)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            call.rc = cli.main(argv)
        except Exception as e:  # an escaped exception is a crash, not a harness error
            call.exc = type(e).__name__
    call.out, call.err = out.getvalue(), err.getvalue()
    return call


def run_op(op: Op) -> list[Call]:
    """Run an op's steps in order; a step whose output a later step reads
    (``save_as``) ends the op when it fails, as a shell pipeline would."""
    calls = []
    for argv, save_as in op.steps:
        call = invoke(argv)
        calls.append(call)
        if save_as is not None:
            if call.rc != 0:
                break
            save_as.write_text(call.out, encoding="utf-8")
    return calls


def _exit_verdict(call: Call) -> str:
    if call.exc is not None or call.rc not in DOCUMENTED_EXITS:
        return CRASH
    return REFUSED


def parse_fraction(text: str) -> Fraction:
    """``"p/q"`` to a Fraction without ``int(str)``'s digit limit.

    The oracle must read whatever exact output the program manages to
    print; the limit stays in force for the program itself.
    """
    num, _, den = text.partition("/")
    return Fraction(_parse_int(num.strip()), _parse_int(den.strip() or "1"))


def _parse_int(digits: str) -> int:
    if len(digits) <= 4000:
        return int(digits)
    sign = -1 if digits.startswith("-") else 1
    digits = digits.lstrip("+-")
    half = len(digits) // 2
    return sign * (_parse_int(digits[:half]) * 10 ** (len(digits) - half)
                   + _parse_int(digits[half:]))


# --- finite learning ------------------------------------------------------

#: Channel, prior and input weights are drawn from 1..WEIGHT_MAX, so every
#: row has full support.  With 4 the 50x5x5 posterior denominator grows by
#: about 9.5 bits per observation: n=800 prints (about 2,300 digits) and
#: n=2000 runs into the 4,300-digit int->str limit.
WEIGHT_MAX = 4


@dataclass(frozen=True)
class LearnShape:
    params: int
    inputs: int
    outputs: int
    sizes: tuple[int, ...]
    mode: str


LEARN_SEQ = LearnShape(20, 4, 4, (25, 50, 100), "seq")
LEARN_BATCH = LearnShape(50, 5, 5, (200, 800, 2000), "batch")


def _weights(rng: random.Random, k: int) -> list[int]:
    return [rng.randint(1, WEIGHT_MAX) for _ in range(k)]


def _label_map(labels: list[str], weights: list[int]) -> dict:
    total = sum(weights)
    return {lab: f"{w}/{total}" for lab, w in zip(labels, weights)}


def make_learn_inputs(shape: LearnShape, rng: random.Random, n: int):
    """A model bundle, its integer weights and ``n`` observations drawn from
    the model at one parameter drawn from the prior."""
    ms = [f"m{i}" for i in range(shape.params)]
    xs = [f"x{i}" for i in range(shape.inputs)]
    ys = [f"y{i}" for i in range(shape.outputs)]
    prior = _weights(rng, len(ms))
    input_w = _weights(rng, len(xs))
    channel = [_weights(rng, len(ys)) for _ in range(len(ms) * len(xs))]
    bundle = {
        "params": {"name": "M", "elements": ms},
        "prior": _label_map(ms, prior),
        "input": {"name": "X", "elements": xs},
        "input_state": _label_map(xs, input_w),
        "output": {"name": "Y", "elements": ys},
        "channel": [
            [f"{w}/{sum(row)}" for w in row] for row in channel
        ],
    }
    truth = rng.choices(range(len(ms)), weights=prior)[0]
    pairs = []
    for _ in range(n):
        x = rng.choices(range(len(xs)), weights=input_w)[0]
        y = rng.choices(range(len(ys)), weights=channel[truth * len(xs) + x])[0]
        pairs.append((x, y))
    csv = "x,y\n" + "".join(f"{xs[x]},{ys[y]}\n" for x, y in pairs)
    weights = {"prior": prior, "channel": channel, "inputs": len(xs)}
    return bundle, csv, weights, pairs


def reference_posterior(weights: dict, pairs: list[tuple[int, int]]) -> list[Fraction]:
    """The batch posterior in closed form, from the generator's weights.

    ``posterior(m) ∝ prior(m) * prod_(x,y) channel(m, x)(y) ** count(x, y)``;
    the input-state factor is common to every ``m`` and cancels.  This is
    what ``batch_update_factorized`` computes, derived independently.
    """
    counts = Counter(pairs)
    nx = weights["inputs"]
    rows = weights["channel"]
    post = []
    for m, p in enumerate(weights["prior"]):
        w = Fraction(p)
        for (x, y), c in counts.items():
            row = rows[m * nx + x]
            w *= Fraction(row[y], sum(row)) ** c
        post.append(w)
    total = sum(post)
    return [w / total for w in post]


class LearnWorkload:
    """``learn --mode seq|batch`` on a fresh seeded bundle per op."""

    def __init__(self, name: str, shape: LearnShape):
        self.name = name
        self.shape = shape
        self.cycle = len(shape.sizes)

    def make_op(self, seed: int, i: int, workdir: Path) -> Op:
        n = self.shape.sizes[i % self.cycle]
        rng = random.Random(f"{self.name}:{seed}:{i}")
        bundle, csv, weights, pairs = make_learn_inputs(self.shape, rng, n)
        bundle_path = workdir / f"op{i}-bundle.json"
        csv_path = workdir / f"op{i}-train.csv"
        bundle_path.write_text(json.dumps(bundle), encoding="utf-8")
        csv_path.write_text(csv, encoding="utf-8")
        argv = ["learn", str(bundle_path), str(csv_path), "--mode", self.shape.mode]
        ref = {
            "n": n,
            "labels": bundle["params"]["elements"],
            "prior": bundle["prior"],
            "weights": weights,
            "pairs": pairs,
        }
        return Op(i, n, [(argv, None)], ref, [bundle_path, csv_path])

    def judge(self, op: Op, calls: list[Call]) -> tuple[str, dict]:
        call = calls[0]
        if call.rc != 0:
            return _exit_verdict(call), {}
        ref = op.ref
        try:
            doc = json.loads(call.out)
            post = doc["posterior"]
            if set(post) != set(ref["labels"]):
                return WRONG, {}
            got = [parse_fraction(post[lab]) for lab in ref["labels"]]
            if self.shape.mode == "seq":
                trace = doc["trace"]
                if len(trace) != ref["n"] + 1 or trace[-1] != post:
                    return WRONG, {}
                if any(parse_fraction(trace[0][lab]) != parse_fraction(ref["prior"][lab])
                       for lab in ref["labels"]):
                    return WRONG, {}
        except (ValueError, KeyError, TypeError, AttributeError):
            return WRONG, {}
        if got != reference_posterior(ref["weights"], ref["pairs"]):
            return WRONG, {}
        return OK, {}


# --- law suites -----------------------------------------------------------

#: Cases per suite in one ``check`` op: the acceptance budgets scaled by
#: 1/100, so every op runs every suite in the acceptance proportions and all
#: ops cost alike.
CHECK_CASES = {
    "coincidence": 10,
    "inversion": 10,
    "dagger": 10,
    "markov": 10,
    "functor": 5,
    "zn": 3,
    "gauss": 1,
    "roundtrip": 1,
}


class CheckWorkload:
    """One ``check --suite S --cases K`` chunk of every suite per op."""

    name = "check"
    cycle = 1

    def make_op(self, seed: int, i: int, workdir: Path) -> Op:
        op_seed = random.Random(f"check:{seed}:{i}").randrange(2**31)
        steps = [
            (["check", "--suite", suite, "--cases", str(cases), "--seed", str(op_seed)], None)
            for suite, cases in CHECK_CASES.items()
        ]
        return Op(i, sum(CHECK_CASES.values()), steps, {"seed": op_seed})

    def judge(self, op: Op, calls: list[Call]) -> tuple[str, dict]:
        """Every suite exits 0 with exactly the ``ok`` summary; a law
        violation (exit 3) or a malformed summary is wrong."""
        verdicts, failed = [], 0
        for call, (suite, cases) in zip(calls, CHECK_CASES.items()):
            try:
                doc = json.loads(call.out) if call.out else None
            except ValueError:
                doc = None
            if isinstance(doc, dict) and isinstance(doc.get("failures"), int):
                failed += doc["failures"]
            if call.rc == 3:
                verdicts.append(WRONG)
            elif call.rc != 0:
                verdicts.append(_exit_verdict(call))
            else:
                want = {"suite": suite, "cases": cases, "seed": op.ref["seed"],
                        "ok": True, "failures": 0}
                verdicts.append(OK if doc == want else WRONG)
        if len(calls) != len(CHECK_CASES):
            verdicts.append(WRONG)
        detail = {"cases_failed": failed}
        for verdict in (WRONG, CRASH, REFUSED):
            if verdict in verdicts:
                return verdict, detail
        return OK, detail


# --- Gaussian regression --------------------------------------------------

GAUSS_DIM = 8
GAUSS_ROWS = 5000
GAUSS_SIGMA = 0.5
#: Prior covariance scale of the vague prior the updates start from.
GAUSS_PRIOR_VAR = 1e8
#: Noise separating the two near-collinear columns.
COLLINEAR_NOISE = 1e-6


def make_regression_csv(rng: np.random.Generator, collinear: bool) -> str:
    x = rng.uniform(-1.0, 1.0, (GAUSS_ROWS, GAUSS_DIM))
    if collinear:
        x[:, -1] = x[:, -2] + COLLINEAR_NOISE * rng.standard_normal(GAUSS_ROWS)
    w = rng.uniform(-2.0, 2.0, GAUSS_DIM)
    y = x @ w + GAUSS_SIGMA * rng.standard_normal(GAUSS_ROWS)
    head = ",".join([f"x{j + 1}" for j in range(GAUSS_DIM)] + ["y"])
    body = "".join(
        ",".join(map(repr, row)) + f",{t!r}\n" for row, t in zip(x.tolist(), y.tolist())
    )
    return head + "\n" + body


def write_vague_prior(path: Path) -> None:
    doc = {
        "mean": [0.0] * GAUSS_DIM,
        "cov": (GAUSS_PRIOR_VAR * np.eye(GAUSS_DIM)).tolist(),
    }
    path.write_text(json.dumps(doc), encoding="utf-8")


class GaussWorkload:
    """fit, update --mode seq, update --mode batch, predict on 5000x8 rows;
    every fourth op has two near-collinear columns."""

    name = "gauss"
    cycle = 4
    #: Ops reuse this many data sets in turn (the backend has no cache), which
    #: keeps generation out of the way of the ops.
    datasets = 8

    def make_op(self, seed: int, i: int, workdir: Path) -> Op:
        slot = i % self.datasets
        collinear = slot % self.cycle == self.cycle - 1
        csv_path = workdir / f"reg{slot}.csv"
        post_path = workdir / f"op{i}-post.json"
        prior_path = workdir / "vague-prior.json"
        if not prior_path.exists():
            write_vague_prior(prior_path)
        if not csv_path.exists():
            rng = np.random.default_rng(random.Random(f"gauss:{seed}:{slot}").randrange(2**63))
            csv_path.write_text(make_regression_csv(rng, collinear), encoding="utf-8")
        rng = random.Random(f"gauss-point:{seed}:{i}")
        x_star = [rng.uniform(-1.0, 1.0) for _ in range(GAUSS_DIM)]
        sigma = repr(GAUSS_SIGMA)
        steps = [
            (["gauss", "fit", str(csv_path), "--sigma", sigma], None),
            (["gauss", "update", str(prior_path), str(csv_path), "--sigma", sigma,
              "--mode", "seq"], None),
            (["gauss", "update", str(prior_path), str(csv_path), "--sigma", sigma,
              "--mode", "batch"], post_path),
            # "--" keeps a point with a negative first coordinate positional
            (["gauss", "predict", "--sigma", sigma, str(post_path), "--",
              ",".join(map(repr, x_star))], None),
        ]
        ref = {"x_star": x_star, "collinear": collinear}
        return Op(i, GAUSS_ROWS, steps, ref, [post_path])

    def judge(self, op: Op, calls: list[Call]) -> tuple[str, dict]:
        """Every step succeeds, or on a near-collinear design refuses loudly
        (exit 1, RankDeficient); the posteriors that exist agree; the
        prediction matches batch.  Rows count only when a posterior exists."""
        posts = {}
        for call, name in zip(calls, ("fit", "seq", "batch", "predict")):
            if call.rc == 0:
                if name != "predict":
                    try:
                        doc = json.loads(call.out)
                        mean = np.asarray(doc["posterior"]["mean"], dtype=float)
                        cov = np.asarray(doc["posterior"]["cov"], dtype=float)
                        if mean.shape != (GAUSS_DIM,) or cov.shape != (GAUSS_DIM, GAUSS_DIM):
                            return WRONG, {}
                        if doc["map"] != doc["posterior"]["mean"]:
                            return WRONG, {}
                    except (ValueError, KeyError, TypeError):
                        return WRONG, {}
                    posts[name] = (mean, cov)
            elif not (op.ref["collinear"] and call.rc == 1
                      and call.error_type() == "RankDeficient"):
                return _exit_verdict(call), {}
        if "batch" in posts:
            if len(calls) < 4 or calls[3].rc != 0:
                return (WRONG if len(calls) < 4 else _exit_verdict(calls[3])), {}
            verdict = self._judge_prediction(calls[3], posts["batch"], op.ref["x_star"])
            if verdict != OK:
                return verdict, {}
        detail = {"items": GAUSS_ROWS if posts else 0}
        if "seq" in posts and "batch" in posts:
            (ms, cs), (mb, cb) = posts["seq"], posts["batch"]
            detail["seq_batch_max_abs_diff"] = float(
                max(np.max(np.abs(ms - mb)), np.max(np.abs(cs - cb)))
            )
        names = list(posts)
        for a in range(len(names)):
            for b in range(a + 1, len(names)):
                if not _agree(posts[names[a]], posts[names[b]]):
                    return DISAGREE, detail
        return OK, detail

    @staticmethod
    def _judge_prediction(call: Call, post, x_star) -> str:
        try:
            doc = json.loads(call.out)
            got_mean, got_var = float(doc["mean"]), float(doc["variance"])
        except (ValueError, KeyError, TypeError):
            return WRONG
        mean, cov = post
        x = np.asarray(x_star)
        want_mean = float(x @ mean)
        want_var = float(x @ cov @ x) + GAUSS_SIGMA**2
        scale_mean = float(np.abs(x) @ np.abs(mean)) + 1.0
        if not (math.isclose(got_var, want_var, rel_tol=PREDICT_RTOL)
                and abs(got_mean - want_mean) <= PREDICT_RTOL * scale_mean):
            return WRONG
        return OK


def _agree(a, b) -> bool:
    (ma, ca), (mb, cb) = a, b
    mean_scale = 1.0 + max(np.max(np.abs(ma)), np.max(np.abs(mb)))
    cov_scale = max(np.max(np.abs(ca)), np.max(np.abs(cb)))
    return bool(
        np.max(np.abs(ma - mb)) <= GAUSS_RTOL * mean_scale
        and np.max(np.abs(ca - cb)) <= GAUSS_RTOL * cov_scale
    )


WORKLOADS = {
    "learn-seq": LearnWorkload("learn-seq", LEARN_SEQ),
    "learn-batch": LearnWorkload("learn-batch", LEARN_BATCH),
    "check": CheckWorkload(),
    "gauss": GaussWorkload(),
}
