"""Command-line front end.

Subcommands cover kernel composition and inversion, the finite learning
pipeline (sequential and batch), posterior prediction, the Gaussian
regression backend, and the seeded law-check suites.  All finite-backend
output serializes probabilities as exact "p/q" strings; errors go to stderr
as a single JSON object and map to exit codes: 1 for validation problems,
2 for zero-likelihood data, 3 for a law violation found by ``check``.
numpy loads only when ``gauss`` or the ``gauss`` or ``roundtrip`` suite runs.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
from dataclasses import asdict
from pathlib import Path
from typing import TYPE_CHECKING

from .conditioning import invert
from .errors import (
    MarkovBayesError,
    ZeroLikelihoodBatch,
    ZeroLikelihoodObservation,
)
from .finstoch import compose
from .learning import (
    batch_update,
    predictive,
    sequential_update,
)
from .serialize import (
    gauss_posterior_from_json,
    gauss_posterior_to_json,
    kernel_from_json,
    kernel_to_json,
    model_from_json,
    regression_data_from_csv,
    state_from_map,
    state_to_map,
    trace_to_json,
    trace_to_tsv,
    training_set_from_csv,
)
from .suites import SUITES, run_suite

if TYPE_CHECKING:
    from .gauss import GaussPosterior

EXIT_VALIDATION = 1
EXIT_ZERO_LIKELIHOOD = 2
EXIT_LAW_VIOLATION = 3

DEFAULT_SEED = 7


class _UsageError(Exception):
    pass


_NUMBER = r"(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a point such as "-1.5,2" is a positional value, not an option
        self._negative_number_matcher = re.compile(
            rf"^-{_NUMBER}(?:,-?{_NUMBER})*$"
        )

    # argparse exits with code 2 on bad usage; route through the
    # validation path instead so exit codes stay as documented
    def error(self, message):
        raise _UsageError(message)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected an integer of at least 1, got {text!r}"
        )
    return value


def _emit(doc, out: str | None) -> None:
    """Write ``doc`` as JSON; a non-finite float is refused, never printed."""
    text = json.dumps(doc, indent=2, ensure_ascii=False, allow_nan=False) + "\n"
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _stderr_json(doc: dict) -> None:
    sys.stderr.write(json.dumps(doc, ensure_ascii=False) + "\n")


def _fail(code: int, category: str, kind: str, message: str) -> int:
    _stderr_json({"error": category, "type": kind, "message": message})
    return code


def _load_json(path: str) -> dict:
    text = Path(path).read_text(encoding="utf-8")
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply to read") from None


def _load_kernel(path: str):
    return kernel_from_json(_load_json(path))


def _unwrap(doc: dict, key: str):
    """Accept both this tool's wrapped output and the bare inner document."""
    if isinstance(doc, dict) and key in doc:
        return doc[key]
    return doc


def cmd_compose(args) -> int:
    if len(args.kernels) < 2:
        raise ValueError("compose needs at least two kernel files")
    kernels = [_load_kernel(p) for p in args.kernels]
    result = kernels[0]
    for k in kernels[1:]:
        result = compose(result, k)
    _emit(kernel_to_json(result), args.out)
    return 0


def cmd_invert(args) -> int:
    f = _load_kernel(args.kernel)
    prior = _load_kernel(args.prior)
    if not prior.is_state():
        raise ValueError(f"{args.prior}: expected a state, got {prior!r}")
    _emit(kernel_to_json(invert(f, prior)), args.out)
    return 0


def _argmax_label(st) -> str:
    """The first most probable label, read off the weights over the row's
    one denominator: a factored state's decimal weights, so its binary row
    is not built, else the integer numerators."""
    num = (st._decimals or st._num)[0]
    best = max(range(len(num)), key=num.__getitem__)
    return st.target.elements[best]


def cmd_learn(args) -> int:
    if args.trace_tsv and args.mode != "seq":
        raise ValueError("--trace-tsv requires --mode seq")
    model = model_from_json(_load_json(args.bundle))
    data = training_set_from_csv(Path(args.csv).read_text(encoding="utf-8"))

    if args.mode == "seq":
        trace = sequential_update(model, data)
        posterior = trace.final
        doc = {"posterior": state_to_map(posterior), "trace": trace_to_json(trace)}
        if args.trace_tsv:
            Path(args.trace_tsv).write_text(trace_to_tsv(trace), encoding="utf-8")
    else:
        posterior = batch_update(model, data)
        doc = {"posterior": state_to_map(posterior)}
    if args.argmax:
        doc["argmax"] = _argmax_label(posterior)
    _emit(doc, args.out)
    return 0


def cmd_predict(args) -> int:
    model = model_from_json(_load_json(args.bundle))
    posterior = state_from_map(
        model.params, _unwrap(_load_json(args.posterior), "posterior")
    )
    dist = predictive(model, posterior, args.x_star)
    _emit({"predictive": state_to_map(dist)}, args.out)
    return 0


def _load_gauss_posterior(path: str) -> GaussPosterior:
    return gauss_posterior_from_json(_unwrap(_load_json(path), "posterior"))


def _parse_point(text: str) -> list[float]:
    toks = text.split(",")
    if not all(t.strip() for t in toks):
        raise ValueError(f"input point {text!r} has an empty coordinate")
    point = [float(t) for t in toks]
    if not all(map(math.isfinite, point)):
        raise ValueError(f"input point {text!r} has a non-finite coordinate")
    return point


def cmd_gauss(args) -> int:
    """numpy's float warnings are off: an overflow ends in a refusal, by the
    route that overflowed or :func:`_emit`, printed as one JSON error and no more."""
    import numpy as np

    from .gauss import (
        fit_posterior,
        gauss_batch,
        gauss_sequential,
        map_estimate,
        predictive_density,
    )

    with np.errstate(all="ignore"):
        if args.action == "predict":
            post = _load_gauss_posterior(args.posterior)
            mean, var = predictive_density(post, _parse_point(args.x_star), args.sigma)
            doc = {"mean": mean, "variance": var}
        else:
            if args.action == "fit":
                data = regression_data_from_csv(Path(args.csv).read_text(encoding="utf-8"))
                post = fit_posterior(data, args.sigma)
            else:
                prior = _load_gauss_posterior(args.prior)
                data = regression_data_from_csv(Path(args.csv).read_text(encoding="utf-8"))
                step = gauss_sequential if args.mode == "seq" else gauss_batch
                post = step(data, args.sigma, prior)
            doc = {
                "posterior": gauss_posterior_to_json(post),
                "map": map_estimate(post).tolist(),
            }
    _emit(doc, args.out)
    return 0


def cmd_check(args) -> int:
    seed = args.seed
    if seed is None:
        text = os.environ.get("MARKOV_BAYES_SEED", str(DEFAULT_SEED))
        try:
            seed = int(text)
        except ValueError:
            raise ValueError(f"MARKOV_BAYES_SEED must be an integer, got {text!r}") from None
    report = run_suite(args.suite, args.cases, seed)
    summary = {
        "suite": report.suite,
        "cases": report.cases,
        "seed": report.seed,
        "ok": report.ok,
        "failures": len(report.failures),
    }
    _emit(summary, args.out)
    if report.ok:
        return 0
    first = report.failures[0]
    _stderr_json(
        {
            "error": "law-violation",
            "type": "SuiteFailure",
            "message": (
                f"suite {report.suite!r}: {len(report.failures)} of "
                f"{report.cases} cases failed; first at case {first.case} "
                f"(case seed {first.case_seed}): {first.message}"
            ),
            "failures": [asdict(f) for f in report.failures],
        }
    )
    return EXIT_LAW_VIOLATION


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument tree, built once per process.

    Parsing leaves the parser unchanged, and the parsed arguments name their
    command, so ``main`` finds its ``cmd_*`` function at call time.
    """
    ap = _Parser(
        prog="markov-bayes",
        description=(
            "Exact Bayesian learning over finite stochastic kernels, "
            "with a conjugate Gaussian regression backend."
        ),
    )
    sub = ap.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("compose", help="Compose kernel files left to right.")
    p.add_argument("kernels", nargs="+", metavar="KERNEL", help="Kernel JSON files, applied in order.")
    p.add_argument("--out", help="Write the result here instead of stdout.")

    p = sub.add_parser("invert", help="Invert a kernel against a prior state.")
    p.add_argument("kernel", help="Kernel JSON file.")
    p.add_argument("prior", help="State JSON file (a kernel from the unit space).")
    p.add_argument("--out")

    p = sub.add_parser("learn", help="Update a model bundle on a training CSV.")
    p.add_argument("bundle", help="Model bundle JSON file.")
    p.add_argument("csv", help="Training CSV with an x,y header.")
    p.add_argument("--mode", choices=["seq", "batch"], default="batch")
    p.add_argument("--trace-tsv", help="Also write the per-step posterior trace as TSV (seq mode only).")
    p.add_argument("--argmax", action="store_true", help="Include the most probable parameter label in the output.")
    p.add_argument("--out")

    p = sub.add_parser("predict", help="Predict the output distribution at an input.")
    p.add_argument("bundle", help="Model bundle JSON file.")
    p.add_argument("posterior", help="Parameter state JSON (learn output or a bare label map).")
    p.add_argument("x_star", metavar="x", help="Input label to predict at.")
    p.add_argument("--out")

    g = sub.add_parser("gauss", help="Gaussian linear regression backend.")
    gsub = g.add_subparsers(dest="action", required=True, metavar="action")

    p = gsub.add_parser("fit", help="Fit from scratch with a flat prior.")
    p.add_argument("csv", help="Regression CSV with an x1,...,xn,y header.")
    p.add_argument("--sigma", type=float, required=True, help="Observation noise standard deviation.")
    p.add_argument("--out")

    p = gsub.add_parser("update", help="Condition an existing posterior on new rows.")
    p.add_argument("prior", help="Posterior JSON file to start from.")
    p.add_argument("csv", help="Regression CSV with an x1,...,xn,y header.")
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--mode", choices=["seq", "batch"], default="batch")
    p.add_argument("--out")

    p = gsub.add_parser("predict", help="Predictive mean and variance at a point.")
    p.add_argument("posterior", help="Posterior JSON file.")
    p.add_argument("x_star", metavar="x", help="Comma-separated input coordinates.")
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--out")

    p = sub.add_parser("check", help="Run a seeded law suite and report violations.")
    p.add_argument("--suite", required=True, choices=sorted(SUITES))
    p.add_argument("--cases", type=_positive_int, default=100)
    p.add_argument("--seed", type=int, default=None, help="Defaults to MARKOV_BAYES_SEED, then 7.")
    p.add_argument("--out")

    return ap


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as e:
        return _fail(EXIT_VALIDATION, "validation", "usage", str(e))
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args)
    except (ZeroLikelihoodObservation, ZeroLikelihoodBatch) as e:
        return _fail(EXIT_ZERO_LIKELIHOOD, "zero-likelihood", type(e).__name__, str(e))
    except MarkovBayesError as e:
        return _fail(EXIT_VALIDATION, "validation", type(e).__name__, str(e))
    except (ValueError, TypeError, KeyError, OSError) as e:
        return _fail(EXIT_VALIDATION, "validation", type(e).__name__, str(e))


if __name__ == "__main__":
    sys.exit(main())
