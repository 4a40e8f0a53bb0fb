"""Mutation checks: every named mutant of the source must fail its tests.

    python3 tools/mutants.py [NAME ...]

A mutant is a file under ``src/``, an exact text that occurs there once,
the text that replaces it, and the tests that must fail when it does.  The
checkout's ``src/``, ``tests/`` and ``pyproject.toml`` are copied to a
temporary directory once, and every named test must pass there before
any mutant is applied.  Then each mutant is applied in turn, only its
tests run (``python3 -m pytest -x``), and the file is restored.  A mutant
whose tests pass survives.  The exit status is 0 when every mutant run was
killed, 1 when one survived, and 2 when the unmutated tests fail or a
mutant could not be applied or its tests could not be collected.  With
names, only those mutants run.  Needs the standard library and pytest only.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent

#: Seconds one mutant's tests may take before the run counts as an error.
TIMEOUT_S = 120


class Mutant(NamedTuple):
    file: str
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = {
    # the batch update's exponent sum and observation counts
    "count-factor-dropped": Mutant(
        "src/markov_bayes/learning.py",
        "e[k] += c * v",
        "e[k] += v",
        ("tests/test_learning.py::test_batch_routes_agree_on_zeros_rough_primes_and_repeats",),
    ),
    "pair-multiplicity-lost": Mutant(
        "src/markov_bayes/learning.py",
        "seen = Counter(data.pairs)",
        "seen = dict.fromkeys(data.pairs, 1)",
        ("tests/test_learning.py::test_batch_routes_agree_on_zeros_rough_primes_and_repeats",),
    ),
    # the reader's memo and its row reduction
    "memo-shares-a-pair": Mutant(
        "src/markov_bayes/finstoch.py",
        "pairs.get(t) or pairs.setdefault(t, ",
        "pairs.get(len(t)) or pairs.setdefault(len(t), ",
        ("tests/test_cli.py::test_learn_batch_worked_example",),
    ),
    "row-gcd-of-d-alone": Mutant(
        "src/markov_bayes/finstoch.py",
        "c = gcd(d, *ints)",
        "c = gcd(d)",
        ("tests/test_cli.py::test_predict_output_is_byte_for_byte_pinned",),
    ),
    # the lowest-terms view, the sequential step, the batch render and its
    # base, ps
    "terms-g-taken-as-1": Mutant(
        "src/markov_bayes/finstoch.py",
        "g = gcd(d, r)",
        "g = 1",
        ("tests/test_closure.py::test_terms_take_each_entrys_own_gcd",),
    ),
    "terms-shortcut-widened": Mutant(
        "src/markov_bayes/finstoch.py",
        "if len(support) > 2:",
        "if len(support) > 3:",
        ("tests/test_closure.py::test_terms_take_each_entrys_own_gcd",),
    ),
    "event-channel-unreduced": Mutant(
        "src/markov_bayes/learning.py",
        "c = gcd(p, d)",
        "c = 1",
        ("tests/test_closure.py::test_learning_results_are_closed",),
    ),
    "seq-step-reads-row-1": Mutant(
        "src/markov_bayes/learning.py",
        "(inverse._num[0],), (inverse._den[0],)",
        "(inverse._num[1],), (inverse._den[1],)",
        ("tests/test_learning.py::test_each_sequential_step_is_the_full_inverse_at_the_observed_column",),
    ),
    "zero-likelihood-check-dropped": Mutant(
        "src/markov_bayes/learning.py",
        "if not any(p and row[j] for p, row in zip(current._num[0], fj._num)):",
        "if False:",
        ("tests/test_learning.py::test_each_sequential_step_is_the_full_inverse_at_the_observed_column",),
    ),
    "expand-gcd-chain-flat": Mutant(
        "src/markov_bayes/finstoch.py",
        "chain.append(chain[-1] * g)",
        "chain.append(chain[-1])",
        ("tests/test_exact_io.py::test_batch_posterior_prints_as_the_binary_route_does",),
    ),
    "base-not-coprime": Mutant(
        "src/markov_bayes/finstoch.py",
        "if g > 1:",
        "if g > b:",
        ("tests/test_learning.py::test_batch_cancels_a_large_prime_within_one_parameter",),
    ),
    # the cached text view, one mutant per branch
    "texts-decimal-dens-shared": Mutant(
        "src/markov_bayes/finstoch.py",
        "dens.get(q) or dens.setdefault(q, str(q))",
        "dens.get(0) or dens.setdefault(0, str(q))",
        ("tests/test_cli.py::test_learn_batch_output_is_byte_for_byte_pinned",),
    ),
    "texts-binary-reversed": Mutant(
        "src/markov_bayes/finstoch.py",
        "tuple(format_row(terms))",
        "tuple(format_row(terms[::-1]))",
        ("tests/test_cli.py::test_learn_seq_output_is_byte_for_byte_pinned",),
    ),
    # the one normalizer of every exact conditional, and its callers in
    # conditioning
    "normalize-fill-point-mass": Mutant(
        "src/markov_bayes/finstoch.py",
        "fill = (1,) * width",
        "fill = (width,) + (0,) * (width - 1)",
        ("tests/test_conditioning.py::test_invert_uniform_rows_off_the_pushforward_support",
         "tests/test_conditioning.py::test_disintegrate_fills_dead_rows_uniformly"),
    ),
    "normalize-mass-unreduced": Mutant(
        "src/markov_bayes/finstoch.py",
        "den.append(mass // c)",
        "den.append(mass)",
        ("tests/test_closure.py::test_inversion_and_conditioning_are_closed",),
    ),
    "invert-seed-one": Mutant(
        "src/markov_bayes/conditioning.py",
        "seeds = [lcm(*[r * e for r, e in zip(rescale, c) if e]) for c in columns]",
        "seeds = [1 for c in columns]",
        ("tests/test_conditioning.py::test_invert_matches_the_pushforward_route",),
    ),
    "condition-blocks-transposed": Mutant(
        "src/markov_bayes/conditioning.py",
        "for i in range(len(x)) for row in s._num",
        "for row in s._num for i in range(len(x))",
        ("tests/test_conditioning.py::test_condition_rebuilds_the_joint_rows",),
    ),
    # the Gaussian backend's QR factor, its one guard, and its finite inputs
    # and results
    "gauss-r-perturbed": Mutant(
        "src/markov_bayes/gauss.py",
        "np.linalg.solve(r[:dim, :dim], ",
        "np.linalg.solve(r[:dim, :dim] + np.tril(np.full((dim, dim), 1e-9), -1), ",
        ("tests/test_gauss.py::test_sequential_equals_batch",),
    ),
    "seq-factor-dropped": Mutant(
        "src/markov_bayes/gauss.py",
        "    _factor(data, sigma, prior)\n",
        "",
        ("tests/test_gauss.py::test_sequential_refuses_exactly_where_batch_does",),
    ),
    "seq-finite-check-dropped": Mutant(
        "src/markov_bayes/gauss.py",
        "    return _posterior(mean, root, sigma)\n",
        "    return GaussPosterior(mean=mean, cov=root @ root.T)\n",
        ("tests/test_cli.py::test_gauss_seq_refuses_the_overflowed_root_of_a_prior_that_batch_absorbs",),
    ),
    "gauss-underflow-check-dropped": Mutant(
        "src/markov_bayes/gauss.py",
        "if np.diagonal(cov).min() < np.finfo(float).tiny:",
        "if False:",
        ("tests/test_cli.py::test_gauss_fit_refusal_names_a_tiny_noise_scale",),
    ),
    "gauss-finite-check-dropped": Mutant(
        "src/markov_bayes/gauss.py",
        "if not (np.isfinite(self.mean).all() and np.isfinite(self.cov).all()):",
        "if False:",
        ("tests/test_gauss.py::test_posterior_refuses_non_finite_entries",),
    ),
    "potter-mean-shift-flipped": Mutant(
        "src/markov_bayes/gauss.py",
        "a * float(x.dot(mean) - y)",
        "a * float(y - x.dot(mean))",
        ("tests/test_gauss.py::test_sequential_is_bit_identical_to_the_outer_product_loop",),
    ),
    # the regression CSV reader's blocks
    "csv-block-misplaced": Mutant(
        "src/markov_bayes/serialize.py",
        "values[start:start + len(block)] = ",
        "values[:len(block)] = ",
        ("tests/test_serialize.py::test_regression_csv_reader_matches_the_csv_module_reader_across_blocks",),
    ),
    # the laws of the seq = batch claim, each against its planted fault
    "require-no-op": Mutant(
        "src/markov_bayes/suites.py",
        "raise _CheckFailed(message)",
        "pass",
        ("tests/test_law_faults.py::test_batch_returning_the_prior_breaks_coincidence",
         "tests/test_law_faults.py::test_factorized_batch_dropping_the_last_observation_breaks_zn",
         "tests/test_law_faults.py::test_sequential_skipping_the_last_row_breaks_gauss"),
    ),
    "coincidence-law-dropped": Mutant(
        "src/markov_bayes/suites.py",
        "trace.final == batch_update(model, data)",
        "True",
        ("tests/test_law_faults.py::test_batch_returning_the_prior_breaks_coincidence",),
    ),
    "zn-law-dropped": Mutant(
        "src/markov_bayes/suites.py",
        "literal == factorized",
        "True",
        ("tests/test_law_faults.py::test_factorized_batch_dropping_the_last_observation_breaks_zn",),
    ),
    # the roundtrip suite's one law driven by the codec table
    "roundtrip-law-dropped": Mutant(
        "src/markov_bayes/suites.py",
        "_require(back == value, ",
        "_require(True, ",
        ("tests/test_law_faults.py::test_each_roundtrip_law_fails_under_its_fault",),
    ),
    "ps-induced-not-canonical": Mutant(
        "src/markov_bayes/ps.py",
        "_ps_trusted(src, dst, canonicalize(f, src.state))",
        "_ps_trusted(src, dst, f)",
        ("tests/test_closure.py::test_ps_operations_preserve_states_in_normal_form",),
    ),
}


def run(names: list[str]) -> int:
    unknown = [name for name in names if name not in MUTANTS]
    if unknown:
        print(f"unknown mutants: {', '.join(unknown)}", file=sys.stderr)
        return 2
    status = 0
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        work = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(
                ROOT / part, work / part, ignore=shutil.ignore_patterns("__pycache__")
            )
        shutil.copy2(ROOT / "pyproject.toml", work / "pyproject.toml")
        env = {**os.environ, "PYTHONPATH": str(work / "src"), "PYTHONDONTWRITEBYTECODE": "1"}

        def pytest(tests) -> int | None:
            try:
                return subprocess.run(
                    [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                     *tests],
                    cwd=work, env=env, capture_output=True, text=True, timeout=TIMEOUT_S,
                ).returncode
            except subprocess.TimeoutExpired:
                return None

        names = names or list(MUTANTS)
        clean = pytest(sorted({test for name in names for test in MUTANTS[name].tests}))
        if clean != 0:
            print(f"ERROR     the unmutated tests do not pass (pytest exited {clean})")
            return 2
        for name in names:
            mutant = MUTANTS[name]
            path = work / mutant.file
            original = path.read_text(encoding="utf-8")
            if original.count(mutant.old) != 1:
                print(f"ERROR     {name}: its text does not occur exactly once in {mutant.file}")
                status = 2
                continue
            path.write_text(original.replace(mutant.old, mutant.new), encoding="utf-8")
            start = time.perf_counter()
            try:
                code = pytest(mutant.tests)
            finally:
                path.write_text(original, encoding="utf-8")
            elapsed = time.perf_counter() - start
            if code == 1:
                print(f"killed    {name} ({elapsed:.1f} s)")
            elif code == 0:
                print(f"SURVIVED  {name}: {' '.join(mutant.tests)} passed")
                status = max(status, 1)
            else:
                reason = "timed out" if code is None else f"pytest exited {code}"
                print(f"ERROR     {name}: {reason}")
                status = 2
    return status


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
