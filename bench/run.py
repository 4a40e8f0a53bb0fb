"""The markov-bayes benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a source checkout; the package is imported from ``src/``.  Each
workload is a closed loop with one client: the next op starts when the last
one ends.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0`` and the per-layer metrics with ``--trace 1``.
The line before it holds the details (environment, per-workload metric
names, tail percentile, exit-code and error-type tallies).  See
``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

#: The package source in the checkout this file belongs to.
SRC = Path(__file__).resolve().parent.parent / "src"

#: BLAS runs on one thread, so the float workload measures one core; set
#: before numpy is first imported.
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def main(argv: list[str] | None = None) -> int:
    if not (SRC / "markov_bayes" / "__init__.py").is_file():
        print(f"bench: no package source at {SRC}; run from a markov-bayes checkout",
              file=sys.stderr)
        return 2
    os.environ.update(ONE_THREAD)
    sys.path.insert(0, str(SRC))
    import harness

    ap = argparse.ArgumentParser(description="The markov-bayes benchmark.")
    ap.add_argument("--workload", required=True, choices=harness.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    result, detail = harness.run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
