#!/usr/bin/env python3
"""gridhealth benchmark entry point.

From the root of a checkout:

    python3 perfbench/run.py --workload pipeline|forecast --seed N \
        --seconds S --trace 0|1

One process runs one workload. It sets the inputs up several times, then
repeats rounds of the workload's three CLI stages, each one in-process
`gridhealth.cli.main(argv)` call, one at a time (a closed loop with a
single client), until --seconds are spent. With --trace 0 it reports the
end-to-end metrics; with --trace 1 it alternates untraced and traced rounds
and reports the per-layer metrics. The last line of standard output is the
result JSON; the line before it is a report with sample counts,
percentiles, failures and the environment.

The program is imported from `src/` of the same checkout; without it the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Timings compare only at equal BLAS thread counts. One thread (never more
# than nproc) keeps the shared-host noise of a second thread out of the runs.
BLAS_THREADS = 1


def prepare_environment() -> bool:
    """Pin BLAS threads before numpy loads and put the checkout's sources first."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    if not (SRC / "gridhealth" / "__init__.py").is_file():
        print(f"error: no gridhealth sources under {SRC}", file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p)
    return True


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("pipeline", "forecast"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not prepare_environment():
        return 2
    import harness

    return harness.main(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
