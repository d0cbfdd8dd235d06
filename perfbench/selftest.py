#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny input size.

From the root of a checkout:

    python3 perfbench/selftest.py

For every workload, on seed 0 and on seed 1 (a second seed, so that a
claim can be re-checked on a seed not used while the change was written):

  * one untraced and one traced round finish with no failed CLI call or
    check, and the traced outputs are byte-identical to the untraced ones;
  * every end-to-end metric is positive, and every per-layer metric whose
    target exists is reported;
  * one number perturbed by 1e-6 relative in an output makes the
    workload's check fail.

It also checks that BENCHMARK.json names exactly the metrics the
benchmark reports, and that the benchmark exits nonzero, printing no
result, in a directory that holds only the benchmark. Exits 0 when all
of this holds.
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import run

SEEDS = (0, 1)
# workload -> (output file in round 0, data row, column) to perturb
CORRUPTIONS = {
    "pipeline": ("stage3/results.csv", 1, 1),   # optimal total vs the closed form
    "forecast": ("stage2/tradeoff.csv", 1, 2),  # beta=0.5 health_nmae vs predict's
}


def perturb(path: Path, row: int, col: int) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows[row][col] = repr(float(rows[row][col]) * (1 + 1e-6))
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def check_workload(harness, tracing, workloads, name: str, seed: int) -> list[str]:
    problems = []
    work = harness.HERE / ".work" / f"selftest-{name}-seed{seed}-pid{os.getpid()}"
    try:
        runner = harness.Runner(name, workloads.TINY, seed, work)
        runner.setup()
        runner.measure(0, trace=True)
        e2e, _ = runner.metrics(trace=False)
        layers, extra = runner.metrics(trace=True)
        problems += runner.failures
        problems += [f"end-to-end {k} = {v}" for k, v in e2e.items() if not v > 0]
        problems += [f"per-layer {k} absent" for k in extra["absent"]]
        if set(layers) != set(tracing.PER_LAYER) - set(extra["absent"]):
            problems.append("per-layer metrics differ from the declared set")
        rel, row, col = CORRUPTIONS[name]
        perturb(runner.reference / rel, row, col)
        try:
            runner.workload.check(runner.reference, runner.reference_out)
            problems.append(f"perturbed {rel} passed the check")
        except workloads.CheckFailed:
            pass
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return [f"{name} seed {seed}: {p}" for p in problems]


def check_declared_metrics(harness, tracing) -> list[str]:
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    problems = []
    for key, ours in (("end_to_end", harness.END_TO_END),
                      ("per_layer", {k: u for k, (u, _) in tracing.PER_LAYER.items()})):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        if declared != ours:
            problems.append(f"BENCHMARK.json {key} differs from the reported metrics")
    return problems


def check_bare_directory(harness) -> list[str]:
    """Only BENCHMARK.json and the benchmark: it must refuse to run."""
    bare = harness.HERE / ".work" / f"selftest-bare-pid{os.getpid()}"
    try:
        shutil.copytree(harness.HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns(".work", "out", "__pycache__"))
        shutil.copy(harness.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "pipeline",
                               "--seed", "0", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return ["benchmark ran without the program's sources"]
    return []


def main() -> int:
    if not run.prepare_environment():
        return 2
    import harness
    import tracing
    import workloads

    problems = check_declared_metrics(harness, tracing) + check_bare_directory(harness)
    for name in workloads.WORKLOADS:
        for seed in SEEDS:
            found = check_workload(harness, tracing, workloads, name, seed)
            print(f"{name} seed {seed}: {'ok' if not found else 'FAIL'}", flush=True)
            problems += found
    for p in problems:
        print(p)
    print("selftest " + ("passed" if not problems else f"failed: {len(problems)} problems"))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
