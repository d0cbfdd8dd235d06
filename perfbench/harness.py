"""Measurement loop, output checks and result reporting for perfbench/run.py."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import gridhealth
import tracing
import workloads
from gridhealth import cli

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUPS = 3          # set-up repeats per run; setup_s is their median
END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB",
              **{f"stage{k + 1}_s": "s" for k in range(tracing.STAGES)}}
IGNORED = {"manifest.json"}   # holds the command's wall time, so never byte-stable


def tree_files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file() and p.name not in IGNORED}


def summary(samples: list[float]) -> dict:
    """Median, sample count, and the highest percentile with >= 10 samples beyond it."""
    s = sorted(samples)
    out = {"n": len(s), "median": statistics.median(s) if s else None,
           "min": s[0] if s else None, "samples": samples}
    if len(s) >= 11:
        k = len(s) - 11
        out[f"p{100.0 * (k + 1) / len(s):.1f}"] = s[k]
    return out


def _git_sha(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def environment(seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "gridhealth").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": _git_sha(ROOT),
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "platform": platform.platform(),
    }


class Runner:
    """One workload in one process: set-up, rounds, checks, failure counts."""

    def __init__(self, name: str, sizes: workloads.Sizes, seed: int, work: Path):
        self.cls = workloads.WORKLOADS[name]
        self.sizes = sizes
        self.seed = seed
        self.work = work
        self.attempted = 0
        self.failures: list[str] = []
        self.setup_s: list[float] = []
        self.stage_s: dict[bool, list[list[float]]] = {False: [[], [], []], True: [[], [], []]}
        self.quality: dict[str, float] = {}
        self.tracer = tracing.Tracer()
        self.traced_rounds = 0
        self.workload: workloads.Workload | None = None
        self.reference: Path | None = None
        self.reference_out: list[str] = []

    # -- counted operations ----------------------------------------------------

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def call(self, argv: list[str]) -> tuple[float, str]:
        """One CLI call; returns its wall time and what it printed."""
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except (Exception, SystemExit):  # argparse exits on a flag it does not know
            code = "raised " + traceback.format_exc(limit=4)
        elapsed = time.perf_counter() - t0
        if code != 0:
            self.fail(f"{' '.join(argv[:1])}: exit {code} {err.getvalue().strip()[-400:]}")
        return elapsed, out.getvalue()

    def check(self, what: str, fn, *args):
        """Run one output check; any exception counts as a failed check."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:
            self.fail(f"{what}: {type(exc).__name__}: {exc}")
            return None

    # -- phases ----------------------------------------------------------------

    def setup(self) -> None:
        """Fresh interpreter + import, then input generation; SETUPS times."""
        env = dict(os.environ)
        made = []
        for i in range(SETUPS):
            t0 = time.perf_counter()
            self.attempted += 1
            probe = subprocess.run([sys.executable, "-c", "import gridhealth.cli"], env=env,
                                   cwd=ROOT, capture_output=True, text=True, timeout=120)
            if probe.returncode != 0:
                self.fail(f"import probe: {probe.stderr.strip()[-400:]}")
            wl = self.cls(self.sizes, self.seed, self.work / f"setup{i}")
            self.check("setup", wl.setup, self.call)
            self.setup_s.append(time.perf_counter() - t0)
            made.append(wl)
        self.workload = made[0]
        for wl in made[1:]:
            self.check("inputs repeat for one seed", self._same, made[0].inputs, wl.inputs)
            shutil.rmtree(wl.inputs, ignore_errors=True)

    def _same(self, ref: Path, other: Path) -> None:
        a, b = tree_files(ref), tree_files(other)
        if a != b:
            differ = sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))
            raise workloads.CheckFailed(f"files differ from the first round: {differ[:5]}")

    def round(self, index: int, traced: bool) -> float:
        """Run the three stages once; check round 0, compare later rounds to it."""
        wl = self.workload
        rdir = self.work / f"round{index}"
        t0 = time.perf_counter()
        outs = []
        with self.tracer.installed() if traced else contextlib.nullcontext():
            for k, argv in enumerate(wl.stages(rdir)):
                self.tracer.run = self.traced_rounds * tracing.STAGES + k if traced else -1
                # a traced round calls each stage once, so layer totals are per call
                for _ in range(1 if traced else wl.repeats[k]):
                    elapsed, out = self.call(argv)
                    self.stage_s[traced][k].append(elapsed)
                outs.append(out)
        elapsed = time.perf_counter() - t0
        if traced:
            self.traced_rounds += 1
        if self.reference is None:
            self.reference, self.reference_out = rdir, outs
            self.quality = self.check(f"{wl.name} outputs", wl.check, rdir, outs) or {}
        else:
            self.check("outputs repeat across rounds" + (" (traced)" if traced else ""),
                       self._same, self.reference, rdir)
            shutil.rmtree(rdir, ignore_errors=True)
        return elapsed

    def measure(self, seconds: float, trace: bool) -> None:
        """Rounds until `seconds` are spent; with `trace`, untraced and traced alternate."""
        deadline = time.perf_counter() + seconds
        index = 0
        while True:
            traced = trace and index % 2 == 1
            elapsed = self.round(index, traced)
            index += 1
            enough = not trace or self.traced_rounds > 0
            if enough and time.perf_counter() + elapsed > deadline:
                break

    # -- results ---------------------------------------------------------------

    def metrics(self, trace: bool) -> tuple[dict[str, float], dict]:
        if not trace:
            m = {"setup_s": statistics.median(self.setup_s),
                 "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
            # seconds per call: the inverse of the stage's throughput. Per-call times
            # on a shared host are bimodal, and a median flips between the modes
            # where a mean moves smoothly; medians and percentiles are in the report.
            for k in range(tracing.STAGES):
                m[f"stage{k + 1}_s"] = statistics.fmean(self.stage_s[False][k])
            return m, {}
        rounds = [self.tracer.round_metrics(i) for i in range(self.traced_rounds)]
        m = tracing.median_metrics(rounds)
        for k in range(tracing.STAGES):
            m[f"trace.stage{k + 1}_overhead_s"] = (statistics.median(self.stage_s[True][k])
                                                   - statistics.median(self.stage_s[False][k]))
        extra = {"absent": [k for k in tracing.PER_LAYER if k not in m],
                 "hook_failures": self.tracer.hook_failures}
        return m, extra

    def report(self, trace: bool, extra: dict) -> dict:
        stages = {}
        for k, name in enumerate(self.workload.stage_names):
            entry = {"command": name, "untraced": summary(self.stage_s[False][k])}
            if trace:
                entry["traced"] = summary(self.stage_s[True][k])
            stages[f"stage{k + 1}"] = entry
        return {
            "workload": self.cls.name,
            "environment": environment(self.seed),
            "setup_s": summary(self.setup_s),
            "stages": stages,
            "quality": self.quality,
            "attempted": self.attempted,
            "failed": len(self.failures),
            "error_rate": len(self.failures) / max(1, self.attempted),
            "failures": self.failures[:20],
            **extra,
        }


def main(workload: str, seed: int, seconds: float, trace: bool) -> int:
    if Path(gridhealth.__file__).resolve().parent != (SRC / "gridhealth").resolve():
        print(f"error: gridhealth imported from {gridhealth.__file__}, not {SRC}", file=sys.stderr)
        return 2
    work = HERE / ".work" / f"{workload}-seed{seed}-pid{os.getpid()}"
    runner = Runner(workload, workloads.FULL, seed, work)
    try:
        runner.setup()
        runner.measure(seconds, trace)
        metrics, extra = runner.metrics(trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if trace:
        spans = HERE / "out" / f"spans-{workload}.npz"
        runner.tracer.save(spans)
        extra["spans_file"] = str(spans.relative_to(ROOT))
    units = {**END_TO_END, **{k: unit for k, (unit, _) in tracing.PER_LAYER.items()}}
    print(json.dumps({"report": runner.report(trace, extra)}))
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0
