"""The benchmark's traced run finds every function and method its per-layer metrics time.

A target missing from the package makes the benchmark report its metrics
absent; this catches a rename or a move without running the benchmark.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).parents[1] / "perfbench" / "tracing.py"


def test_every_trace_target_is_wrapped():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    with tracer.installed():
        pass
    targets = {*tracing.TOTAL_S, *tracing.CALLS, *tracing.MEAN_MS.values(), *tracing.HOOKS}
    assert len(targets) == 27
    assert sorted(targets - tracer.wrapped) == []
