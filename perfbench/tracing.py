"""Outside-in tracing of the gridhealth layers for the benchmark's traced run.

`Tracer.installed()` wraps, for every layer module, each public function at
every module that binds it by name (so `impact_per_mwh` is also wrapped
where `synth` imported it, `evaluate_fleet` where `cli` did), plus a few
methods that carry the training loop. Each wrapped call records a span:
name, start, end, parent span, and the id of the workload run (one CLI
stage of one round). Spans stay in memory; `save` writes them at the end.
A layer's self time is its spans' duration minus what their child spans
cover. A target missing from the package is skipped, and every metric
that needs it is reported absent instead of failing.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import statistics
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

LAYERS = ("cli", "ingest", "synth", "emissions", "dispersion", "health", "autodiff",
          "forecaster", "scheduler")
METHODS = {
    "cli": (("CommandContext", "register_input"), ("CommandContext", "finish")),
    "forecaster": (("ForecastModel", "forward_tensor"), ("HealthConverterNet", "forward_tensor")),
    "autodiff": (("Tensor", "backward"), ("SGD", "step")),
}
TENSOR_INIT = "autodiff.Tensor.__init__"   # counted, not spanned: 100s per batch
STAGES = 3
IMPUTED = 1                                 # ingest's flag value for an imputed entry

# Per-layer metrics: name -> (unit, better). The order is the report order.
PER_LAYER = {
    "cli.register_input_s": ("s", "lower"),
    "cli.finish_s": ("s", "lower"),
    "cli.stage1_self_s": ("s", "lower"),
    "cli.stage2_self_s": ("s", "lower"),
    "cli.stage3_self_s": ("s", "lower"),
    "ingest.load_fuel_mix_s": ("s", "lower"),
    "ingest.rows_per_s": ("1/s", "higher"),
    "ingest.impute_missing_s": ("s", "lower"),
    "ingest.imputed_entries": ("count", "lower"),
    "ingest.normalize_mix_s": ("s", "lower"),
    "ingest.write_fuel_mix_csv_s": ("s", "lower"),
    "synth.synthetic_mix_series_s": ("s", "lower"),
    "synth.oracle_labels_s": ("s", "lower"),
    "synth.load_config_dir_s": ("s", "lower"),
    "health.impact_us_per_hour": ("us", "lower"),
    "health.impact_per_mwh_calls": ("count", "lower"),
    "health.delta_health_calls": ("count", "lower"),
    "health.write_signals_csv_s": ("s", "lower"),
    "health.load_signals_csv_s": ("s", "lower"),
    "emissions.emissions_from_mix_s": ("s", "lower"),
    "emissions.emissions_from_mix_calls": ("count", "lower"),
    "dispersion.apply_source_receptor_s": ("s", "lower"),
    "dispersion.apply_source_receptor_calls": ("count", "lower"),
    "dispersion.build_plume_matrix_s": ("s", "lower"),
    "forecaster.forward_train_ms": ("ms", "lower"),
    "forecaster.forward_eval_ms": ("ms", "lower"),
    "forecaster.converter_ms": ("ms", "lower"),
    "forecaster.loss_ms": ("ms", "lower"),
    "forecaster.train_other_s": ("s", "lower"),
    "forecaster.windows_per_s": ("1/s", "higher"),
    "forecaster.evaluate_s": ("s", "lower"),
    "forecaster.save_checkpoint_s": ("s", "lower"),
    "forecaster.load_checkpoint_s": ("s", "lower"),
    "forecaster.checkpoint_bytes": ("B", "lower"),
    "autodiff.backward_ms": ("ms", "lower"),
    "autodiff.sgd_step_ms": ("ms", "lower"),
    "autodiff.tensors_per_batch": ("count", "lower"),
    "autodiff.bytes_per_batch": ("B", "lower"),
    "scheduler.sample_us_per_session": ("us", "lower"),
    "scheduler.write_sessions_us_per_session": ("us", "lower"),
    "scheduler.load_sessions_us_per_session": ("us", "lower"),
    "scheduler.evaluate_us_per_session": ("us", "lower"),
    "scheduler.optimal_us_per_session": ("us", "lower"),
    "scheduler.first_hours_us_per_session": ("us", "lower"),
    "scheduler.latest_hours_us_per_session": ("us", "lower"),
    "scheduler.continuous_us_per_session": ("us", "lower"),
    "scheduler.schedule_calls": ("count", "lower"),
    **{f"{layer}.self_s": ("s", "lower") for layer in LAYERS},
    **{f"{layer}.errors": ("count", "lower") for layer in LAYERS},
    "trace.spans": ("count", "lower"),
    **{f"trace.stage{k}_overhead_s": ("s", "lower") for k in range(1, STAGES + 1)},
}


# span names whose per-round total time, call count, or mean time per call is a metric
TOTAL_S = ("ingest.load_fuel_mix", "ingest.impute_missing", "ingest.normalize_mix",
           "ingest.write_fuel_mix_csv", "synth.synthetic_mix_series", "synth.oracle_labels",
           "synth.load_config_dir", "health.write_signals_csv", "health.load_signals_csv",
           "emissions.emissions_from_mix", "dispersion.apply_source_receptor",
           "dispersion.build_plume_matrix", "forecaster.evaluate", "forecaster.save_checkpoint",
           "forecaster.load_checkpoint")
CALLS = ("health.impact_per_mwh", "health.delta_health", "emissions.emissions_from_mix",
         "dispersion.apply_source_receptor")
MEAN_MS = {"forecaster.converter_ms": "forecaster.HealthConverterNet.forward_tensor",
           "forecaster.loss_ms": "forecaster.composite_loss",
           "autodiff.backward_ms": "autodiff.Tensor.backward",
           "autodiff.sgd_step_ms": "autodiff.SGD.step"}


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.s_name, self.s_parent, self.s_run = array("i"), array("i"), array("i")
        self.s_start, self.s_end = array("d"), array("d")
        self.stack: list[int] = []
        self.run = -1
        self.counters: dict[tuple[int, str], float] = defaultdict(float)
        self.seen_errors: set[tuple[str, int]] = set()
        self.wrapped: set[str] = set()
        self.hook_failures: dict[str, str] = {}
        self.in_batch = False

    # -- recording -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def count(self, key: str, value: float = 1.0) -> None:
        self.counters[self.run, key] += value

    def _wrap(self, name: str, layer: str, fn, hook=None):
        nid = self._name_id(name)
        tracer = self
        s_name, s_parent, s_run = self.s_name, self.s_parent, self.s_run
        s_start, s_end, stack = self.s_start, self.s_end, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = None
            if hook:
                try:
                    token = hook.before(tracer, args, kwargs)
                except Exception as exc:  # an internal type changed; that metric goes absent
                    tracer.hook_failures.setdefault(name, f"{type(exc).__name__}: {exc}")
            i = len(s_start)
            s_name.append(nid)
            s_parent.append(stack[-1] if stack else -1)
            s_run.append(tracer.run)
            s_end.append(0.0)
            stack.append(i)
            s_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                s_end[i] = clock()
                stack.pop()
                if (layer, id(exc)) not in tracer.seen_errors:
                    tracer.seen_errors.add((layer, id(exc)))
                    tracer.count(f"{layer}.errors")
                raise
            s_end[i] = clock()
            stack.pop()
            if hook:
                try:
                    hook.after(tracer, args, kwargs, result, s_end[i] - s_start[i], token)
                except Exception as exc:  # an internal type changed; that metric goes absent
                    tracer.hook_failures.setdefault(name, f"{type(exc).__name__}: {exc}")
            return result

        return wrapper

    # -- patching ------------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target while the block runs, then restore the originals."""
        import gridhealth  # noqa: F401  (loads every layer module)

        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "gridhealth" or n.startswith("gridhealth."))]
        patches = []
        try:
            for layer in LAYERS:
                mod = sys.modules.get(f"gridhealth.{layer}")
                if mod is None:
                    continue
                for attr, fn in list(vars(mod).items()):
                    if (attr.startswith("_") or not inspect.isfunction(fn)
                            or fn.__module__ != mod.__name__):
                        continue
                    name = f"{layer}.{attr}"
                    wrapper = self._wrap(name, layer, fn, HOOKS.get(name))
                    for owner in modules:
                        for bound, value in list(vars(owner).items()):
                            if value is fn:
                                patches.append((owner, bound, fn))
                                setattr(owner, bound, wrapper)
                    self.wrapped.add(name)
                for cls_name, meth in METHODS.get(layer, ()):
                    cls = getattr(mod, cls_name, None)
                    fn = cls.__dict__.get(meth) if cls is not None else None
                    if not inspect.isfunction(fn):
                        continue
                    name = f"{layer}.{cls_name}.{meth}"
                    patches.append((cls, meth, fn))
                    setattr(cls, meth, self._wrap(name, layer, fn, HOOKS.get(name)))
                    self.wrapped.add(name)
            tensor = getattr(sys.modules.get("gridhealth.autodiff"), "Tensor", None)
            init = tensor.__dict__.get("__init__") if tensor is not None else None
            if inspect.isfunction(init):
                patches.append((tensor, "__init__", init))
                setattr(tensor, "__init__", self._count_tensors(init))
                self.wrapped.add(TENSOR_INIT)
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    def _count_tensors(self, init):
        tracer = self

        @functools.wraps(init)
        def wrapper(tensor, *args, **kwargs):
            init(tensor, *args, **kwargs)
            if tracer.in_batch:
                tracer.count("tensors")
                tracer.count("tensor_bytes", tensor.data.nbytes)

        return wrapper

    # -- reporting -----------------------------------------------------------

    def spans_of(self, runs) -> dict[str, np.ndarray]:
        # copies, not views: a buffer view would stop the arrays from growing
        run = np.array(self.s_run, dtype=np.int32)
        sel = np.isin(run, list(runs))
        dur = np.array(self.s_end) - np.array(self.s_start)
        parent = np.array(self.s_parent, dtype=np.int32)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        name = np.array(self.s_name, dtype=np.int32)
        return {"name": name[sel], "dur": dur[sel], "self": (dur - child)[sel],
                "run": run[sel]}

    def round_metrics(self, round_index: int) -> dict[str, float]:
        """Every per-layer metric of one traced round whose targets exist."""
        runs = range(round_index * STAGES, (round_index + 1) * STAGES)
        sp = self.spans_of(runs)
        span = sp["name"]

        def named(prefix):
            return np.isin(span, [i for i, n in enumerate(self.names) if n.startswith(prefix)])

        def total(name):
            return float(sp["dur"][span == self.name_ids.get(name, -1)].sum())

        def calls(name):
            return int((span == self.name_ids.get(name, -1)).sum())

        def per(num, den, scale=1.0):
            return scale * num / den if den else 0.0

        def counter(key):
            return sum(self.counters.get((r, key), 0.0) for r in runs)

        c = counter
        ctx = "cli.CommandContext"
        fwd = "forecaster.ForecastModel.forward_tensor"
        back, step = "autodiff.Tensor.backward", "autodiff.SGD.step"
        table = {
            "cli.register_input_s": ([f"{ctx}.register_input"], lambda: total(f"{ctx}.register_input")),
            "cli.finish_s": ([f"{ctx}.finish"], lambda: total(f"{ctx}.finish")),
            "ingest.rows_per_s": (["ingest.load_fuel_mix"],
                                  lambda: per(c("ingest.rows"), total("ingest.load_fuel_mix"))),
            "ingest.imputed_entries": (["ingest.impute_missing"], lambda: c("ingest.imputed")),
            "health.impact_us_per_hour": (["health.impact_per_mwh"],
                                          lambda: per(total("health.impact_per_mwh"),
                                                      calls("health.impact_per_mwh"), 1e6)),
            "forecaster.forward_train_ms": ([fwd], lambda: per(c("fwd_train_s"), c("fwd_train_n"), 1e3)),
            "forecaster.forward_eval_ms": ([fwd], lambda: per(c("fwd_eval_s"), c("fwd_eval_n"), 1e3)),
            "forecaster.train_other_s": (["forecaster.train", fwd, back, step],
                                         lambda: total("forecaster.train") - c("fwd_train_s")
                                         - total(back) - total(step)),
            "forecaster.windows_per_s": (["forecaster.train", fwd],
                                         lambda: per(c("train_windows"), total("forecaster.train"))),
            "forecaster.checkpoint_bytes": (["forecaster.save_checkpoint"], lambda: c("checkpoint_bytes")),
            "autodiff.tensors_per_batch": ([TENSOR_INIT, fwd, step],
                                           lambda: per(c("tensors"), c("batches"))),
            "autodiff.bytes_per_batch": ([TENSOR_INIT, fwd, step],
                                         lambda: per(c("tensor_bytes"), c("batches"))),
            "scheduler.schedule_calls": (["scheduler.schedule_for"], lambda: calls("scheduler.schedule_for")),
        }
        for target in TOTAL_S:
            table[f"{target}_s"] = ([target], lambda t=target: total(t))
        for target in CALLS:
            table[f"{target}_calls"] = ([target], lambda t=target: calls(t))
        for metric, target in MEAN_MS.items():
            table[metric] = ([target], lambda t=target: per(total(t), calls(t), 1e3))
        for fn, key in (("sample_sessions", "sample"), ("write_sessions", "write_sessions"),
                        ("load_sessions", "load_sessions"), ("evaluate_fleet", "evaluate")):
            target = f"scheduler.{fn}"
            table[f"scheduler.{key}_us_per_session"] = (
                [target], lambda t=target, f=fn: per(total(t), c(f"sessions.{f}"), 1e6))
        for strategy in ("optimal", "first_hours", "latest_hours", "continuous"):
            table[f"scheduler.{strategy}_us_per_session"] = (
                ["scheduler.schedule_for"],
                lambda s=strategy: per(c(f"strategy.{s}.s"), c(f"strategy.{s}.n"), 1e6))

        out: dict[str, float] = {}
        for metric, (needs, value) in table.items():
            if all(n in self.wrapped and n not in self.hook_failures for n in needs):
                out[metric] = float(value())
        stage_of = sp["run"] - round_index * STAGES
        if any(n.startswith("cli.cmd_") for n in self.wrapped):
            is_cmd = named("cli.cmd_")
            for k in range(STAGES):
                out[f"cli.stage{k + 1}_self_s"] = float(sp["self"][is_cmd & (stage_of == k)].sum())
        for layer in LAYERS:
            if any(n.startswith(f"{layer}.") for n in self.wrapped):
                out[f"{layer}.self_s"] = float(sp["self"][named(f"{layer}.")].sum())
                out[f"{layer}.errors"] = counter(f"{layer}.errors")
        out["trace.spans"] = float(len(sp["dur"]))
        return out

    def save(self, path: Path) -> None:
        """Write every span recorded, for offline inspection."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), name=np.array(self.s_name),
                 parent=np.array(self.s_parent), run=np.array(self.s_run),
                 start=np.array(self.s_start), end=np.array(self.s_end))


def median_metrics(rounds: list[dict[str, float]]) -> dict[str, float]:
    """Per-metric median over traced rounds; a metric absent in any round is absent."""
    keys = [k for k in PER_LAYER if rounds and all(k in r for r in rounds)]
    return {k: statistics.median(r[k] for r in rounds) for k in keys}


# -- hooks: counts taken at the same boundaries as the spans --------------------

class _Hook:
    def before(self, tracer, args, kwargs):
        return None

    def after(self, tracer, args, kwargs, result, dur, token):
        pass


class _Count(_Hook):
    """Add `amount(args, kwargs, result)` to a counter after each call."""

    def __init__(self, key, amount):
        self.key, self.amount = key, amount

    def after(self, tracer, args, kwargs, result, dur, token):
        tracer.count(self.key, self.amount(args, kwargs, result))


def _result_len(args, kwargs, result):
    return len(result)


class _Forward(_Hook):
    """Split model forwards into training and evaluation; a training forward
    opens a batch that the next optimizer step closes."""

    def before(self, tracer, args, kwargs):
        training = bool(_arg(args, kwargs, 2, "training", False))
        if training:
            tracer.in_batch = True
            tracer.count("train_windows", _arg(args, kwargs, 1, "x").shape[0])
        return training

    def after(self, tracer, args, kwargs, result, dur, training):
        kind = "train" if training else "eval"
        tracer.count(f"fwd_{kind}_s", dur)
        tracer.count(f"fwd_{kind}_n")


class _Step(_Hook):
    def after(self, tracer, args, kwargs, result, dur, token):
        if tracer.in_batch:
            tracer.count("batches")
            tracer.in_batch = False


class _Strategy(_Hook):
    def after(self, tracer, args, kwargs, result, dur, token):
        strategy = _arg(args, kwargs, 2, "strategy")
        tracer.count(f"strategy.{strategy}.s", dur)
        tracer.count(f"strategy.{strategy}.n")


HOOKS = {
    "ingest.load_fuel_mix": _Count("ingest.rows", _result_len),
    "ingest.impute_missing": _Count(
        "ingest.imputed", lambda a, k, r: int((np.asarray(r.flags) == IMPUTED).sum())),
    "forecaster.ForecastModel.forward_tensor": _Forward(),
    "autodiff.SGD.step": _Step(),
    "forecaster.save_checkpoint": _Count(
        "checkpoint_bytes", lambda a, k, r: Path(_arg(a, k, 0, "path")).stat().st_size),
    "scheduler.schedule_for": _Strategy(),
    "scheduler.sample_sessions": _Count("sessions.sample_sessions", _result_len),
    "scheduler.write_sessions": _Count(
        "sessions.write_sessions", lambda a, k, r: len(_arg(a, k, 1, "sessions"))),
    "scheduler.load_sessions": _Count("sessions.load_sessions", _result_len),
    "scheduler.evaluate_fleet": _Count(
        "sessions.evaluate_fleet", lambda a, k, r: len(_arg(a, k, 0, "sessions"))),
}
