"""Command-line pipeline driver.

One executable, six subcommands:

  ingest    raw fuel-mix CSV -> imputed, normalized dataset
  synth     synthetic region bundle (mix, SR matrix, oracle labels, configs)
  train     fit the forecaster + health converter, save a checkpoint
  sweep     independent training runs across beta, trade-off CSV
  predict   held-out-span health-signal predictions from a checkpoint
  schedule  fleet charging simulation against a health signal

Every command writes its outputs into a private staging directory beside
--out and publishes them into --out only when it succeeds, manifest.json
last. The manifest records the resolved configuration, sha-256 digests of
the inputs and the command's own outputs; reruns with identical manifest
inputs produce byte-identical CSVs. A command that fails or is interrupted
(Ctrl-C, after which it prints one line and exits 130, or SIGTERM, after
which the process still ends by SIGTERM) leaves --out as it was and no
staging directory.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import shutil
import signal
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

try:
    import resource
except ImportError:     # not on Windows: the manifest then records no peak RSS
    resource = None

from . import __version__
from .errors import (DatasetGap, DegenerateDistribution, GridHealthError, InsufficientData,
                     ShapeMismatch)
from .forecaster import (
    ATTENTION,
    LINEAR_BASELINE,
    TrainConfig,
    TrainingData,
    beta_sweep,
    build_models,
    forecast_at,
    load_checkpoint,
    origins,
    save_checkpoint,
    train,
)
from .health import HealthSeries, load_signals_csv, write_signals_csv
from .ingest import (
    IMPUTED,
    MISSING,
    FuelCategoryMap,
    impute_missing,
    json_number,
    load_fuel_mix,
    normalize_mix,
    read_json_object,
    write_fuel_mix_csv,
    write_table,
)
from .scheduler import (
    ALL_STRATEGIES,
    STRATEGY_CONTINUOUS,
    STRATEGY_FIRST,
    STRATEGY_LATEST,
    SessionTable,
    evaluate_fleet,
    load_sessions,
    sample_sessions,
    write_sessions,
)
from .synth import (
    CONFIG_FILES,
    default_config_path,
    load_config_dir,
    oracle_labels,
    synthetic_mix_series,
)
from .dispersion import SR_MATRIX_COLUMNS
from .workers import forked_count


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _peak_rss(workers: bool) -> dict[str, float]:
    """This process's peak resident set in MB, and with `workers` the largest reaped child's.

    Empty where the `resource` module is missing.
    """
    if resource is None:
        return {}
    per_mb = 1024 * 1024 if sys.platform == "darwin" else 1024   # ru_maxrss is KiB on Linux
    peaks = {"peak_rss_mb": resource.RUSAGE_SELF}
    if workers:
        peaks["worker_peak_rss_mb"] = resource.RUSAGE_CHILDREN
    return {key: round(resource.getrusage(who).ru_maxrss / per_mb, 1)
            for key, who in peaks.items()}


class CommandContext:
    """Inputs and outputs of one command; outputs are staged until `finish`."""

    def __init__(self, command: str, out_dir: Path, staging: Path, config: dict):
        self.command = command
        self.out_dir = out_dir
        self.staging = staging
        self.config = config
        self.inputs: dict[str, str] = {}
        self.outputs: list[str] = []
        self.started = time.monotonic()
        self.forked = forked_count()

    def register_input(self, path: str | Path):
        path = Path(path)
        self.inputs[str(path)] = _sha256(path)

    def output(self, name: str) -> Path:
        self.outputs.append(name)
        return self.staging / name

    def finish(self):
        """Check the staged outputs, then move them into `out_dir`, manifest last."""
        for name in self.outputs:
            path = self.staging / name
            if not path.exists() or path.stat().st_size == 0:
                raise GridHealthError(f"output {self.out_dir / name} missing or empty")
        manifest = {
            "command": self.command,
            "tool_version": __version__,
            "config": self.config,
            "inputs": self.inputs,
            "outputs": [str(self.out_dir / name) for name in self.outputs],
            "seed": self.config.get("seed"),
            "wall_time_s": round(time.monotonic() - self.started, 3),
            **_peak_rss(forked_count() > self.forked),
        }
        (self.staging / "manifest.json").write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        self.out_dir.mkdir(exist_ok=True)
        # while the moves run, --out holds no manifest, so nothing there looks complete
        (self.out_dir / "manifest.json").unlink(missing_ok=True)
        for name in [*self.outputs, "manifest.json"]:
            os.replace(self.staging / name, self.out_dir / name)


def _load_canonical_mix(path: str | Path):
    """Load a dataset CSV whose columns are already canonical fuels, with no gap."""
    series = load_fuel_mix(path)
    if (series.flags == MISSING).any():
        t, f = np.argwhere(series.flags == MISSING)[0]
        raise DatasetGap(f"{path}: no {series.fuel_names[f]} share at hour "
                         f"{series.timestamps[t]}; fill gaps with `gridhealth ingest` first")
    return series


# -- subcommand bodies ---------------------------------------------------------

def cmd_ingest(args, ctx: CommandContext) -> None:
    ctx.register_input(args.mix)
    ctx.register_input(args.category_map)
    category_map = FuelCategoryMap.from_csv(args.category_map)
    series = load_fuel_mix(args.mix, category_map)
    imputed = impute_missing(series, period=args.period)
    dataset = normalize_mix(imputed)
    write_fuel_mix_csv(ctx.output("dataset.csv"), dataset)
    n_imputed = int((dataset.flags == IMPUTED).sum())
    print(f"records: {len(dataset)}")
    print(f"fuels: {','.join(dataset.fuel_names)}")
    print(f"imputed_entries: {n_imputed}")


def cmd_synth(args, ctx: CommandContext) -> None:
    config_src = Path(args.config_dir) if args.config_dir else default_config_path(".")
    config = load_config_dir(config_src, from_plume=True)
    for name in CONFIG_FILES:
        src = config_src / name
        ctx.register_input(src)
        shutil.copyfile(src, ctx.output(name))

    matrix = config.sr_matrix
    pollutant, receptor = np.meshgrid(matrix.pollutant_names, matrix.receptor_ids, indexing="ij")
    write_table(ctx.output("sr_matrix.csv"), [name for name, _ in SR_MATRIX_COLUMNS],
                [pollutant.ravel(), receptor.ravel(), matrix.gains.ravel()])

    series = synthetic_mix_series(args.hours, args.seed)
    write_fuel_mix_csv(ctx.output("fuel_mix.csv"), series)

    labels = oracle_labels(series, config)
    write_signals_csv(ctx.output("labels.csv"), labels)
    print(f"hours: {args.hours}")
    for name, column in zip(("internal", "external"), labels.costs.T):
        print(f"{name}_usd_per_mwh: mean={column.mean():.3f} min={column.min():.3f} "
              f"max={column.max():.3f}")


def _load_training_data(args, ctx) -> tuple[tuple[str, ...], TrainingData]:
    """The dataset's fuel names, and its hours paired with their labels."""
    ctx.register_input(args.dataset)
    ctx.register_input(args.labels)
    series = _load_canonical_mix(args.dataset)
    signals = load_signals_csv(args.labels)
    try:
        return series.fuel_names, TrainingData.from_series(series, signals)
    except InsufficientData as exc:
        raise InsufficientData(f"{args.labels}: {exc} of {args.dataset}") from None


@contextlib.contextmanager
def _sized(path: str, hours: int):
    """Name the dataset `path` and its hour count in an InsufficientData the block raises."""
    try:
        yield
    except InsufficientData as exc:
        raise InsufficientData(f"{path} has {hours} hours: {exc}") from None


def _train_config(args) -> TrainConfig:
    # sweep has no --beta: beta_sweep sets the beta of each of its runs
    return TrainConfig(beta=getattr(args, "beta", TrainConfig.beta), window=args.window,
                       epochs=args.epochs, step_size=args.lr, batch_size=args.batch,
                       seed=args.seed, architecture=args.arch)


def cmd_train(args, ctx: CommandContext) -> None:
    fuels, data = _load_training_data(args, ctx)
    cfg = _train_config(args)
    model, converter = build_models(len(fuels), cfg)
    with _sized(args.dataset, len(data)):
        model, converter, history = train(model, converter, data, cfg)
    save_checkpoint(ctx.output("checkpoint.json"), model, converter, fuels)
    header = ["epoch", "train_loss", "val_loss"]
    write_table(ctx.output("loss_history.csv"), header,
                [[h[name] for h in history] for name in header])
    if history:
        print(f"epochs: {len(history)}")
        print(f"final_train_loss: {history[-1]['train_loss']:.6g}")
        print(f"final_val_loss: {history[-1]['val_loss']:.6g}")
    else:
        print("epochs: 0 (no SGD step)")


def cmd_sweep(args, ctx: CommandContext) -> None:
    _, data = _load_training_data(args, ctx)
    with _sized(args.dataset, len(data)):
        points = beta_sweep(data, args.betas, _train_config(args))
    header = ["beta", "fuel_nmae", "health_nmae"]
    write_table(ctx.output("tradeoff.csv"), header,
                [[getattr(p, name) for p in points] for name in header])
    for p in points:
        print(f"beta={p.beta}: fuel_nmae={p.fuel_nmae:.6g} health_nmae={p.health_nmae:.6g}")


def cmd_predict(args, ctx: CommandContext) -> None:
    ctx.register_input(args.dataset)
    ctx.register_input(args.checkpoint)
    series = _load_canonical_mix(args.dataset)
    model, converter, fuels = load_checkpoint(args.checkpoint)
    if set(series.fuel_names) != set(fuels):
        raise ShapeMismatch(f"{args.dataset} has fuel columns {','.join(series.fuel_names)}; "
                            f"the checkpoint {args.checkpoint} forecasts {','.join(fuels)}")
    ctx.config["window"] = model.window
    with _sized(args.dataset, len(series)):
        starts = origins(len(series), model.window, TrainConfig.test_fraction)
    # the checkpoint's fuel order, whatever the dataset's column order
    mixes = series.shares[:, [series.fuel_names.index(name) for name in fuels]]
    _, pred_impacts, rows = forecast_at(model, converter, mixes, starts)
    stamps = series.timestamps[rows]
    try:
        predicted = HealthSeries(stamps, pred_impacts)
    except ValueError as exc:
        raise GridHealthError(f"predicted {exc}") from exc
    write_signals_csv(ctx.output("predicted_signal.csv"), predicted)
    print(f"predicted_hours: {len(stamps)}")
    print(f"first_hour: {stamps[0]} last_hour: {stamps[-1]}")


def _sampled_fleet(path: str, signals: HealthSeries, seed: int) -> SessionTable:
    """The fleet a --sample-config JSON file describes, starting at the signal's first hour."""
    spec = read_json_object(path, ("count", "arrival_hist", "departure_hist", "demand",
                                   "rate_kw"), optional=("days",))
    try:
        return sample_sessions(
            count=json_number(path, spec, "count", int, positive=True),
            arrival_dist=spec["arrival_hist"],
            departure_dist=spec["departure_hist"],
            demand_dist=spec["demand"],
            rate=json_number(path, spec, "rate_kw", positive=True),
            seed=seed,
            days=json_number(path, spec, "days", int, positive=True,
                             default=max(1, len(signals) // 24 - 1)),
            start_hour=int(signals.timestamps[0]) if len(signals) else 0,
        )
    except DegenerateDistribution as exc:
        raise DegenerateDistribution(f"{path}: {exc}") from exc


def cmd_schedule(args, ctx: CommandContext) -> None:
    ctx.register_input(args.signal)
    signals = load_signals_csv(args.signal)
    if args.sessions:
        ctx.register_input(args.sessions)
        sessions = load_sessions(args.sessions)
    else:
        if not args.sample_config:
            raise GridHealthError("schedule needs --sessions or --sample-config")
        ctx.register_input(args.sample_config)
        sessions = _sampled_fleet(args.sample_config, signals, args.seed)
        write_sessions(ctx.output("sessions.csv"), sessions)
    # baselines are always computed so the reduction columns stay defined
    totals = evaluate_fleet(sessions, signals, ALL_STRATEGIES)
    report = ALL_STRATEGIES if args.strategy is None else (args.strategy,)

    def reduction(total: float, baseline: float) -> float:
        return 100.0 * (baseline - total) / baseline if baseline > 0 else 0.0

    write_table(ctx.output("results.csv"),
                ["strategy", "total_usd", "reduction_vs_first_pct", "reduction_vs_latest_pct",
                 "reduction_vs_continuous_pct"],
                [list(report), [totals[s] for s in report],
                 *([reduction(totals[s], totals[b]) for s in report]
                   for b in (STRATEGY_FIRST, STRATEGY_LATEST, STRATEGY_CONTINUOUS))])
    for strategy in report:
        print(f"{strategy}: total_usd={totals[strategy]:.4f}")


# -- argument plumbing -----------------------------------------------------------

def _flag_type(convert, what: str, ok=lambda value: True):
    """Flag type: `convert(text)` where that succeeds and `ok` holds, else a usage error."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"{text!r} is not {what}")
        return value
    return parse


_COUNT = _flag_type(int, "an integer >= 0", lambda n: n >= 0)
_POSITIVE = _flag_type(int, "an integer >= 1", lambda n: n >= 1)
_STEP_SIZE = _flag_type(float, "a finite positive number", lambda x: math.isfinite(x) and x > 0)
_NUMBERS = _flag_type(lambda text: [float(b) for b in text.split(",") if b.strip()] or None,
                      "a list of numbers")


def _BETAS(text: str) -> list[float]:
    betas = _NUMBERS(text)
    repeated = next((b for i, b in enumerate(betas) if b in betas[:i]), None)
    if repeated is not None:
        raise argparse.ArgumentTypeError(f"{text!r} lists beta {repeated} more than once")
    return betas


def _add_train_flags(p: argparse.ArgumentParser):
    p.add_argument("--dataset", required=True, help="canonical fuel-mix CSV")
    p.add_argument("--labels", required=True, help="health-signal labels CSV")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--window", type=int, choices=(24, 72), default=TrainConfig.window)
    p.add_argument("--epochs", type=_COUNT, default=TrainConfig.epochs)
    p.add_argument("--lr", type=_STEP_SIZE, default=TrainConfig.step_size)
    p.add_argument("--batch", type=_POSITIVE, default=TrainConfig.batch_size)
    p.add_argument("--seed", type=_COUNT, default=TrainConfig.seed)
    p.add_argument("--arch", choices=(ATTENTION, LINEAR_BASELINE),
                   default=TrainConfig.architecture)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridhealth",
        description="Fuel-mix to public-health pipeline: data prep, training, "
                    "signal prediction, and health-aware EV charging.",
    )
    parser.add_argument("--version", action="version", version=f"gridhealth {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="impute + normalize a raw fuel-mix CSV")
    p.add_argument("--mix", required=True)
    p.add_argument("--category-map", dest="category_map", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--period", type=_POSITIVE, default=24)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("synth", help="generate a synthetic region bundle")
    p.add_argument("--out", required=True)
    p.add_argument("--hours", type=_POSITIVE, default=2160)
    p.add_argument("--seed", type=_COUNT, default=0)
    p.add_argument("--config-dir", dest="config_dir", default=None,
                   help="directory with config CSVs + plume.json (defaults packaged)")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train forecaster + converter at one beta")
    _add_train_flags(p)
    p.add_argument("--beta", type=float, default=TrainConfig.beta)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sweep", help="trade-off curve across betas")
    _add_train_flags(p)
    p.add_argument("--betas", type=_BETAS, default="0.5,0.998", help="comma-separated betas")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("predict", help="predict the health signal on the held-out span")
    p.add_argument("--dataset", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("schedule", help="simulate fleet charging strategies")
    p.add_argument("--signal", required=True)
    p.add_argument("--sessions", default=None)
    p.add_argument("--sample-config", dest="sample_config", default=None,
                   help="JSON sampling spec when --sessions is not given")
    p.add_argument("--out", required=True)
    p.add_argument("--strategy", choices=ALL_STRATEGIES, default=None,
                   help="report only this strategy's row (baselines still computed)")
    p.add_argument("--seed", type=_COUNT, default=0)
    p.set_defaults(func=cmd_schedule)

    for p in sub.choices.values():
        p.add_argument("--config", default=None, help="JSON file of flag defaults")
        p.allow_abbrev = False      # else sweep would read `--beta 0.9` as `--betas 0.9`
    return parser


def _apply_config_file(parser: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """Fold --config file values in as subcommand defaults; flags override.

    A value must pass argparse's type and choices checks of its flag.
    """
    probe = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    probe.add_argument("--config", default=None)
    known, _ = probe.parse_known_args(argv)
    if not known.config:
        return argv
    # locate the subparser for the invoked command
    command = next((a for a in argv if not a.startswith("-")), None)
    for action in parser._subparsers._group_actions:  # noqa: SLF001
        if command in action.choices:
            sub = action.choices[command]
            # the subcommand's own value flags; --help takes no value, --config names this file
            flags = {a.dest: a for a in sub._actions  # noqa: SLF001
                     if a.nargs != 0 and a.dest != "config"}
            overrides = read_json_object(known.config, optional=flags)
            for key, value in overrides.items():
                # a JSON string's text is its own, any other value's its JSON text
                text = value if isinstance(value, str) else json.dumps(value)
                try:
                    sub.set_defaults(**{key: sub._get_values(flags[key], [text])})  # noqa: SLF001
                except argparse.ArgumentError as exc:
                    raise GridHealthError(
                        f"{known.config}: bad value for key {key!r}: {exc}") from None
            break
    return argv


class _Terminated(BaseException):
    """SIGTERM arrived while a command ran; like KeyboardInterrupt, not an Exception."""


def _terminate(signum, frame):
    signal.signal(signal.SIGTERM, signal.SIG_IGN)   # one is enough: let the cleanup finish
    raise _Terminated


def main(argv: list[str] | None = None) -> int:
    """Run one command; after cleaning up, Ctrl-C returns 130 and SIGTERM ends the process."""
    if threading.current_thread() is not threading.main_thread():
        return _run(argv)       # only the main thread receives signals
    previous = signal.signal(signal.SIGTERM, _terminate)
    if previous is None:        # set outside Python; the default is the nearest match
        previous = signal.SIG_DFL
    try:
        return _run(argv)
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 128 + signal.SIGINT
    except _Terminated:
        signal.signal(signal.SIGTERM, previous)
        signal.raise_signal(signal.SIGTERM)
        return 128 + signal.SIGTERM     # the previous handler returned
    finally:
        signal.signal(signal.SIGTERM, previous)


def _run(argv: list[str] | None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        argv = _apply_config_file(parser, argv)
        args = parser.parse_args(argv)
        config = {k: v for k, v in vars(args).items()
                  if k not in ("func", "command") and not callable(v)}
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        # any exception, KeyboardInterrupt and SIGTERM included, discards the staged outputs
        with tempfile.TemporaryDirectory(dir=out.parent, prefix=f".{out.name}.") as staging:
            ctx = CommandContext(args.command, out, Path(staging), config)
            args.func(args, ctx)
            ctx.finish()
        return 0
    except (GridHealthError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
