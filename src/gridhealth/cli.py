"""Command-line pipeline driver.

One executable, six subcommands:

  ingest    raw fuel-mix CSV -> imputed, normalized dataset
  synth     synthetic region bundle (mix, SR matrix, oracle labels, configs)
  train     fit the forecaster + health converter, save a checkpoint
  sweep     independent training runs across beta, trade-off CSV
  predict   held-out-span health-signal predictions from a checkpoint
  schedule  fleet charging simulation against a health signal

Every command writes a manifest.json recording the resolved configuration,
sha-256 digests of its inputs, and its outputs; reruns with identical
manifest inputs produce byte-identical CSVs. On failure all partial
outputs are removed and the exit code is nonzero.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import shutil
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .errors import GridHealthError
from .forecaster import (
    ATTENTION,
    LINEAR_BASELINE,
    TrainConfig,
    TrainingData,
    beta_sweep,
    build_models,
    load_checkpoint,
    forecast_heldout,
    save_checkpoint,
    train,
)
from .health import SIGNAL_HEADER, load_signals_csv, write_signals_csv
from .ingest import (
    IMPUTED,
    FuelCategoryMap,
    impute_missing,
    load_fuel_mix,
    normalize_mix,
    open_csv,
    write_fuel_mix_csv,
    write_hourly_csv,
)
from .scheduler import (
    ALL_STRATEGIES,
    STRATEGY_CONTINUOUS,
    STRATEGY_FIRST,
    STRATEGY_LATEST,
    evaluate_fleet,
    load_sessions,
    sample_sessions,
    write_sessions,
)
from .synth import (
    CONFIG_FILES,
    PlumeSpec,
    default_config_path,
    load_config_dir,
    oracle_labels,
    synthetic_mix_series,
)
from .dispersion import build_plume_matrix
from .emissions import EmissionFactorTable


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


class CommandContext:
    """Tracks inputs/outputs of one command so failures can roll back."""

    def __init__(self, command: str, out_dir: Path, config: dict):
        self.command = command
        self.out_dir = out_dir
        self.config = config
        self.inputs: dict[str, str] = {}
        self.outputs: list[Path] = []
        self.started = time.monotonic()

    def register_input(self, path: str | Path | None):
        if path is None:
            return
        path = Path(path)
        self.inputs[str(path)] = _sha256(path)

    def output(self, name: str) -> Path:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / name
        self.outputs.append(path)
        return path

    def rollback(self):
        for path in self.outputs:
            if path.exists():
                path.unlink()

    def finish(self):
        for path in self.outputs:
            if not path.exists() or path.stat().st_size == 0:
                raise GridHealthError(f"output {path} missing or empty")
        manifest = {
            "command": self.command,
            "tool_version": __version__,
            "config": self.config,
            "inputs": self.inputs,
            "outputs": [str(p) for p in self.outputs],
            "seed": self.config.get("seed"),
            "wall_time_s": round(time.monotonic() - self.started, 3),
        }
        path = self.out_dir / "manifest.json"
        path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _load_canonical_mix(path: str | Path):
    """Load a dataset CSV whose columns are already canonical fuels."""
    with open_csv(path) as reader:
        header = next(reader, [])
    identity = FuelCategoryMap({name: name for name in header[1:]})
    return load_fuel_mix(path, identity)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _fmt(x: float) -> str:
    return repr(float(x))


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
    for name in CONFIG_FILES:
        src = config_src / name
        ctx.register_input(src)
        shutil.copyfile(src, ctx.output(name))

    factors = EmissionFactorTable.from_csv(config_src / "emission_factors.csv")
    spec = PlumeSpec.from_json(config_src / "plume.json")
    matrix = build_plume_matrix(
        spec.params, len(spec.receptor_ids), len(factors.pollutant_names),
        receptor_ids=spec.receptor_ids, pollutant_names=factors.pollutant_names,
    )
    matrix.to_csv(ctx.output("sr_matrix.csv"))

    series = synthetic_mix_series(args.hours, args.seed)
    write_fuel_mix_csv(ctx.output("fuel_mix.csv"), series)

    config = load_config_dir(ctx.out_dir)
    labels = oracle_labels(series, config)
    write_signals_csv(ctx.output("labels.csv"), labels)
    costs = np.array([(s.internal_cost, s.external_cost) for s in labels])
    print(f"hours: {args.hours}")
    for name, column in zip(("internal", "external"), costs.T):
        print(f"{name}_usd_per_mwh: mean={column.mean():.3f} min={column.min():.3f} "
              f"max={column.max():.3f}")


def _load_training_data(args, ctx) -> TrainingData:
    ctx.register_input(args.dataset)
    ctx.register_input(args.labels)
    series = _load_canonical_mix(args.dataset)
    signals = load_signals_csv(args.labels)
    return TrainingData.from_series(series, signals)


def _train_config(args) -> TrainConfig:
    return TrainConfig(beta=args.beta, window=args.window, epochs=args.epochs,
                       step_size=args.lr, batch_size=args.batch, seed=args.seed)


def cmd_train(args, ctx: CommandContext) -> None:
    data = _load_training_data(args, ctx)
    cfg = _train_config(args)
    model, converter = build_models(data.mixes.shape[1], cfg, architecture=args.arch)
    model, converter, history = train(model, converter, data, cfg)
    save_checkpoint(ctx.output("checkpoint.json"), model, converter)
    _write_csv(ctx.output("loss_history.csv"),
               ["epoch", "train_loss", "val_loss"],
               [[h["epoch"], _fmt(h["train_loss"]), _fmt(h["val_loss"])] for h in history])
    if history:
        print(f"epochs: {len(history)}")
        print(f"final_train_loss: {history[-1]['train_loss']:.6g}")
        print(f"final_val_loss: {history[-1]['val_loss']:.6g}")
    else:
        print("epochs: 0 (checkpoint equals initialization)")


def cmd_sweep(args, ctx: CommandContext) -> None:
    data = _load_training_data(args, ctx)
    cfg = _train_config(args)
    betas = [float(b) for b in args.betas.split(",") if b.strip()]
    points = beta_sweep(data, betas, cfg, architecture=args.arch)
    _write_csv(ctx.output("tradeoff.csv"),
               ["beta", "fuel_nmae", "health_nmae"],
               [[_fmt(p.beta), _fmt(p.fuel_nmae), _fmt(p.health_nmae)] for p in points])
    for p in points:
        print(f"beta={p.beta}: fuel_nmae={p.fuel_nmae:.6g} health_nmae={p.health_nmae:.6g}")


def cmd_predict(args, ctx: CommandContext) -> None:
    ctx.register_input(args.dataset)
    ctx.register_input(args.checkpoint)
    series = _load_canonical_mix(args.dataset)
    model, converter = load_checkpoint(args.checkpoint)
    ctx.config["window"] = model.window
    # Evaluation protocol: non-overlapping windows tiling the held-out span.
    _, pred_impacts, stamps = forecast_heldout(
        model, converter, series.shares, series.timestamps, model.window,
        TrainConfig.test_fraction)
    bad = ~(np.isfinite(pred_impacts) & (pred_impacts >= 0)).all(axis=1)
    if bad.any():
        i = int(np.argmax(bad))
        raise GridHealthError(f"predicted health costs at hour {stamps[i]} are not finite "
                              f"and nonnegative: {pred_impacts[i].tolist()}")
    write_hourly_csv(ctx.output("predicted_signal.csv"), SIGNAL_HEADER, stamps, pred_impacts)
    print(f"predicted_hours: {len(stamps)}")
    print(f"first_hour: {stamps[0]} last_hour: {stamps[-1]}")


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
        spec = json.loads(Path(args.sample_config).read_text())
        n_days = max(1, len(signals) // 24 - 1)
        sessions = sample_sessions(
            count=int(spec["count"]),
            arrival_dist=spec["arrival_hist"],
            departure_dist=spec["departure_hist"],
            demand_dist=spec["demand"],
            rate=float(spec["rate_kw"]),
            seed=args.seed,
            days=int(spec.get("days", n_days)),
            start_hour=signals[0].timestamp,
        )
        write_sessions(ctx.output("sessions.csv"), sessions)
    # baselines are always computed so the reduction columns stay defined
    totals = evaluate_fleet(sessions, signals, ALL_STRATEGIES)
    report = ALL_STRATEGIES if args.strategy is None else (args.strategy,)

    def reduction(total: float, baseline: float) -> float:
        return 100.0 * (baseline - total) / baseline if baseline > 0 else 0.0

    rows = []
    for strategy in report:
        t = totals[strategy]
        rows.append([
            strategy, _fmt(t),
            _fmt(reduction(t, totals[STRATEGY_FIRST])),
            _fmt(reduction(t, totals[STRATEGY_LATEST])),
            _fmt(reduction(t, totals[STRATEGY_CONTINUOUS])),
        ])
    _write_csv(ctx.output("results.csv"),
               ["strategy", "total_usd", "reduction_vs_first_pct",
                "reduction_vs_latest_pct", "reduction_vs_continuous_pct"],
               rows)
    for strategy in report:
        print(f"{strategy}: total_usd={totals[strategy]:.4f}")


# -- argument plumbing -----------------------------------------------------------

def _add_train_flags(p: argparse.ArgumentParser):
    p.add_argument("--dataset", required=True, help="canonical fuel-mix CSV")
    p.add_argument("--labels", required=True, help="health-signal labels CSV")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--beta", type=float, default=0.5)
    p.add_argument("--window", type=int, choices=(24, 72), default=24)
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--lr", type=float, default=0.004)
    p.add_argument("--batch", type=int, default=128)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--arch", choices=(ATTENTION, LINEAR_BASELINE), default=ATTENTION)


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
    p.add_argument("--period", type=int, default=24)
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("synth", help="generate a synthetic region bundle")
    p.add_argument("--out", required=True)
    p.add_argument("--hours", type=int, default=2160)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config-dir", dest="config_dir", default=None,
                   help="directory with config CSVs + plume.json (defaults packaged)")
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train forecaster + converter at one beta")
    _add_train_flags(p)
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sweep", help="trade-off curve across betas")
    _add_train_flags(p)
    p.add_argument("--betas", default="0.5,0.998", help="comma-separated betas")
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("predict", help="predict the health signal on the held-out span")
    p.add_argument("--dataset", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("schedule", help="simulate fleet charging strategies")
    p.add_argument("--signal", required=True)
    p.add_argument("--sessions", default=None)
    p.add_argument("--sample-config", dest="sample_config", default=None,
                   help="JSON sampling spec when --sessions is not given")
    p.add_argument("--out", required=True)
    p.add_argument("--strategy", choices=ALL_STRATEGIES, default=None,
                   help="report only this strategy's row (baselines still computed)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--config", default=None)
    p.set_defaults(func=cmd_schedule)
    return parser


def _apply_config_file(parser: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """Fold --config file values in as subcommand defaults; flags override."""
    probe = argparse.ArgumentParser(add_help=False)
    probe.add_argument("--config", default=None)
    known, _ = probe.parse_known_args(argv)
    if not known.config:
        return argv
    overrides = json.loads(Path(known.config).read_text())
    if not isinstance(overrides, dict):
        raise GridHealthError(f"{known.config}: config must be a JSON object")
    # locate the subparser for the invoked command
    command = next((a for a in argv if not a.startswith("-")), None)
    for action in parser._subparsers._group_actions:  # noqa: SLF001
        if command in action.choices:
            sub = action.choices[command]
            valid = {a.dest for a in sub._actions}  # noqa: SLF001
            unknown = set(overrides) - valid
            if unknown:
                raise GridHealthError(f"unknown config keys: {sorted(unknown)}")
            sub.set_defaults(**overrides)
            break
    return argv


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        argv = _apply_config_file(parser, argv)
        args = parser.parse_args(argv)
        config = {k: v for k, v in vars(args).items()
                  if k not in ("func", "command") and not callable(v)}
        ctx = CommandContext(args.command, Path(args.out), config)
        try:
            args.func(args, ctx)
            ctx.finish()
        except BaseException:
            ctx.rollback()
            raise
        return 0
    except GridHealthError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
