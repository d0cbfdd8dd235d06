"""The three benchmark workloads: their inputs, their CLI stages, and their checks.

Every workload is a fixed sequence of three `gridhealth` CLI stages. The
inputs are generated here from the workload seed with numpy only, so the
program under test sees nothing but files. The checks read only the files
the CLI wrote, so the package internals can change without touching them.

  pipeline  stage1 ingest of a one-year raw CSV with gaps
            stage2 synth --hours 8760
            stage3 schedule --sessions: a generated 20,000-session fleet
                   against stage2's one-year signal
  forecast  stage1 train --beta 0.5
            stage2 sweep --betas 0.5,0.9,0.998 (same epochs and seed)
            stage3 predict on stage1's checkpoint
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np

CANONICAL = ("COL", "NG", "OIL", "NUC", "WAT", "WND", "SUN", "OTH")
# EIA-style raw labels: DFO and RFO sum into OIL, battery storage is excluded.
RAW_LABELS = ("coal", "natural_gas", "DFO", "RFO", "nuclear", "hydro", "wind",
              "solar", "other", "battery_storage")
RAW_TARGET = ("COL", "NG", "OIL", "OIL", "NUC", "WAT", "WND", "SUN", "OTH", "EXCLUDED")

BETAS = (0.5, 0.9, 0.998)
TRAIN_SEED = 0
RATES_KW = (3.6, 7.2, 11.0)
STRATEGIES = ("optimal", "first_hours", "latest_hours", "continuous")
REL_TOL = 1e-9


@dataclass(frozen=True)
class Sizes:
    """Input sizes; `FULL` is what the benchmark measures, `TINY` the self-test."""

    pipeline_hours: int
    bundle_hours: int
    epochs: int
    fleet_sessions: int


FULL = Sizes(pipeline_hours=8760, bundle_hours=2160, epochs=1, fleet_sessions=20000)
TINY = Sizes(pipeline_hours=480, bundle_hours=480, epochs=1, fleet_sessions=400)


class CheckFailed(Exception):
    """An output of the program under test is wrong."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _table(path: Path, header: list[str]) -> np.ndarray:
    rows = _rows(path)
    _require(bool(rows) and rows[0] == header, f"{path.name}: header {rows[:1]} != {header}")
    _require(len(rows) > 1, f"{path.name}: no data rows")
    try:
        return np.array([[float(x) for x in r] for r in rows[1:]], dtype=np.float64)
    except ValueError as exc:
        raise CheckFailed(f"{path.name}: {exc}") from None


def _close(a: float, b: float, what: str) -> None:
    _require(math.isfinite(a) and math.isfinite(b)
             and abs(a - b) <= REL_TOL * max(abs(a), abs(b)),
             f"{what}: {a!r} vs {b!r} differ by more than {REL_TOL} relative")


def read_signal(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """(timestamps, (N, 2) internal/external $/MWh) from a signal CSV."""
    t = _table(path, ["timestamp", "internal_usd_per_mwh", "external_usd_per_mwh"])
    return t[:, 0].astype(np.int64), t[:, 1:]


def check_signal(path: Path, hours: int) -> None:
    stamps, values = read_signal(path)
    _require(len(stamps) == hours, f"{path.name}: {len(stamps)} rows for {hours} hours")
    _require(np.array_equal(stamps, np.arange(hours)), f"{path.name}: not one row per hour")
    _require(bool(np.all(np.isfinite(values))), f"{path.name}: non-finite label")
    _require(bool(np.all(values >= 0)), f"{path.name}: negative label")


# -- pipeline: ingest ----------------------------------------------------------

def _raw_mix(hours: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Raw MWh per raw label (hours, 10) and the canonical missing mask (hours, 8)."""
    t = np.arange(hours)
    hod = t % 24
    doy = (t // 24) % 365
    daylight = np.clip(np.sin(np.pi * (hod - 6.0) / 12.0), 0.0, None)
    evening = np.exp(-((hod - 19.0) ** 2) / 8.0)
    demand = 20000.0 * (1.0 + 0.15 * evening + 0.05 * np.cos(2 * np.pi * doy / 365.0))

    def jitter(scale):
        return 1.0 + scale * rng.standard_normal(hours)

    share = np.column_stack([
        0.14 * (1 + 0.4 * evening) * jitter(0.1),                 # coal
        0.30 * (1 + 0.8 * evening - 0.3 * daylight) * jitter(0.1),  # natural gas
        0.006 * (1 + evening) * jitter(0.2),                      # DFO
        0.004 * (1 + evening) * jitter(0.2),                      # RFO
        0.18 * jitter(0.01),                                      # nuclear
        0.07 * jitter(0.05),                                      # hydro
        0.15 * (1.2 - 0.4 * daylight) * np.abs(jitter(0.4)),      # wind
        0.22 * daylight * jitter(0.08),                           # solar
        0.02 * jitter(0.05),                                      # other
    ])
    mwh = np.round(demand[:, None] * np.clip(share, 0.0, None), 3)
    battery = np.round(rng.uniform(-300.0, 300.0, hours), 3)   # excluded, may be negative
    raw = np.column_stack([mwh, battery])

    missing = np.zeros((hours, len(CANONICAL)), dtype=bool)
    # scattered single-hour gaps with observed neighbours (step 1 of imputation)
    for _ in range(max(1, hours // 100)):
        i, f = int(rng.integers(2, hours - 2)), int(rng.integers(len(CANONICAL)))
        if not missing[i - 1:i + 2, f].any():
            missing[i, f] = True
    # multi-hour outages, of one fuel or of a whole row (step 2: daily donors)
    for _ in range(max(1, hours // 350)):
        length = int(rng.integers(2, 11))
        i = int(rng.integers(0, hours - length))
        if rng.random() < 0.4:
            missing[i:i + length, :] = True
        else:
            missing[i:i + length, int(rng.integers(len(CANONICAL)))] = True
    return raw, missing


def write_raw_csv(path: Path, hours: int, seed: int) -> int:
    """Write the raw ingest input; returns the number of missing canonical entries."""
    rng = np.random.default_rng(seed)
    raw, missing = _raw_mix(hours, rng)
    epoch = datetime(2023, 1, 1)
    oil_pick = rng.integers(0, 3, hours)  # which of DFO / RFO / both a missing OIL blanks
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["timestamp", *RAW_LABELS])
        for i in range(hours):
            cells = [f"{v:.3f}" for v in raw[i]]
            for j, target in enumerate(RAW_TARGET):
                if target == "EXCLUDED" or not missing[i, CANONICAL.index(target)]:
                    continue
                if target == "OIL" and oil_pick[i] != 2 and oil_pick[i] != j - 2:
                    continue
                cells[j] = ""
            stamp = (epoch + timedelta(hours=i)).strftime("%Y-%m-%dT%H:%M:%S")
            writer.writerow([stamp, *cells])
    return int(missing.sum())


def write_category_map(path: Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["raw_label", "canonical"])
        writer.writerows(zip(RAW_LABELS, RAW_TARGET))
        writer.writerows((c, c) for c in CANONICAL)


def _expected_shares(raw_csv: Path) -> tuple[np.ndarray, np.ndarray]:
    """Rows without gaps normalized by the benchmark itself: (row indices, shares)."""
    rows = _rows(raw_csv)
    keep, shares = [], []
    for i, row in enumerate(rows[1:]):
        if any(c == "" for c, tg in zip(row[1:], RAW_TARGET) if tg != "EXCLUDED"):
            continue
        acc = dict.fromkeys(CANONICAL, 0.0)
        for cell, tg in zip(row[1:], RAW_TARGET):
            if tg != "EXCLUDED":
                acc[tg] += float(cell)
        keep.append(i)
        shares.append([acc[c] for c in CANONICAL])
    arr = np.array(shares)
    return np.array(keep, dtype=np.int64), arr / arr.sum(axis=1)[:, None]


def check_ingest(out: Path, raw_csv: Path, hours: int, n_missing: int, stdout: str) -> None:
    table = _table(out / "dataset.csv", ["timestamp", *CANONICAL])
    _require(table.shape[0] == hours, f"dataset.csv: {table.shape[0]} rows for {hours} hours")
    _require(np.array_equal(table[:, 0], np.arange(hours)), "dataset.csv: bad hour index")
    shares = table[:, 1:]
    _require(bool(np.all(np.isfinite(shares))), "dataset.csv: MISSING entry left")
    _require(bool(np.all(shares >= 0)), "dataset.csv: negative share")
    _require(float(np.abs(shares.sum(axis=1) - 1.0).max()) <= 1e-12,
             "dataset.csv: a row does not sum to 1 within 1e-12")
    _require(f"imputed_entries: {n_missing}" in stdout.splitlines(),
             f"ingest did not report imputed_entries: {n_missing}")
    keep, expected = _expected_shares(raw_csv)
    _require(float(np.abs(shares[keep] - expected).max()) <= 1e-12,
             "dataset.csv: gap-free rows differ from their normalized input")


# -- forecast ------------------------------------------------------------------

def check_train(out: Path, epochs: int) -> None:
    loss = _table(out / "loss_history.csv", ["epoch", "train_loss", "val_loss"])
    _require(loss.shape[0] == epochs, f"loss_history.csv: {loss.shape[0]} epochs")
    _require(bool(np.all(np.isfinite(loss))), "loss_history.csv: non-finite loss")
    _require((out / "checkpoint.json").stat().st_size > 0, "empty checkpoint")


def read_tradeoff(path: Path) -> np.ndarray:
    t = _table(path, ["beta", "fuel_nmae", "health_nmae"])
    _require(t.shape[0] == len(BETAS), f"tradeoff.csv: {t.shape[0]} rows, want {len(BETAS)}")
    _require(np.array_equal(t[:, 0], np.array(BETAS)), "tradeoff.csv: wrong betas")
    _require(bool(np.all(np.isfinite(t[:, 1:]) & (t[:, 1:] > 0))), "tradeoff.csv: bad NMAE")
    return t


def _nmae(pred: np.ndarray, truth: np.ndarray) -> float:
    return float(np.abs(pred - truth).mean() / np.abs(truth).mean())


def heldout_health_nmae(predicted: Path, labels: Path) -> float:
    """Mean of internal and external NMAE of predicted_signal.csv against labels.csv."""
    p_stamps, pred = read_signal(predicted)
    l_stamps, truth = read_signal(labels)
    _require(len(p_stamps) > 0 and np.array_equal(np.diff(p_stamps), np.ones(len(p_stamps) - 1)),
             "predicted_signal.csv: hours not contiguous")
    _require(bool(np.all(np.isin(p_stamps, l_stamps))), "predicted_signal.csv: hour without label")
    truth = truth[np.searchsorted(l_stamps, p_stamps)]
    return 0.5 * (_nmae(pred[:, 0], truth[:, 0]) + _nmae(pred[:, 1], truth[:, 1]))


def check_forecast(train_out: Path, sweep_out: Path, predict_out: Path, labels: Path,
                   epochs: int) -> dict:
    """Run every forecast check; returns the beta=0.5 fuel_nmae and health_nmae."""
    check_train(train_out, epochs)
    tradeoff = read_tradeoff(sweep_out / "tradeoff.csv")
    fuel, health = float(tradeoff[0, 1]), float(tradeoff[0, 2])
    _close(heldout_health_nmae(predict_out / "predicted_signal.csv", labels), health,
           "predict health NMAE vs sweep beta=0.5 health_nmae")
    return {"fuel_nmae": fuel, "health_nmae": health}


# -- pipeline: fleet -----------------------------------------------------------

def write_sessions_csv(path: Path, count: int, horizon: int, seed: int) -> None:
    """Windows of 1-72 h anywhere in the horizon; ~5% zero demand, ~20% an exact
    multiple of the rate, the rest uniform up to what the window can deliver."""
    rng = np.random.default_rng(seed)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["session_id", "arrival", "departure", "demand_kwh", "rate_kw"])
        for i in range(count):
            w = int(rng.integers(1, min(72, horizon) + 1))
            arrival = int(rng.integers(0, horizon - w + 1))
            rate = RATES_KW[int(rng.integers(len(RATES_KW)))]
            u = rng.random()
            if u < 0.05:
                demand = 0.0
            elif u < 0.25:
                demand = int(rng.integers(1, w + 1)) * rate
            else:
                demand = float(rng.uniform(0.0, rate * w))
            writer.writerow([f"B{i:05d}", arrival, arrival + w - 1, repr(demand), repr(rate)])


def closed_form_optimal(sessions_csv: Path, labels: Path) -> float:
    """Fleet total of the optimal strategy: per session, rate x the n-1 cheapest
    slots plus the remainder x the n-th cheapest, n = slots needed."""
    rows = _rows(sessions_csv)
    _require(rows[0] == ["session_id", "arrival", "departure", "demand_kwh", "rate_kw"],
             f"{sessions_csv.name}: bad header")
    body = np.array([r[1:] for r in rows[1:]], dtype=np.float64)
    arrival, departure = body[:, 0].astype(np.int64), body[:, 1].astype(np.int64)
    demand, rate = body[:, 2], body[:, 3]
    stamps, signal = read_signal(labels)
    prices = (signal[:, 0] + signal[:, 1]) * 1e-3   # $/MWh -> $/kWh
    lo = arrival - stamps[0]
    width = departure - arrival + 1
    n = np.where(demand == 0, 0, np.ceil(demand / rate - 1e-9)).astype(np.int64)
    cost = np.zeros(len(body))
    for w in np.unique(width):
        sel = np.nonzero((width == w) & (n > 0))[0]
        if not len(sel):
            continue
        block = np.sort(prices[lo[sel, None] + np.arange(w)[None, :]], axis=1)
        below = np.concatenate([np.zeros((len(sel), 1)), np.cumsum(block, axis=1)], axis=1)
        k = n[sel] - 1
        remainder = demand[sel] - k * rate[sel]
        cost[sel] = rate[sel] * below[np.arange(len(sel)), k] + remainder * block[np.arange(len(sel)), k]
    return math.fsum(cost)


def check_schedule(out: Path, sessions_csv: Path, labels: Path, count: int) -> None:
    rows = _rows(out / "results.csv")
    _require(rows[0][:2] == ["strategy", "total_usd"], "results.csv: bad header")
    totals = {r[0]: float(r[1]) for r in rows[1:]}
    _require(tuple(totals) == STRATEGIES, f"results.csv: strategies {tuple(totals)}")
    _require(len(_rows(sessions_csv)) == count + 1, f"{sessions_csv.name}: not {count} sessions")
    optimal = totals["optimal"]
    for name in STRATEGIES[1:]:
        _require(optimal <= totals[name], f"optimal {optimal} above {name} {totals[name]}")
    _close(optimal, closed_form_optimal(sessions_csv, labels), "optimal total vs closed form")


# -- the workloads -------------------------------------------------------------

class Workload:
    """Inputs in `inputs`, three stages per round, checks on a round's outputs."""

    name = ""
    stage_names: tuple[str, str, str] = ("", "", "")
    # calls per stage in one round: a sub-second stage runs several times so
    # that its median rests on as many samples as the long stages' medians
    repeats: tuple[int, int, int] = (1, 1, 1)

    def __init__(self, sizes: Sizes, seed: int, inputs: Path):
        self.sizes = sizes
        self.seed = seed
        self.inputs = inputs

    def setup(self, cli_call) -> None:
        """Generate the inputs into `self.inputs`; `cli_call(argv)` runs the CLI."""
        raise NotImplementedError

    def stages(self, rdir: Path) -> list[list[str]]:
        raise NotImplementedError

    def check(self, rdir: Path, stdout: list[str]) -> dict | None:
        """Raise CheckFailed on a wrong output; may return quality figures."""
        raise NotImplementedError


class Pipeline(Workload):
    """The per-record code: ingest, the health chain behind synth, the scheduler."""

    name = "pipeline"
    stage_names = ("ingest", "synth", "schedule")
    repeats = (2, 1, 1)

    def setup(self, cli_call) -> None:
        self.inputs.mkdir(parents=True, exist_ok=True)
        self.n_missing = write_raw_csv(self.inputs / "raw_fuel_mix.csv",
                                       self.sizes.pipeline_hours, self.seed)
        write_category_map(self.inputs / "category_map.csv")
        write_sessions_csv(self.inputs / "sessions.csv", self.sizes.fleet_sessions,
                           self.sizes.pipeline_hours, self.seed)

    def stages(self, rdir: Path) -> list[list[str]]:
        return [
            ["ingest", "--mix", str(self.inputs / "raw_fuel_mix.csv"), "--category-map",
             str(self.inputs / "category_map.csv"), "--out", str(rdir / "stage1")],
            ["synth", "--out", str(rdir / "stage2"), "--hours", str(self.sizes.pipeline_hours),
             "--seed", str(self.seed)],
            ["schedule", "--signal", str(rdir / "stage2" / "labels.csv"),
             "--sessions", str(self.inputs / "sessions.csv"), "--out", str(rdir / "stage3")],
        ]

    def check(self, rdir: Path, stdout: list[str]) -> None:
        hours = self.sizes.pipeline_hours
        check_ingest(rdir / "stage1", self.inputs / "raw_fuel_mix.csv", hours, self.n_missing,
                     stdout[0])
        labels = rdir / "stage2" / "labels.csv"
        check_signal(labels, hours)
        check_schedule(rdir / "stage3", self.inputs / "sessions.csv", labels,
                       self.sizes.fleet_sessions)


class Forecast(Workload):
    """The README-default bundle through train, sweep and predict."""

    name = "forecast"
    stage_names = ("train", "sweep", "predict")
    repeats = (1, 1, 5)

    def setup(self, cli_call) -> None:
        cli_call(["synth", "--out", str(self.inputs / "bundle"),
                  "--hours", str(self.sizes.bundle_hours), "--seed", str(self.seed)])
        check_signal(self.labels, self.sizes.bundle_hours)

    @property
    def labels(self) -> Path:
        return self.inputs / "bundle" / "labels.csv"

    def stages(self, rdir: Path) -> list[list[str]]:
        bundle = self.inputs / "bundle"
        common = ["--dataset", str(bundle / "fuel_mix.csv"), "--labels", str(self.labels),
                  "--window", "24", "--epochs", str(self.sizes.epochs), "--lr", "0.004",
                  "--batch", "128", "--seed", str(TRAIN_SEED)]
        return [
            ["train", *common, "--beta", "0.5", "--out", str(rdir / "stage1")],
            ["sweep", *common, "--betas", ",".join(map(str, BETAS)), "--out", str(rdir / "stage2")],
            ["predict", "--dataset", str(bundle / "fuel_mix.csv"), "--checkpoint",
             str(rdir / "stage1" / "checkpoint.json"), "--out", str(rdir / "stage3")],
        ]

    def check(self, rdir: Path, stdout: list[str]) -> dict:
        return check_forecast(rdir / "stage1", rdir / "stage2", rdir / "stage3", self.labels,
                              self.sizes.epochs)


WORKLOADS = {w.name: w for w in (Pipeline, Forecast)}
