"""Loading, imputation, and canonicalization of hourly fuel-mix data.

The on-disk contract is a CSV with header ``timestamp,<fuel_1>,...,<fuel_F>``
where the timestamp is either an integer hour index or an ISO-8601 hour
(minutes and seconds zero), the same kind on every row, and an empty cell
marks a missing observation. Raw column labels are resolved
to canonical fuel identifiers through a :class:`FuelCategoryMap`; labels
mapped to ``EXCLUDED`` are dropped before any further processing.

Gap filling is two-step: single-hour gaps are linearly interpolated from
their immediate neighbors, and anything left is filled from the mean of
observed values at the same hour-of-period on the nearest available days,
expanding the day radius symmetrically until a donor is found.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from datetime import datetime
from pathlib import Path

import numpy as np

from .errors import (
    MalformedRow,
    NegativeShare,
    NonMonotonicTimestamp,
    NoPlantForFuel,
    UnimputableSeries,
    UnmappedLabel,
    ZeroRowSum,
)

OBSERVED = 0
IMPUTED = 1
MISSING = 2

EXCLUDED = "EXCLUDED"

# EIA-style canonical fuel vocabulary; OIL may legitimately be all-zero
# (e.g. regions folding petroleum into "other").
CANONICAL_FUELS = ("COL", "NG", "OIL", "NUC", "WAT", "WND", "SUN", "OTH")
ZERO_EMISSION_FUELS = frozenset({"NUC", "WAT", "WND", "SUN"})


@dataclass
class FuelMixRecord:
    """One hour of generation shares with per-entry observation flags."""

    timestamp: int
    shares: np.ndarray
    flags: np.ndarray
    fuel_names: tuple[str, ...]

    def __post_init__(self):
        self.shares = np.asarray(self.shares, dtype=np.float64)
        self.flags = np.asarray(self.flags, dtype=np.int8)
        self.fuel_names = tuple(self.fuel_names)
        if not (self.shares.shape == self.flags.shape == (len(self.fuel_names),)):
            raise ValueError("shares, flags, and fuel_names disagree on F")


@dataclass
class FuelMixSeries:
    """An hourly fuel-mix series stored columnwise for fast math.

    `shares` is (N, F) with NaN at missing entries, `flags` the matching
    (N, F) observation markers, `timestamps` strictly increasing hour
    indices with step 1.
    """

    timestamps: np.ndarray
    shares: np.ndarray
    flags: np.ndarray
    fuel_names: tuple[str, ...]

    def __post_init__(self):
        self.timestamps = np.asarray(self.timestamps, dtype=np.int64)
        self.shares = np.asarray(self.shares, dtype=np.float64)
        self.flags = np.asarray(self.flags, dtype=np.int8)
        self.fuel_names = tuple(self.fuel_names)
        if len(set(self.fuel_names)) != len(self.fuel_names):
            raise ValueError("duplicate fuel names")
        n, f = self.shares.shape
        if self.flags.shape != (n, f) or self.timestamps.shape != (n,):
            raise ValueError("inconsistent series dimensions")
        if len(self.fuel_names) != f:
            raise ValueError("fuel_names does not match share columns")
        if n > 1 and not np.all(np.diff(self.timestamps) == 1):
            raise NonMonotonicTimestamp("timestamps must increase in 1-hour steps")

    def __len__(self):
        return self.shares.shape[0]

    @property
    def records(self) -> list[FuelMixRecord]:
        return [
            FuelMixRecord(int(t), self.shares[i].copy(), self.flags[i].copy(), self.fuel_names)
            for i, t in enumerate(self.timestamps)
        ]

    def record(self, i: int) -> FuelMixRecord:
        return FuelMixRecord(
            int(self.timestamps[i]), self.shares[i].copy(), self.flags[i].copy(), self.fuel_names
        )

    def copy(self) -> "FuelMixSeries":
        return FuelMixSeries(
            self.timestamps.copy(), self.shares.copy(), self.flags.copy(), self.fuel_names
        )


@dataclass
class FuelCategoryMap:
    """Total mapping from raw source labels to canonical fuels or EXCLUDED."""

    entries: dict[str, str] = field(default_factory=dict)

    def lookup(self, raw_label: str) -> str:
        try:
            return self.entries[raw_label]
        except KeyError:
            raise UnmappedLabel(f"no category mapping for label {raw_label!r}") from None

    @classmethod
    def from_csv(cls, path: str | Path) -> "FuelCategoryMap":
        entries: dict[str, str] = {}
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or [c.strip() for c in header[:2]] != ["raw_label", "canonical"]:
                raise MalformedRow(f"{path}: expected header 'raw_label,canonical'")
            for row in reader:
                if len(row) != 2:
                    raise MalformedRow(f"{path}: bad map row {row!r}")
                entries[row[0].strip()] = row[1].strip()
        return cls(entries)


@dataclass
class PlantRecord:
    """One generation plant with its allocation basis and emission rates."""

    plant_id: str
    region_id: str
    fuel: str
    capacity_share_basis: float
    emission_rates: dict[str, float]

    def __post_init__(self):
        if self.capacity_share_basis < 0:
            raise ValueError(f"plant {self.plant_id}: negative capacity basis")
        for k, v in self.emission_rates.items():
            if v < 0:
                raise ValueError(f"plant {self.plant_id}: negative rate for {k}")


def load_plants(path: str | Path) -> list[PlantRecord]:
    """Read a plant registry CSV: plant_id,region_id,fuel,capacity_basis,<pollutants...>."""
    plants = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or header[:4] != ["plant_id", "region_id", "fuel", "capacity_basis"]:
            raise MalformedRow(f"{path}: bad plant registry header")
        pollutants = [c.strip() for c in header[4:]]
        for row in reader:
            if len(row) != len(header):
                raise MalformedRow(f"{path}: wrong arity in row {row!r}")
            try:
                basis = float(row[3])
                rates = {p: float(v) for p, v in zip(pollutants, row[4:])}
            except ValueError as exc:
                raise MalformedRow(f"{path}: bad number in row {row!r}") from exc
            plants.append(PlantRecord(row[0], row[1], row[2], basis, rates))
    return plants


def _parse_timestamp(text: str, path: str | Path, row_no: int) -> tuple[bool, int | datetime]:
    text = text.strip()
    try:
        return True, int(text)
    except ValueError:
        pass
    for fmt in ("%Y-%m-%dT%H:%M:%S", "%Y-%m-%d %H:%M:%S", "%Y-%m-%dT%H:%M",
                "%Y-%m-%d %H:%M", "%Y-%m-%dT%H", "%Y-%m-%d %H"):
        try:
            return False, datetime.strptime(text, fmt)
        except ValueError:
            continue
    raise MalformedRow(f"{path}: row {row_no}: unparseable timestamp {text!r}")


def load_fuel_mix(path: str | Path, category_map: FuelCategoryMap) -> FuelMixSeries:
    """Load a raw fuel-mix CSV into a series; no imputation or normalization.

    Columns mapped to the same canonical fuel are summed; a canonical entry
    is flagged missing if any of its contributing cells is empty. Columns
    mapped to EXCLUDED are dropped entirely.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or not header or header[0].strip() != "timestamp":
            raise MalformedRow(f"{path}: first header column must be 'timestamp'")
        raw_labels = [c.strip() for c in header[1:]]
        targets = [category_map.lookup(label) for label in raw_labels]

        fuel_names: list[str] = []
        for t in targets:
            if t != EXCLUDED and t not in fuel_names:
                fuel_names.append(t)
        col_of = {name: j for j, name in enumerate(fuel_names)}
        n_fuels = len(fuel_names)

        timestamps: list[int] = []
        share_rows: list[np.ndarray] = []
        flag_rows: list[np.ndarray] = []
        epoch: datetime | None = None
        integer_stamps: bool | None = None

        for row_no, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise MalformedRow(
                    f"{path}: row {row_no}: expected {len(header)} cells, got {len(row)}")
            is_int, ts = _parse_timestamp(row[0], path, row_no)
            if integer_stamps is None:
                integer_stamps = is_int
            elif is_int != integer_stamps:
                raise MalformedRow(f"{path}: row {row_no}: mixes integer and ISO timestamps")
            if is_int:
                hour = ts
            else:
                if ts.minute or ts.second:
                    raise MalformedRow(
                        f"{path}: row {row_no}: timestamp {row[0].strip()!r} is not on the hour")
                if epoch is None:
                    epoch = ts
                delta = ts - epoch
                hour = int(delta.total_seconds() // 3600)
            timestamps.append(hour)

            shares = np.zeros(n_fuels)
            missing = np.zeros(n_fuels, dtype=bool)
            for cell, target in zip(row[1:], targets):
                if target == EXCLUDED:
                    continue
                j = col_of[target]
                text = cell.strip()
                if text == "":
                    missing[j] = True
                    continue
                try:
                    value = float(text)
                except ValueError as exc:
                    raise MalformedRow(f"{path}: row {row_no}: bad float {text!r}") from exc
                if not math.isfinite(value):
                    raise MalformedRow(f"{path}: row {row_no}: non-finite value {text!r}")
                if value < 0:
                    raise MalformedRow(f"{path}: row {row_no}: negative share {value}")
                shares[j] += value
            shares[missing] = np.nan
            flags = np.where(missing, MISSING, OBSERVED).astype(np.int8)
            share_rows.append(shares)
            flag_rows.append(flags)

    if not share_rows:
        raise MalformedRow(f"{path}: no data rows")
    ts_arr = np.asarray(timestamps, dtype=np.int64)
    if len(ts_arr) > 1 and not np.all(np.diff(ts_arr) == 1):
        raise NonMonotonicTimestamp(f"{path}: timestamps must advance by exactly 1 hour")
    return FuelMixSeries(ts_arr, np.vstack(share_rows), np.vstack(flag_rows), tuple(fuel_names))


def impute_missing(series: FuelMixSeries, period: int = 24) -> FuelMixSeries:
    """Fill missing entries; returns a new series with no missing flags.

    Step 1 replaces each missing entry whose hour neighbors (t-1, t+1) are
    both observed with their midpoint. Step 2 fills the rest with the mean
    of observed values at the same hour-of-period, searching +-1 day, +-2
    days, ... and averaging every donor found at the first nonempty radius.
    Only originally observed values serve as interpolants or donors.
    """
    n = len(series)
    if n < 2 * period:
        raise UnimputableSeries(f"need at least {2 * period} records, have {n}")
    out = series.copy()
    observed = series.flags == OBSERVED
    missing = series.flags == MISSING

    # Step 1: single-hour gaps bounded by observed neighbors.
    for t, f in zip(*np.nonzero(missing)):
        if 0 < t < n - 1 and observed[t - 1, f] and observed[t + 1, f]:
            out.shares[t, f] = 0.5 * (series.shares[t - 1, f] + series.shares[t + 1, f])
            out.flags[t, f] = IMPUTED

    # Step 2: daily-cycle donors at expanding day radius.
    still = out.flags == MISSING
    max_radius = n // period + 1
    for t, f in zip(*np.nonzero(still)):
        filled = False
        for radius in range(1, max_radius + 1):
            donors = []
            for cand in (t - radius * period, t + radius * period):
                if 0 <= cand < n and observed[cand, f]:
                    donors.append(series.shares[cand, f])
            if donors:
                out.shares[t, f] = float(np.mean(donors))
                out.flags[t, f] = IMPUTED
                filled = True
                break
        if not filled:
            pos = int(series.timestamps[t]) % period
            raise UnimputableSeries(
                f"no observed value for fuel {series.fuel_names[f]!r} at hour-of-period {pos}"
            )
    return out


def normalize_mix(series: FuelMixSeries) -> FuelMixSeries:
    """Rescale every record onto the probability simplex."""
    if np.any(series.flags == MISSING):
        raise ValueError("normalize_mix requires an imputed series (no missing flags)")
    if np.any(series.shares < 0):
        t = int(np.nonzero((series.shares < 0).any(axis=1))[0][0])
        raise NegativeShare(f"negative share at hour {series.timestamps[t]}")
    sums = series.shares.sum(axis=1)
    if np.any(sums <= 0):
        t = int(np.nonzero(sums <= 0)[0][0])
        raise ZeroRowSum(f"record at hour {series.timestamps[t]} sums to zero")
    out = series.copy()
    out.shares = series.shares / sums[:, None]
    return out


def allocate_generation(
    demand_mwh: float, mix: FuelMixRecord, plants: list[PlantRecord]
) -> dict[str, float]:
    """Split demand across plants, fuel by fuel, proportional to capacity basis."""
    if demand_mwh < 0:
        raise ValueError("demand must be nonnegative")
    by_fuel: dict[str, list[PlantRecord]] = {}
    for p in plants:
        by_fuel.setdefault(p.fuel, []).append(p)

    allocation = {p.plant_id: 0.0 for p in plants}
    for j, fuel in enumerate(mix.fuel_names):
        share = float(mix.shares[j])
        if share <= 0:
            continue
        candidates = [p for p in by_fuel.get(fuel, []) if p.capacity_share_basis > 0]
        if not candidates:
            raise NoPlantForFuel(f"no plant with positive capacity for fuel {fuel!r}")
        total_basis = sum(p.capacity_share_basis for p in candidates)
        for p in candidates:
            allocation[p.plant_id] += demand_mwh * share * p.capacity_share_basis / total_basis
    return allocation


def write_fuel_mix_csv(path: str | Path, series: FuelMixSeries) -> None:
    """Write a series back out in the standard fuel-mix CSV schema."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["timestamp", *series.fuel_names])
        for i, t in enumerate(series.timestamps):
            writer.writerow([int(t), *[repr(float(v)) for v in series.shares[i]]])
