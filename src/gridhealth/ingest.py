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
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from itertools import islice
from operator import itemgetter
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

# Rows per block in the fuel-mix reader and the hourly writer; bounds their
# temporaries without a per-row cost.
_BLOCK_ROWS = 2048
_INT64_MIN, _INT64_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)
_HOUR = timedelta(hours=1)
_LAST_ISO_HOUR = datetime(9999, 12, 31, 23)   # later hours print with 5-digit years


@contextmanager
def open_csv(path: str | Path):
    """`csv.reader` over the UTF-8 file `path`.

    Bytes that are not UTF-8 and a cell over the csv module's field size
    limit raise MalformedRow naming the path, wherever the caller reads.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            yield reader
        except csv.Error as exc:
            raise MalformedRow(f"{path}:{reader.line_num}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise MalformedRow(f"{path}: not UTF-8 text ({exc.reason})") from exc


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
        with open_csv(path) as reader:
            header = next(reader, None)
            if header is None or [c.strip() for c in header[:2]] != ["raw_label", "canonical"]:
                raise MalformedRow(f"{path}: expected header 'raw_label,canonical'")
            first_line: dict[str, int] = {}
            for row in reader:
                where = f"{path}:{reader.line_num}"
                if len(row) != 2:
                    raise MalformedRow(f"{where}: bad map row {row!r}")
                label = row[0].strip()
                if label in entries:
                    raise MalformedRow(f"{where}: raw label {label!r} already mapped on line "
                                       f"{first_line[label]}")
                entries[label] = row[1].strip()
                first_line[label] = reader.line_num
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
    with open_csv(path) as reader:
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
        hour = int(text)
    except ValueError:
        pass
    else:
        if not _INT64_MIN <= hour <= _INT64_MAX:
            raise MalformedRow(f"{path}: row {row_no}: timestamp {text!r} out of range")
        return True, hour
    for fmt in ("%Y-%m-%dT%H:%M:%S", "%Y-%m-%d %H:%M:%S", "%Y-%m-%dT%H:%M",
                "%Y-%m-%d %H:%M", "%Y-%m-%dT%H", "%Y-%m-%d %H"):
        try:
            return False, datetime.strptime(text, fmt)
        except ValueError:
            continue
    raise MalformedRow(f"{path}: row {row_no}: unparseable timestamp {text!r}")


class _FuelMixBlocks:
    """One fuel-mix file's column layout and hour clock, read a block of rows at a time.

    A row whose stripped stamp equals the canonical text of the hour it
    should hold (``str(first + i)``, or ISO ``YYYY-MM-DDTHH:MM:SS`` counted
    from the first row) takes that hour without parsing; any other stamp
    goes through `_parse_timestamp`, so every accepted format still is.
    """

    def __init__(self, path: str | Path, width: int, kept: list[int], columns: list[int],
                 n_fuels: int):
        self.path = path
        self.width = width
        self.kept = kept
        self.columns = columns
        self.n_fuels = n_fuels
        # the kept cells of a row, as a tuple (itemgetter needs two or more indices)
        self.pick = itemgetter(*kept) if len(kept) > 1 else lambda row: tuple(row[k] for k in kept)
        self.integer_stamps: bool | None = None
        self.epoch: datetime | None = None
        self.first = 0          # hour of the first row
        self.n_canonical = 0    # rows past this many have no canonical stamp text

    def _start(self, text: str) -> None:
        is_int, ts = _parse_timestamp(text, self.path, 2)
        self.integer_stamps = is_int
        if is_int:
            self.first = ts
            self.n_canonical = _INT64_MAX - ts + 1
        else:
            self.epoch = ts
            self.n_canonical = (_LAST_ISO_HOUR - ts) // _HOUR + 1

    def _hour(self, text: str, row_no: int) -> int:
        is_int, ts = _parse_timestamp(text, self.path, row_no)
        if is_int != self.integer_stamps:
            raise MalformedRow(f"{self.path}: row {row_no}: mixes integer and ISO timestamps")
        if is_int:
            return ts
        if ts.minute or ts.second:
            raise MalformedRow(f"{self.path}: row {row_no}: timestamp {text!r} is not on the hour")
        return int((ts - self.epoch).total_seconds() // 3600)

    def _canonical(self, g0: int, n: int) -> list[str]:
        n = max(0, min(n, self.n_canonical - g0))
        if self.integer_stamps:
            return list(map(str, range(self.first + g0, self.first + g0 + n)))
        hours = np.datetime64(self.epoch, "h") + np.arange(g0, g0 + n)
        return np.datetime_as_string(hours, unit="s").tolist()

    def _raise_cell_fault(self, row: list[str], row_no: int) -> None:
        """Raise the first bad, non-finite or negative kept cell of `row`, left to right."""
        for cell in self.pick(row):
            text = cell.strip()
            if not text:
                continue
            try:
                value = float(text)
            except ValueError as exc:
                raise MalformedRow(f"{self.path}: row {row_no}: bad float {text!r}") from exc
            if not math.isfinite(value):
                raise MalformedRow(f"{self.path}: row {row_no}: non-finite value {text!r}")
            if value < 0:
                raise MalformedRow(f"{self.path}: row {row_no}: negative share {value}")

    def read(self, rows: list[list[str]], g0: int) -> tuple[np.ndarray, np.ndarray]:
        """Hours (n,) and summed shares (n, F) of the rows at file positions g0, g0+1, ...

        A block with any fault raises the error of its first faulty row,
        checked in file order: cell count, timestamp, then cells left to right.
        """
        stop = next((i for i, row in enumerate(rows) if len(row) != self.width), len(rows))
        fault = None
        if stop < len(rows):
            fault = MalformedRow(f"{self.path}: row {g0 + stop + 2}: expected {self.width} "
                                 f"cells, got {len(rows[stop])}")
            if stop == 0:
                raise fault
            rows = rows[:stop]
        texts = [row[0].strip() for row in rows]
        if self.integer_stamps is None:
            self._start(texts[0])
        canonical = self._canonical(g0, len(texts))
        hours = np.arange(g0, g0 + len(texts), dtype=np.int64)
        if self.integer_stamps:
            hours += self.first
        slow = [i for i, (text, want) in enumerate(zip(texts, canonical)) if text != want]
        for i in slow + list(range(len(canonical), len(texts))):
            try:
                hours[i] = self._hour(texts[i], g0 + i + 2)
            except MalformedRow as exc:
                fault = exc
                rows = rows[:i]
                break

        try:
            cells = [float(s) if (s := c.strip()) else math.nan
                     for row in rows for c in self.pick(row)]
        except ValueError:
            for i, row in enumerate(rows):
                self._raise_cell_fault(row, g0 + i + 2)
            raise
        values = np.array(cells, dtype=np.float64).reshape(len(rows), len(self.kept))
        bad = np.isinf(values) | (values < 0)
        for i, p in zip(*np.nonzero(np.isnan(values))):
            bad[i, p] = bool(rows[i][self.kept[p]].strip())   # a literal nan, not a gap
        flagged = np.flatnonzero(bad.any(axis=1))
        if flagged.size:
            self._raise_cell_fault(rows[flagged[0]], g0 + int(flagged[0]) + 2)
        if fault is not None:
            raise fault

        # aliased columns add in header order from zero, like a per-row `+=`
        shares = np.zeros((len(rows), self.n_fuels))
        for p, j in enumerate(self.columns):
            shares[:, j] += values[:, p]
        return hours, shares


def load_fuel_mix(path: str | Path, category_map: FuelCategoryMap) -> FuelMixSeries:
    """Load a raw fuel-mix CSV into a series; no imputation or normalization.

    Columns mapped to the same canonical fuel are summed; a canonical entry
    is flagged missing if any of its contributing cells is empty. Columns
    mapped to EXCLUDED are dropped entirely. Rows are read in blocks of
    at most `_BLOCK_ROWS`; the first faulty row in file order raises.
    """
    with open_csv(path) as reader:
        header = next(reader, None)
        if header is None or not header or header[0].strip() != "timestamp":
            raise MalformedRow(f"{path}: first header column must be 'timestamp'")
        raw_labels = [c.strip() for c in header[1:]]
        repeated = next((label for label, n in Counter(raw_labels).items() if n > 1), None)
        if repeated is not None:
            raise MalformedRow(f"{path}: header label {repeated!r} appears more than once")
        try:
            targets = [category_map.lookup(label) for label in raw_labels]
        except UnmappedLabel as exc:
            raise UnmappedLabel(f"{path}: {exc}") from None

        fuel_names = list(dict.fromkeys(t for t in targets if t != EXCLUDED))
        kept = [k for k, t in enumerate(targets, start=1) if t != EXCLUDED]
        columns = [fuel_names.index(targets[k - 1]) for k in kept]
        blocks = _FuelMixBlocks(path, len(header), kept, columns, len(fuel_names))
        hour_blocks, share_blocks = [], []
        n_rows = 0
        while rows := list(islice(reader, _BLOCK_ROWS)):
            hours, shares = blocks.read(rows, n_rows)
            hour_blocks.append(hours)
            share_blocks.append(shares)
            n_rows += len(rows)

    if not hour_blocks:
        raise MalformedRow(f"{path}: no data rows")
    ts_arr = np.concatenate(hour_blocks)
    if len(ts_arr) > 1 and not np.all(np.diff(ts_arr) == 1):
        raise NonMonotonicTimestamp(f"{path}: timestamps must advance by exactly 1 hour")
    shares = np.concatenate(share_blocks)
    flags = np.where(np.isnan(shares), MISSING, OBSERVED).astype(np.int8)
    return FuelMixSeries(ts_arr, shares, flags, tuple(fuel_names))


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


def write_hourly_csv(path: str | Path, header: list[str], timestamps: np.ndarray,
                     values: np.ndarray) -> None:
    """Write `header`, then one `timestamp,v_1,...,v_K` row per entry of `timestamps`.

    Each value is written as ``repr(float(v))``, so the file reads back to the
    same floats. Integer stamps and float reprs never need quoting, so the
    bytes are those `csv.writer` would give the same rows.
    """
    timestamps = np.asarray(timestamps, dtype=np.int64)
    values = np.asarray(values, dtype=np.float64)
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerow(header)
        for start in range(0, len(timestamps), _BLOCK_ROWS):
            block = slice(start, start + _BLOCK_ROWS)
            fh.writelines(",".join([str(t), *map(repr, row)]) + "\n"
                          for t, row in zip(timestamps[block].tolist(), values[block].tolist()))


def write_fuel_mix_csv(path: str | Path, series: FuelMixSeries) -> None:
    """Write a series back out in the standard fuel-mix CSV schema."""
    write_hourly_csv(path, ["timestamp", *series.fuel_names], series.timestamps, series.shares)
