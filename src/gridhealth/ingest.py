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
import json
import math
import re
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import (
    GridHealthError,
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

# Rows per block in `write_table`; bounds its temporaries without a per-row cost.
_BLOCK_ROWS = 2048
_INT64_MIN, _INT64_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)
_HOUR = timedelta(hours=1)
_LAST_ISO_HOUR = datetime(9999, 12, 31, 23)   # later hours print with 5-digit years
_ISO_FORMS = ("%Y-%m-%dT%H:%M:%S", "%Y-%m-%d %H:%M:%S", "%Y-%m-%dT%H:%M", "%Y-%m-%d %H:%M",
              "%Y-%m-%dT%H", "%Y-%m-%d %H")
_NEEDS_QUOTES = re.compile('[,"\r\n]')


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


@dataclass(eq=False)
class Table:
    """Parsed columns of one CSV file, one per header column; `lines[i]` is row i's line."""

    path: str | Path
    header: tuple[str, ...]
    columns: list[np.ndarray]
    lines: list[int]

    def __getitem__(self, name: str) -> np.ndarray:
        return self.columns[self.header.index(name)]

    def error(self, row: int, message: str) -> MalformedRow:
        return MalformedRow(f"{self.path}:{self.lines[row]}: {message}")

    def records(self, make) -> list:
        """`make(*cells)` per row; its ValueError becomes the row's MalformedRow."""
        out = []
        for i, cells in enumerate(zip(*(c.tolist() for c in self.columns))):
            try:
                out.append(make(*cells))
            except ValueError as exc:
                raise self.error(i, str(exc)) from exc
        return out


def read_table(path: str | Path, columns: list[tuple[str, Callable]],
               tail: Callable | None = None, key: tuple[str, ...] = ()) -> Table:
    """Read the CSV file `path` into parsed columns.

    The header is the names of `columns`, followed, given a `tail` parser,
    by any further columns it parses; no name may appear twice. A column
    parser, such as `as_str`, `as_int` or `as_float`, maps a column's name
    and cells to (values, None), or to (None, (row, message)) for its first
    bad cell. The first row with a wrong cell count or a bad cell, left to
    right, raises MalformedRow ``{path}:{line}: ...``; then the first row
    repeating a `key`.
    """
    names = tuple(name for name, _ in columns)
    with open_csv(path) as reader:
        header = tuple(c.strip() for c in next(reader, ()))
        if header[:len(names)] != names or (tail is None and len(header) != len(names)):
            raise MalformedRow(f"{path}: expected header "
                               f"{','.join(names)}{',<columns...>' if tail else ''}")
        repeated = next((name for name, n in Counter(header).items() if n > 1), None)
        if repeated is not None:
            raise MalformedRow(f"{path}: header label {repeated!r} appears more than once")
        rows, lines = [], []
        for row in reader:
            rows.append(row)
            lines.append(reader.line_num)
    n = next((i for i, row in enumerate(rows) if len(row) != len(header)), len(rows))
    cells = list(zip(*rows[:n])) if n else [()] * len(header)
    parsers = [parse for _, parse in columns] + [tail] * (len(header) - len(names))
    parsed = [parse(name, column) for name, parse, column in zip(header, parsers, cells)]
    t = Table(path, header, [values for values, _ in parsed], lines)
    faults = [fault for _, fault in parsed if fault]
    if faults:
        raise t.error(*min(faults, key=lambda f: f[0]))
    if n < len(rows):
        raise t.error(n, f"expected {len(header)} cells, got {len(rows[n])}")
    first: dict[tuple, int] = {}
    for i, value in enumerate(zip(*(t[name].tolist() for name in key))):
        if (j := first.setdefault(value, i)) != i:
            shown = value[0] if len(key) == 1 else value
            raise t.error(i, f"{'/'.join(key)} {shown!r} already on line {lines[j]}")
    return t


def write_table(path: str | Path, header: list[str], columns: list) -> None:
    """Write the CSV file `path`: the `header` row, then row i of `columns`.

    The inverse of `read_table`. A float cell is its `repr`, so it reads
    back exactly; an integer is its decimal; a string is as it is, unless it
    holds a comma, a double quote, CR or LF: then it is quoted, each double
    quote doubled. The header takes the string rule. Rows go out
    `_BLOCK_ROWS` at a time.
    """
    columns = [np.asarray(c) for c in columns]
    if len(columns) != len(header) or len({len(c) for c in columns}) > 1:
        raise ValueError("write_table needs one column per header name, all of one length")
    texts = [_CELL_TEXT[c.dtype.kind] for c in columns]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(map(_quote, header)) + "\n")
        for start in range(0, len(columns[0]) if columns else 0, _BLOCK_ROWS):
            cells = [map(text, c[start:start + _BLOCK_ROWS].tolist())
                     for text, c in zip(texts, columns)]
            fh.writelines(",".join(row) + "\n" for row in zip(*cells))


def _quote(text: str) -> str:
    """`text` as a CSV cell: quoted, each `"` doubled, when it holds `,`, `"`, CR or LF."""
    return '"' + text.replace('"', '""') + '"' if _NEEDS_QUOTES.search(text) else text


# The text of a cell, by its column's numpy dtype kind.
_CELL_TEXT = {"f": repr, "i": str, "u": str, "U": _quote}


def as_str(name: str, cells: tuple[str, ...]):
    """The cells stripped of surrounding whitespace."""
    return np.array([c.strip() for c in cells], dtype=str), None


def as_int(name: str, cells: tuple[str, ...]):
    """Python integers in the int64 range."""
    values, fault = _convert(name, cells, int, "an integer")
    if fault:
        return None, fault
    if values and not _INT64_MIN <= min(values) <= max(values) <= _INT64_MAX:
        i = next(i for i, v in enumerate(values) if not _INT64_MIN <= v <= _INT64_MAX)
        return None, (i, f"{name} {cells[i].strip()!r} out of range")
    return np.array(values, dtype=np.int64), None


def as_float(name: str, cells: tuple[str, ...]):
    """Anything Python's `float` reads, `nan` and `inf` included."""
    values, fault = _convert(name, cells, float, "a number")
    return (None, fault) if fault else (np.array(values, dtype=np.float64), None)


def _convert(name: str, cells: tuple[str, ...], kind: type, what: str):
    """`kind` of each cell, or [] and the first cell it rejects as (row, message)."""
    try:
        return list(map(kind, cells)), None
    except ValueError:
        for i, cell in enumerate(cells):
            try:
                kind(cell)
            except ValueError:
                return [], (i, f"{name} {cell.strip()!r} is not {what}")


def read_json_object(path: str | Path) -> dict:
    """The JSON object in the UTF-8 file `path`.

    Text that is not UTF-8, not JSON, or JSON other than an object raises
    GridHealthError naming the path.
    """
    try:
        value = json.loads(Path(path).read_bytes().decode("utf-8"))
    except (ValueError, RecursionError) as exc:   # JSON and UTF-8 decode errors are ValueErrors
        raise GridHealthError(f"{path}: not a JSON file ({exc})") from exc
    if not isinstance(value, dict):
        raise GridHealthError(f"{path}: expected a JSON object")
    return value


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
        """Read `raw_label,canonical` rows; a raw label may appear once."""
        t = read_table(path, [("raw_label", as_str), ("canonical", as_str)], key=("raw_label",))
        return cls(dict(zip(t["raw_label"].tolist(), t["canonical"].tolist())))


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
    t = read_table(path, [("plant_id", as_str), ("region_id", as_str), ("fuel", as_str),
                          ("capacity_basis", as_float)], tail=as_float)
    return t.records(lambda plant, region, fuel, basis, *rates: PlantRecord(
        plant, region, fuel, basis, dict(zip(t.header[4:], rates))))


def _parse_stamp(text: str) -> int | datetime:
    """An integer hour in the int64 range, or an ISO hour; ValueError names the fault."""
    try:
        hour = int(text)
    except ValueError:
        for fmt in _ISO_FORMS:
            try:
                return datetime.strptime(text, fmt)
            except ValueError:
                continue
        raise ValueError(f"unparseable timestamp {text!r}") from None
    if not _INT64_MIN <= hour <= _INT64_MAX:
        raise ValueError(f"timestamp {text!r} out of range")
    return hour


def _parse_hour(text: str, first: int | datetime) -> int:
    """The hour `text` names, of the same kind as `first`; ISO hours count from `first`."""
    stamp = _parse_stamp(text)
    if isinstance(stamp, int) != isinstance(first, int):
        raise ValueError("mixes integer and ISO timestamps")
    if isinstance(stamp, int):
        return stamp
    if stamp.minute or stamp.second:
        raise ValueError(f"timestamp {text!r} is not on the hour")
    return (stamp - first) // _HOUR


def _as_hours(name: str, cells: tuple[str, ...]):
    """Column parser for fuel-mix stamps: one kind per file, ISO hours from the first row.

    A stamp whose stripped text is the canonical text of the hour it should
    hold (``str(first + i)``, or ISO ``YYYY-MM-DDTHH:MM:SS``) takes that
    hour without parsing; any other stamp goes through `_parse_hour`, so
    every accepted form still loads.
    """
    texts = [c.strip() for c in cells]
    hours = np.arange(len(texts), dtype=np.int64)
    if not texts:
        return hours, None
    try:
        first = _parse_stamp(texts[0])
    except ValueError as exc:
        return None, (0, str(exc))
    if isinstance(first, int):
        n = min(len(texts), _INT64_MAX - first + 1)   # later hours leave int64
        canonical = map(str, range(first, first + n))
        hours += first
    else:
        n = min(len(texts), max(0, (_LAST_ISO_HOUR - first) // _HOUR + 1))
        canonical = np.datetime_as_string(np.datetime64(first, "h") + np.arange(n),
                                          unit="s").tolist()
    slow = [i for i, (text, want) in enumerate(zip(texts, canonical)) if text != want]
    for i in slow + list(range(n, len(texts))):
        try:
            hours[i] = _parse_hour(texts[i], first)
        except ValueError as exc:
            return None, (i, str(exc))
    return hours, None


def _as_shares(name: str, cells: tuple[str, ...]):
    """Column parser for fuel-mix shares: nonnegative finite numbers, NaN for an empty cell."""
    try:
        values = np.array([float(s) if (s := c.strip()) else math.nan for c in cells])
        suspects = np.flatnonzero(~np.isfinite(values) | (values < 0)).tolist()
    except ValueError:
        suspects = range(len(cells))
    for i in suspects:
        if (text := cells[i].strip()):
            try:
                value = float(text)
            except ValueError:
                return None, (i, f"bad float {text!r}")
            if not math.isfinite(value):
                return None, (i, f"non-finite value {text!r}")
            if value < 0:
                return None, (i, f"negative share {value}")
    return values, None


def load_fuel_mix(path: str | Path, category_map: FuelCategoryMap) -> FuelMixSeries:
    """Load a raw fuel-mix CSV into a series; no imputation or normalization.

    Columns mapped to the same canonical fuel are summed; a canonical entry
    is flagged missing if any of its contributing cells is empty. Columns
    mapped to EXCLUDED are dropped unparsed.
    """
    targets: dict[str, str] = {}

    def as_share_or_skip(label: str, cells: tuple[str, ...]):
        try:
            targets[label] = category_map.lookup(label)
        except UnmappedLabel as exc:
            raise UnmappedLabel(f"{path}: {exc}") from None
        return (None, None) if targets[label] == EXCLUDED else _as_shares(label, cells)

    t = read_table(path, [("timestamp", _as_hours)], tail=as_share_or_skip)
    if not t.lines:
        raise MalformedRow(f"{path}: no data rows")
    hours = t["timestamp"]
    if len(hours) > 1 and not np.all(np.diff(hours) == 1):
        raise NonMonotonicTimestamp(f"{path}: timestamps must advance by exactly 1 hour")
    kept = [label for label in t.header[1:] if targets[label] != EXCLUDED]
    fuel_names = tuple(dict.fromkeys(targets[label] for label in kept))
    # aliased columns add in header order from zero, like a per-row `+=`
    shares = np.zeros((len(hours), len(fuel_names)))
    for label in kept:
        shares[:, fuel_names.index(targets[label])] += t[label]
    flags = np.where(np.isnan(shares), MISSING, OBSERVED).astype(np.int8)
    return FuelMixSeries(hours, shares, flags, fuel_names)


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
    write_table(path, ["timestamp", *series.fuel_names], [series.timestamps, *series.shares.T])
