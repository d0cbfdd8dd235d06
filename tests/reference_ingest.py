"""Entry-at-a-time references for `ingest.load_fuel_mix` and `ingest.impute_missing`.

`load_fuel_mix_rowwise` is the loader as it was before the columnar reader
replaced it. The fuzz test in test_ingest.py feeds both the same raw CSVs
and requires equal arrays on valid input and the same exception and
message on bad input. Header handling is `read_table`'s (duplicate labels,
path-qualified unmapped labels) and a row fault names the row's physical
line, so the two differ only in how they walk the rows.

`impute_missing_loop` is gap filling as it was before the array form: one
missing entry at a time, with `np.mean` over each entry's donors. Its
Hypothesis test requires bit-identical arrays and the same
`UnimputableSeries` message.
"""

from __future__ import annotations

import csv
import math
from datetime import datetime
from pathlib import Path

import numpy as np

from gridhealth.errors import (
    MalformedRow,
    NonMonotonicTimestamp,
    UnimputableSeries,
    UnmappedLabel,
)
from gridhealth.ingest import (
    EXCLUDED,
    IMPUTED,
    MISSING,
    OBSERVED,
    FuelCategoryMap,
    FuelMixSeries,
)

_INT64_MIN, _INT64_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)


def _parse_timestamp(text: str, path: str | Path, row_no: int) -> tuple[bool, int | datetime]:
    text = text.strip()
    try:
        hour = int(text)
    except ValueError:
        pass
    else:
        if not _INT64_MIN <= hour <= _INT64_MAX:
            raise MalformedRow(f"{path}:{row_no}: timestamp {text!r} out of range")
        return True, hour
    for fmt in ("%Y-%m-%dT%H:%M:%S", "%Y-%m-%d %H:%M:%S", "%Y-%m-%dT%H:%M",
                "%Y-%m-%d %H:%M", "%Y-%m-%dT%H", "%Y-%m-%d %H"):
        try:
            return False, datetime.strptime(text, fmt)
        except ValueError:
            continue
    raise MalformedRow(f"{path}:{row_no}: unparseable timestamp {text!r}")


def load_fuel_mix_rowwise(path: str | Path, category_map: FuelCategoryMap) -> FuelMixSeries:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or not header or header[0].strip() != "timestamp":
            raise MalformedRow(f"{path}: expected header timestamp,<columns...>")
        labels = [c.strip() for c in header]
        for label in labels:
            if labels.count(label) > 1:
                raise MalformedRow(f"{path}: header label {label!r} appears more than once")
        raw_labels = labels[1:]
        try:
            targets = [category_map.lookup(label) for label in raw_labels]
        except UnmappedLabel as exc:
            raise UnmappedLabel(f"{path}: {exc}") from None

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

        for row in reader:
            row_no = reader.line_num
            if len(row) != len(header):
                raise MalformedRow(
                    f"{path}:{row_no}: expected {len(header)} cells, got {len(row)}")
            is_int, ts = _parse_timestamp(row[0], path, row_no)
            if integer_stamps is None:
                integer_stamps = is_int
            elif is_int != integer_stamps:
                raise MalformedRow(f"{path}:{row_no}: mixes integer and ISO timestamps")
            if is_int:
                hour = ts
            else:
                if ts.minute or ts.second:
                    raise MalformedRow(
                        f"{path}:{row_no}: timestamp {row[0].strip()!r} is not on the hour")
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
                    raise MalformedRow(f"{path}:{row_no}: bad float {text!r}") from exc
                if not math.isfinite(value):
                    raise MalformedRow(f"{path}:{row_no}: non-finite value {text!r}")
                if value < 0:
                    raise MalformedRow(f"{path}:{row_no}: negative share {value}")
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


def impute_missing_loop(series: FuelMixSeries, period: int = 24) -> FuelMixSeries:
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
