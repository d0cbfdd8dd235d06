"""`read_table` and its column parsers as they were before numpy's C text reader.

This is the `csv.reader` path alone: every file, plain or not, is split by
`csv.reader`, and every cell is parsed by Python's `str.strip`, `int` or
`float`. The Hypothesis test in test_ingest.py reads the same texts with
this and with `gridhealth.ingest.read_table` for every CSV loader, and
requires the same header, line numbers, dtypes and bits, or the same
exception type and message. `Table` is the package's: only how a table is
filled differs.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from contextlib import contextmanager
from datetime import datetime, timedelta
from pathlib import Path
from typing import Callable

import numpy as np

from gridhealth.errors import MalformedRow
from gridhealth.ingest import Table

_INT64_MIN, _INT64_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)
_HOUR = timedelta(hours=1)
_LAST_ISO_HOUR = datetime(9999, 12, 31, 23)
_ISO_FORMS = ("%Y-%m-%dT%H:%M:%S", "%Y-%m-%d %H:%M:%S", "%Y-%m-%dT%H:%M", "%Y-%m-%d %H:%M",
              "%Y-%m-%dT%H", "%Y-%m-%d %H")



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


def as_str(name: str, cells: tuple[str, ...]):
    """The cells stripped of surrounding whitespace; none may hold NUL."""
    values = [c.strip() for c in cells]
    if "\0" in "".join(values):   # a numpy str array would drop a trailing NUL
        i = next(i for i, v in enumerate(values) if "\0" in v)
        return None, (i, f"{name} {values[i]!r} holds NUL")
    return np.array(values, dtype=str), None


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
