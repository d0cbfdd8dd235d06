"""Loading, imputation, normalization, and capacity-proportional allocation."""

import contextlib
import csv
import math
import tempfile
from datetime import datetime
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridhealth import dispersion, emissions, health, ingest, scheduler
from gridhealth.errors import (
    GridHealthError,
    MalformedRow,
    NegativeShare,
    NonMonotonicTimestamp,
    NoPlantForFuel,
    UnimputableSeries,
    UnmappedLabel,
    ZeroRowSum,
)
from gridhealth.ingest import (
    IMPUTED,
    MISSING,
    OBSERVED,
    FuelCategoryMap,
    PlantRecord,
    allocate_generation,
    impute_missing,
    load_fuel_mix,
    normalize_mix,
    write_fuel_mix_csv,
    write_table,
)

from gridhealth.dispersion import SR_MATRIX_COLUMNS, SourceReceptorMatrix
from gridhealth.emissions import EmissionFactorTable
from gridhealth.health import (
    SIGNAL_COLUMNS,
    load_concentration_responses,
    load_receptor_profiles,
    load_signals_csv,
    load_valuations,
)
from gridhealth.scheduler import SESSION_COLUMNS, load_sessions

from conftest import make_record, make_series
import reference_table
from reference_ingest import impute_missing_loop, load_fuel_mix_rowwise


def write_csv(path, rows):
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


IDENTITY2 = FuelCategoryMap({"coal": "COL", "gas": "NG"})


class TestLoad:
    def test_identity_load(self, tmp_path):
        p = tmp_path / "mix.csv"
        write_csv(p, [["timestamp", "coal", "gas"],
                      [0, 0.5, 0.5], [1, 0.6, 0.4], [2, 0.7, 0.3]])
        series = load_fuel_mix(p, IDENTITY2)
        assert len(series) == 3
        assert series.fuel_names == ("COL", "NG")
        assert np.all(series.flags == OBSERVED)
        np.testing.assert_allclose(series.shares[1], [0.6, 0.4])

    def test_without_map_each_column_is_its_stripped_name(self, tmp_path):
        p = tmp_path / "mix.csv"
        write_csv(p, [["timestamp", " COL", "NG "], [0, 0.5, 0.5], [1, 0.6, 0.4]])
        series = load_fuel_mix(p)
        assert series.fuel_names == ("COL", "NG")
        np.testing.assert_array_equal(series.shares, [[0.5, 0.5], [0.6, 0.4]])

    def test_missing_cell_flagged(self, tmp_path):
        p = tmp_path / "mix.csv"
        write_csv(p, [["timestamp", "coal", "gas"], [0, 0.5, ""], [1, 0.6, 0.4]])
        series = load_fuel_mix(p, IDENTITY2)
        assert series.flags[0, 1] == MISSING
        assert np.isnan(series.shares[0, 1])
        assert series.flags[0, 0] == OBSERVED

    def test_label_accumulation_under_canonical_fuel(self, tmp_path):
        # two raw petroleum columns both map to OIL and sum
        p = tmp_path / "mix.csv"
        write_csv(p, [["timestamp", "DFO", "RFO", "gas"],
                      [0, 0.1, 0.2, 0.7], [1, 0.05, 0.15, 0.8]])
        cmap = FuelCategoryMap({"DFO": "OIL", "RFO": "OIL", "gas": "NG"})
        series = load_fuel_mix(p, cmap)
        assert series.fuel_names == ("OIL", "NG")
        np.testing.assert_allclose(series.shares[:, 0], [0.3, 0.2])

    def test_excluded_column_dropped(self, tmp_path):
        p = tmp_path / "mix.csv"
        write_csv(p, [["timestamp", "coal", "battery"], [0, 1.0, 0.4]])
        cmap = FuelCategoryMap({"coal": "COL", "battery": "EXCLUDED"})
        series = load_fuel_mix(p, cmap)
        assert series.fuel_names == ("COL",)

    def test_unmapped_label(self, tmp_path):
        p = tmp_path / "mix.csv"
        write_csv(p, [["timestamp", "coal", "mystery"], [0, 0.5, 0.5]])
        with pytest.raises(UnmappedLabel, match="mystery"):
            load_fuel_mix(p, IDENTITY2)

    def test_unmapped_label_names_path(self, tmp_path):
        p = tmp_path / "mix.csv"
        write_csv(p, [["timestamp", "coal", "mystery"], [0, 0.5, 0.5]])
        with pytest.raises(UnmappedLabel) as info:
            load_fuel_mix(p, IDENTITY2)
        assert str(info.value) == f"{p}: no category mapping for label 'mystery'"

    def test_repeated_header_label(self, tmp_path):
        # " coal" strips to "coal"; the two columns used to be summed silently
        p = tmp_path / "mix.csv"
        write_csv(p, [["timestamp", "coal", " coal"], [0, 0.5, 0.5]])
        with pytest.raises(MalformedRow) as info:
            load_fuel_mix(p, IDENTITY2)
        assert str(info.value) == f"{p}: header label 'coal' appears more than once"

    @pytest.mark.parametrize("bad_row", [[0, "abc", 0.5], [0, 0.5], [0, -0.1, 0.5]])
    def test_malformed_rows(self, tmp_path, bad_row):
        p = tmp_path / "mix.csv"
        write_csv(p, [["timestamp", "coal", "gas"], bad_row])
        with pytest.raises(MalformedRow):
            load_fuel_mix(p, IDENTITY2)

    @pytest.mark.parametrize("bad_row, reason", [
        ([1, 0.5], "expected 3 cells, got 2"),
        ([1, "abc", 0.5], "bad float 'abc'"),
        ([1, "inf", 0.5], "non-finite value 'inf'"),
        ([1, -0.1, 0.5], "negative share -0.1"),
        (["yesterday", 0.5, 0.5], "unparseable timestamp 'yesterday'"),
    ])
    def test_row_errors_name_path_and_row(self, tmp_path, bad_row, reason):
        p = tmp_path / "mix.csv"
        write_csv(p, [["timestamp", "coal", "gas"], [0, 0.5, 0.5], bad_row])
        with pytest.raises(MalformedRow) as info:
            load_fuel_mix(p, IDENTITY2)
        assert str(info.value) == f"{p}:3: {reason}"

    def test_no_data_rows(self, tmp_path):
        p = tmp_path / "mix.csv"
        write_csv(p, [["timestamp", "coal", "gas"]])
        with pytest.raises(MalformedRow, match="no data rows"):
            load_fuel_mix(p, IDENTITY2)

    def test_non_monotonic_timestamps(self, tmp_path):
        p = tmp_path / "mix.csv"
        write_csv(p, [["timestamp", "coal", "gas"], [0, 0.5, 0.5], [2, 0.5, 0.5]])
        with pytest.raises(NonMonotonicTimestamp):
            load_fuel_mix(p, IDENTITY2)

    def test_iso_timestamps(self, tmp_path):
        p = tmp_path / "mix.csv"
        write_csv(p, [["timestamp", "coal", "gas"],
                      ["2023-01-01T00", 0.5, 0.5], ["2023-01-01T01", 0.6, 0.4]])
        series = load_fuel_mix(p, IDENTITY2)
        np.testing.assert_array_equal(series.timestamps, [0, 1])

    @pytest.mark.parametrize("stamps, row_no", [
        (["2023-01-01T00", "2023-01-01T01:30"], 3),
        (["2023-01-01 00:00:15", "2023-01-01 01:00:15"], 2),
        ([0, "2023-01-01T01"], 3),
        (["2023-01-01T00", 1], 3),
    ])
    def test_rejects_off_hour_and_mixed_timestamps(self, tmp_path, stamps, row_no):
        p = tmp_path / "mix.csv"
        write_csv(p, [["timestamp", "coal", "gas"]] + [[t, 0.5, 0.5] for t in stamps])
        with pytest.raises(MalformedRow) as info:
            load_fuel_mix(p, IDENTITY2)
        assert str(info.value).startswith(f"{p}:{row_no}: ")

    def test_round_trip_write(self, tmp_path):
        series = make_series([[0.5, 0.5], [0.3, 0.7]], ("COL", "NG"))
        p = tmp_path / "out.csv"
        write_fuel_mix_csv(p, series)
        again = load_fuel_mix(p)
        np.testing.assert_array_equal(again.shares, series.shares)


class TestCategoryMap:
    def test_row_errors_name_path_and_line(self, tmp_path):
        p = tmp_path / "map.csv"
        write_csv(p, [["raw_label", "canonical"], ["coal", "COL"], ["gas"]])
        with pytest.raises(MalformedRow) as info:
            FuelCategoryMap.from_csv(p)
        assert str(info.value) == f"{p}:3: expected 2 cells, got 1"

    def test_label_listed_twice(self, tmp_path):
        p = tmp_path / "map.csv"
        write_csv(p, [["raw_label", "canonical"], ["coal", "COL"], ["gas", "NG"],
                      ["coal ", "OTH"]])
        with pytest.raises(MalformedRow) as info:
            FuelCategoryMap.from_csv(p)
        assert str(info.value) == f"{p}:4: raw_label 'coal' already on line 2"

    def test_packaged_map_loads(self):
        cmap = FuelCategoryMap.from_csv(
            Path(ingest.__file__).parent / "data" / "category_map.csv")
        assert cmap.entries and set(cmap.entries.values()) <= {*ingest.CANONICAL_FUELS,
                                                               ingest.EXCLUDED}


# -- the columnar reader against the row-at-a-time reference ------------------

FUZZ_MAP = FuelCategoryMap({"coal": "COL", "gas": "NG", "DFO": "OIL", "RFO": "OIL",
                            "wind": "WND", "battery": "EXCLUDED", "imports": "EXCLUDED"})
CELL_EDITS = ("", "   ", "abc", "nan", "NaN", "inf", "-inf", "-0.5", "-0.0", " 2.5 ", "1e3",
              "0", "1_0", "+7")
STAMP_EDITS = ("gap", "repeat", "off_hour", "other_kind", "other_form", "padded", "yesterday",
               "", "huge")
ROW_EDITS = ("short", "long", "blank")


def _iso_text(canonical: str, form: int) -> str:
    """`canonical` (YYYY-MM-DDTHH:MM:SS) in the form'th accepted ISO layout."""
    date, clock = canonical.split("T")
    return f"{date}{'T ' [form % 2]}{clock[:(8, 5, 2)[form // 2]]}"


def _stamp(kind: str, start, i: int) -> str:
    if kind == "int":
        return str(start + i)
    hour = np.datetime64(start, "h") + i
    return _iso_text(np.datetime_as_string(hour, unit="s"), int(kind[3:]))


@st.composite
def raw_mix_csvs(draw):
    """CSV text: a valid hourly file, then up to five edits."""
    labels = draw(st.lists(st.sampled_from(sorted(FUZZ_MAP.entries)), unique=True,
                           max_size=5))
    n = draw(st.one_of(st.integers(1, 10), st.integers(2046, 2051)))
    kind = draw(st.sampled_from(["int"] + [f"iso{form}" for form in range(6)]))
    near_end = draw(st.integers(0, 7)) == 0   # stamps run past int64 / year 9999
    if kind == "int":
        start = 2**63 - 4 if near_end else draw(st.integers(-50, 50))
    elif near_end:
        start = datetime(9999, 12, 31, 21)
    else:
        start = draw(st.datetimes(min_value=datetime(1, 1, 1), max_value=datetime(9000, 1, 1)))
        start = start.replace(minute=0, second=0, microsecond=0)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = [[_stamp(kind, start, i), *(f"{v:.3f}" for v in rng.uniform(0, 50, len(labels)))]
            for i in range(n)]
    for _ in range(draw(st.integers(0, 5)) if n else 0):
        i = draw(st.integers(0, n - 1))
        target = draw(st.integers(-1, len(labels)))
        if target == len(labels):
            edit = draw(st.sampled_from(ROW_EDITS))
            rows[i] = {"short": rows[i][:-1], "long": rows[i] + ["1"], "blank": []}[edit]
        elif target >= 0 and len(rows[i]) > target + 1:
            rows[i][target + 1] = draw(st.sampled_from(CELL_EDITS))
        elif target < 0 and rows[i]:
            edit = draw(st.sampled_from(STAMP_EDITS))
            other = "iso0" if kind == "int" else "int"
            rows[i][0] = {
                "gap": _stamp(kind, start, i + 1),
                "repeat": _stamp(kind, start, i - 1),
                "off_hour": _stamp("iso0", datetime(2023, 1, 1), i)[:-5] + "30:00",
                "other_kind": _stamp(other, datetime(2023, 1, 1) if kind == "int" else 0, i),
                "other_form": _stamp(kind if kind == "int" else f"iso{(int(kind[3:]) + 1) % 6}",
                                     start, i),
                "padded": f"  {rows[i][0]} ",
                "huge": "99999999999999999999",
            }.get(edit, edit)
    lines = [",".join(["timestamp", *labels]), *(",".join(row) for row in rows)]
    return "\n".join(lines) + "\n"


def _outcome(loader, path):
    try:
        return loader(path, FUZZ_MAP)
    except GridHealthError as exc:
        return type(exc), str(exc)


@given(raw_mix_csvs())
@settings(max_examples=250, deadline=None)
def test_columnar_reader_matches_rowwise_reference(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mix.csv"
        path.write_text(text)
        expected = _outcome(load_fuel_mix_rowwise, path)
        got = _outcome(load_fuel_mix, path)
    if isinstance(expected, tuple):
        assert got == expected
        return
    assert not isinstance(got, tuple), got
    np.testing.assert_array_equal(got.timestamps, expected.timestamps)
    assert np.array_equal(got.shares, expected.shares, equal_nan=True)
    np.testing.assert_array_equal(got.flags, expected.flags)
    assert got.fuel_names == expected.fuel_names


# CR-free text (csv.writer leaves a CR unquoted, write_table quotes it) without NUL,
# which a numpy str array drops from the end of a string
CSV_TEXT = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\x00"))


@given(st.tuples(st.integers(0, 3), st.integers(0, 2)).flatmap(lambda shape: st.tuples(
           st.lists(CSV_TEXT, min_size=shape[1], max_size=shape[1]),
           st.lists(st.tuples(st.integers(-2**63, 2**63 - 1),
                              st.lists(st.floats(), min_size=shape[0], max_size=shape[0]),
                              st.lists(CSV_TEXT, min_size=shape[1], max_size=shape[1])),
                    max_size=7),
           st.just(shape[0]))),
       st.sampled_from([2, 2048]))
@settings(max_examples=100, deadline=None)
def test_hourly_writer_matches_csv_writer(case, block_rows):
    # csv.writer is the oracle for write_table's bytes on int, float and str columns
    text_names, rows, n_values = case
    header = ["timestamp", *(f"v{k}" for k in range(n_values)), *text_names]
    columns = [np.array([t for t, _, _ in rows], dtype=np.int64),
               *np.array([v for _, v, _ in rows], dtype=np.float64).reshape(len(rows), n_values).T,
               *(np.array([texts[j] for _, _, texts in rows], dtype=str)
                 for j in range(len(text_names)))]
    with tempfile.TemporaryDirectory() as tmp:
        got, want = Path(tmp) / "got.csv", Path(tmp) / "want.csv"
        with mock.patch.object(ingest, "_BLOCK_ROWS", block_rows):
            write_table(got, header, columns)
        with open(want, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows([t, *(repr(float(v)) for v in vs), *texts] for t, vs, texts in rows)
        assert got.read_bytes() == want.read_bytes()


TRICKY = 'a,"b"\nc\rd'
BARE_CR = "c\rd"   # the one character csv.writer would leave unquoted
EXACT = [0.1, 1 / 3, 5e-324, 1.7976931348623157e308, 0.0]   # floats whose text must round trip


def _names(columns):
    return tuple(name for name, _ in columns)


def _fuel_mix_read(path):
    with ingest.open_csv(path) as reader:
        labels = next(reader)[1:]
    s = load_fuel_mix(path, FuelCategoryMap({label: label for label in labels}))
    return ("timestamp", *s.fuel_names), [s.timestamps, *s.shares.T]


def _signals_read(path):
    s = load_signals_csv(path)
    return _names(SIGNAL_COLUMNS), [s.timestamps, *s.costs.T]


def _sessions_read(path):
    t = load_sessions(path)
    return _names(SESSION_COLUMNS), [getattr(t, name) for name in _names(SESSION_COLUMNS)]


def _sr_matrix_read(path):
    m = SourceReceptorMatrix.from_csv(path)
    pollutant, receptor = np.meshgrid(m.pollutant_names, m.receptor_ids, indexing="ij")
    return _names(SR_MATRIX_COLUMNS), [pollutant.ravel(), receptor.ravel(), m.gains.ravel()]


def _factors_read(path):
    t = EmissionFactorTable.from_csv(path)
    return ("fuel", *t.pollutant_names), [np.array(t.fuel_names), *t.factors.T]


# file: (header, columns, reader giving back (header, columns))
WRITER_READER_PAIRS = {
    "fuel_mix": (("timestamp", BARE_CR, TRICKY), [np.arange(5, 10), EXACT, EXACT[::-1]],
                 _fuel_mix_read),
    "signals": (_names(SIGNAL_COLUMNS), [np.arange(-2, 3), EXACT, EXACT[::-1]], _signals_read),
    "sessions": (_names(SESSION_COLUMNS),
                 [[TRICKY, BARE_CR, "", "s,3"], [0, 4, 2**62, -7], [3, 4, 2**62, -7],
                  [0.1, 1 / 3, 5e-324, 0.0], [0.1, 1 / 3, 1e308, 5e-324]], _sessions_read),
    "sr_matrix": (_names(SR_MATRIX_COLUMNS),
                  [[TRICKY, TRICKY, "SO2", "SO2"], ["R0", 'R"1', "R0", 'R"1'], EXACT[:4]],
                  _sr_matrix_read),
    "emission_factors": (("fuel", TRICKY, "SO2"), [[TRICKY, "COL"], EXACT[:2], EXACT[2:4]],
                         _factors_read),
}


@pytest.mark.parametrize("name", WRITER_READER_PAIRS)
def test_writer_reader_round_trip(tmp_path, name):
    header, columns, read = WRITER_READER_PAIRS[name]
    p = tmp_path / f"{name}.csv"
    write_table(p, list(header), columns)
    got_header, got = read(p)
    assert got_header == header
    assert [c.tolist() for c in got] == [np.asarray(c).tolist() for c in columns]


class TestImpute:
    def _with_missing(self, shares, holes, n_hours=48):
        shares = np.asarray(shares, dtype=np.float64)
        flags = np.full(shares.shape, OBSERVED, dtype=np.int8)
        for (t, f) in holes:
            flags[t, f] = MISSING
            shares[t, f] = np.nan
        return make_series(shares, ("COL",) if shares.shape[1] == 1 else ("COL", "NG"),
                           flags=flags)

    def test_linear_midpoint(self):
        shares = np.full((48, 1), 0.3)
        shares[9, 0] = 0.2
        shares[11, 0] = 0.4
        series = self._with_missing(shares, [(10, 0)])
        out = impute_missing(series)
        assert out.shares[10, 0] == pytest.approx(0.3, abs=1e-12)
        assert out.flags[10, 0] == IMPUTED
        assert not np.any(out.flags == MISSING)

    def test_daily_cycle_single_donor(self):
        # two consecutive missing hours fall through to the day-offset donors
        shares = np.full((48, 1), 0.1)
        shares[34, 0] = 0.5
        shares[35, 0] = 0.7
        series = self._with_missing(shares, [(10, 0), (11, 0)])
        out = impute_missing(series)
        assert out.shares[10, 0] == pytest.approx(0.5)
        assert out.shares[11, 0] == pytest.approx(0.7)

    def test_two_sided_donors_average(self):
        shares = np.full((72, 1), 0.1)
        shares[10, 0] = 0.4
        shares[58, 0] = 0.8
        series = self._with_missing(shares, [(33, 0), (34, 0)])
        out = impute_missing(series)
        # hour 34 has donors at 10 and 58 -> mean 0.6
        assert out.shares[34, 0] == pytest.approx(0.6)

    def test_sinusoid_rmse_bound(self):
        # held-out truth is the oracle: mask 10%, impute, compare
        rng = np.random.default_rng(99)
        n, amplitude = 240, 0.2
        truth = 0.5 + amplitude * np.sin(2 * np.pi * np.arange(n) / 24.0)
        shares = truth.reshape(-1, 1).copy()
        flags = np.full(shares.shape, OBSERVED, dtype=np.int8)
        holes = rng.choice(n, size=n // 10, replace=False)
        shares[holes, 0] = np.nan
        flags[holes, 0] = MISSING
        series = make_series(shares, ("COL",), flags=flags)
        out = impute_missing(series)
        rmse = float(np.sqrt(np.mean((out.shares[holes, 0] - truth[holes]) ** 2)))
        assert rmse < amplitude * 0.25

    def test_idempotent_on_fully_observed(self):
        series = make_series(np.random.default_rng(0).uniform(0, 1, size=(48, 2)),
                             ("COL", "NG"))
        out = impute_missing(series)
        np.testing.assert_array_equal(out.shares, series.shares)
        np.testing.assert_array_equal(out.flags, series.flags)

    def test_too_short_series(self):
        series = make_series(np.full((20, 1), 0.5), ("COL",))
        with pytest.raises(UnimputableSeries):
            impute_missing(series)

    def test_unimputable_position(self):
        # every day's hour-3 value is missing for COL
        shares = np.full((48, 1), 0.5)
        flags = np.full(shares.shape, OBSERVED, dtype=np.int8)
        for t in (3, 27):
            shares[t, 0] = np.nan
            flags[t, 0] = MISSING
        # block step-1 interpolation by removing a neighbor too
        for t in (2, 26):
            shares[t, 0] = np.nan
            flags[t, 0] = MISSING
        series = make_series(shares, ("COL",), flags=flags)
        with pytest.raises(UnimputableSeries):
            impute_missing(series)


# Shares with signed zeros and subnormals, whose halves and sums show any change of order.
_IMPUTE_SHARES = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-300]),
                           st.floats(-1e3, 1e3, allow_nan=False))


@given(data=st.data(), period=st.integers(1, 6), n_fuels=st.integers(1, 3),
       start=st.integers(-60, 60))
@settings(max_examples=300, deadline=None)
def test_impute_matches_entry_loop(data, period, n_fuels, start):
    """The array form equals the entry-at-a-time loop bit for bit, or raises its message."""
    n = data.draw(st.integers(max(1, 2 * period - 2), 8 * period), label="n")
    cells = n * n_fuels
    shares = np.array(data.draw(st.lists(_IMPUTE_SHARES, min_size=cells, max_size=cells),
                                label="shares")).reshape(n, n_fuels)
    gaps = data.draw(st.integers(1, 9), label="gaps in 11")
    kinds = st.sampled_from([MISSING] * gaps + [OBSERVED] * (10 - gaps) + [IMPUTED])
    flags = np.array(data.draw(st.lists(kinds, min_size=cells, max_size=cells),
                               label="flags"), dtype=np.int8).reshape(n, n_fuels)
    shares[flags == MISSING] = np.nan
    series = make_series(shares, ("COL", "NG", "SUN")[:n_fuels], flags=flags, start=start)
    before = series.shares.tobytes(), series.flags.tobytes()
    try:
        want = impute_missing_loop(series, period)
    except UnimputableSeries as exc:
        with pytest.raises(UnimputableSeries) as got:
            impute_missing(series, period)
        assert str(got.value) == str(exc)
        return
    got = impute_missing(series, period)
    assert got.shares.tobytes() == want.shares.tobytes()
    assert got.flags.tobytes() == want.flags.tobytes()
    assert (series.shares.tobytes(), series.flags.tobytes()) == before   # input left alone


class TestNormalize:
    def test_uniform_rescale(self):
        out = normalize_mix(make_series([[2.0, 2.0]], ("COL", "NG")))
        np.testing.assert_allclose(out.shares[0], [0.5, 0.5])

    def test_identity_on_simplex(self):
        out = normalize_mix(make_series([[1.0, 0.0, 0.0]], ("COL", "NG", "SUN")))
        np.testing.assert_array_equal(out.shares[0], [1.0, 0.0, 0.0])

    def test_symmetry(self):
        out = normalize_mix(make_series([[0.3, 0.3, 0.3]], ("COL", "NG", "SUN")))
        np.testing.assert_allclose(out.shares[0], [1 / 3] * 3, atol=1e-12)

    def test_zero_row(self):
        with pytest.raises(ZeroRowSum):
            normalize_mix(make_series([[0.0, 0.0]], ("COL", "NG")))

    def test_negative_share(self):
        with pytest.raises(NegativeShare):
            normalize_mix(make_series([[-0.1, 0.5]], ("COL", "NG")))

    def test_rejects_missing_flags(self):
        series = make_series([[0.5, 0.5]], ("COL", "NG"),
                             flags=[[OBSERVED, MISSING]])
        with pytest.raises(ValueError):
            normalize_mix(series)

    @given(st.lists(st.lists(st.floats(0.01, 10.0), min_size=3, max_size=3),
                    min_size=1, max_size=5))
    @settings(max_examples=50, deadline=None)
    def test_idempotence(self, rows):
        series = make_series(rows, ("COL", "NG", "SUN"))
        once = normalize_mix(series)
        twice = normalize_mix(once)
        np.testing.assert_allclose(twice.shares, once.shares, atol=1e-12)
        np.testing.assert_allclose(once.shares.sum(axis=1), 1.0, atol=1e-9)


PLANTS = [
    PlantRecord("c1", "BA", "COL", 3.0, {"SO2": 1.0}),
    PlantRecord("c2", "BA", "COL", 1.0, {"SO2": 2.0}),
    PlantRecord("g1", "BA", "NG", 5.0, {"SO2": 0.1}),
]


class TestAllocate:
    def test_proportional_split(self):
        mix = make_record([0.4, 0.6], ("COL", "NG"))
        alloc = allocate_generation(1.0, mix, PLANTS)
        assert alloc["c1"] == pytest.approx(0.3)
        assert alloc["c2"] == pytest.approx(0.1)
        assert alloc["g1"] == pytest.approx(0.6)

    def test_zero_demand(self):
        mix = make_record([0.4, 0.6], ("COL", "NG"))
        alloc = allocate_generation(0.0, mix, PLANTS)
        assert all(v == 0.0 for v in alloc.values())

    def test_conservation_simple(self):
        mix = make_record([0.5, 0.5], ("COL", "NG"))
        plants = [PlantRecord("c1", "BA", "COL", 1.0, {}),
                  PlantRecord("g1", "BA", "NG", 1.0, {})]
        alloc = allocate_generation(1.0, mix, plants)
        assert math.fsum(alloc.values()) == pytest.approx(1.0, abs=1e-12)

    def test_no_plant_for_fuel(self):
        mix = make_record([0.5, 0.5], ("COL", "SUN"))
        with pytest.raises(NoPlantForFuel, match="SUN"):
            allocate_generation(1.0, mix, PLANTS)

    @given(st.floats(0.0, 1e4),
           st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2),
           st.lists(st.floats(0.01, 100.0), min_size=3, max_size=3))
    @settings(max_examples=80, deadline=None)
    def test_conservation_property(self, demand, raw_shares, bases):
        total = sum(raw_shares)
        if total == 0:
            raw_shares = [0.5, 0.5]
            total = 1.0
        shares = [s / total for s in raw_shares]
        plants = [PlantRecord("c1", "BA", "COL", bases[0], {}),
                  PlantRecord("c2", "BA", "COL", bases[1], {}),
                  PlantRecord("g1", "BA", "NG", bases[2], {})]
        alloc = allocate_generation(demand, make_record(shares, ("COL", "NG")), plants)
        assert math.fsum(alloc.values()) == pytest.approx(demand, abs=max(1e-9, demand * 1e-12))


# Every csv.reader-based loader, with a header it accepts.
CSV_LOADERS = [
    ("category_map", FuelCategoryMap.from_csv, "raw_label,canonical"),
    ("fuel_mix", lambda p: load_fuel_mix(p, IDENTITY2), "timestamp,coal,gas"),
    ("emission_factors", EmissionFactorTable.from_csv, "fuel,SO2"),
    ("sr_matrix", SourceReceptorMatrix.from_csv, "pollutant,receptor_id,gain"),
    ("receptors", lambda p: load_receptor_profiles(p, ["mortality"]),
     "receptor_id,population,internal,mortality"),
    ("concentration_response", lambda p: load_concentration_responses(p, ["SO2"]),
     "endpoint_id,form,SO2"),
    ("valuations", load_valuations, "endpoint_id,dollars_per_case"),
    ("signals", load_signals_csv, "timestamp,internal_usd_per_mwh,external_usd_per_mwh"),
    ("sessions", load_sessions, "session_id,arrival,departure,demand_kwh,rate_kw"),
]


@pytest.mark.parametrize("load, header", [c[1:] for c in CSV_LOADERS],
                         ids=[c[0] for c in CSV_LOADERS])
@pytest.mark.parametrize("line, message", [
    (b"x" * 200_000, ":2: field larger than field limit"),     # over csv's 131,072 limit
    (b"caf\xe9,1", ": not UTF-8 text"),                       # a Latin-1 byte
], ids=["long_cell", "latin1_byte"])
def test_csv_loaders_reject_unreadable_text(tmp_path, load, header, line, message):
    p = tmp_path / "input.csv"
    p.write_bytes(header.encode() + b"\n" + line + b"\n")
    with pytest.raises(MalformedRow) as info:
        load(p)
    assert str(info.value).startswith(f"{p}{message}")


SIGNAL_TEXT_HEADER = "timestamp,internal_usd_per_mwh,external_usd_per_mwh"


@pytest.mark.parametrize("load, text, message", [
    (EmissionFactorTable.from_csv, "fuel,SO2\nCOL,1.0\nNG,0.5\nCOL,2.0\n",
     ":4: fuel 'COL' already on line 2"),
    (SourceReceptorMatrix.from_csv, "pollutant,receptor_id,gain\nSO2,R1,1.0\nSO2,R1,2.0\n",
     ":3: pollutant/receptor_id ('SO2', 'R1') already on line 2"),
    (lambda p: load_receptor_profiles(p, ["mortality"]),
     "receptor_id,population,internal,mortality\nR1,10,true,0.1\nR1,20,false,0.2\n",
     ":3: receptor_id 'R1' already on line 2"),
    (load_valuations, "endpoint_id,dollars_per_case\nmortality,1.0\nmortality,2.0\n",
     ":3: endpoint_id 'mortality' already on line 2"),
    (load_signals_csv, f"{SIGNAL_TEXT_HEADER}\n0,1.0,1.0\n1,1.0,1.0\n0,2.0,2.0\n",
     ":4: timestamp 0 already on line 2"),
    (lambda p: load_concentration_responses(p, ["SO2"]),
     "endpoint_id,form,SO2\nmortality,log_linear,0.01\nmortality,linear,0.02\n",
     ":3: endpoint_id 'mortality' already on line 2"),
], ids=["emission_factors", "sr_matrix", "receptors", "valuations", "signals",
        "concentration_response"])
def test_repeated_key_rejected(tmp_path, load, text, message):
    p = tmp_path / "input.csv"
    p.write_text(text)
    with pytest.raises(MalformedRow) as info:
        load(p)
    assert str(info.value) == f"{p}{message}"


def test_sr_matrix_needs_every_pair(tmp_path):
    p = tmp_path / "sr_matrix.csv"
    p.write_text("pollutant,receptor_id,gain\nSO2,R1,1.0\nSO2,R2,2.0\nNOX,R1,0.5\n")
    with pytest.raises(MalformedRow) as info:
        SourceReceptorMatrix.from_csv(p)
    assert str(info.value) == f"{p}: no gain for pollutant 'NOX' at receptor 'R2'"


# One row each loader accepts; the fuzz gate edits its cells.
VALID_ROWS = {
    "category_map": "coal,COL",
    "fuel_mix": "0,0.5,0.5",
    "emission_factors": "COL,1.0",
    "sr_matrix": "SO2,R1,0.5",
    "receptors": "R1,100,true,0.01",
    "concentration_response": "mortality,log_linear,0.01",
    "valuations": "mortality,1000.0",
    "signals": "0,1.0,2.0",
    "sessions": "a,0,3,1.0,1.0",
}
# Cells the gate writes: numbers at and past the int64 and float ranges,
# non-finite and empty values, words some loaders give meaning, and a NUL.
FUZZ_CELLS = ("0", "-1", " 7 ", "1e308", "-1e308", "1e-320", "nan", "inf", "", "abc", "1_0",
              "99999999999999999999", "-9223372036854775808", "true", "linear", "a\0")


def _load_or_gridhealth_error(load, header, rows):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.csv"
        path.write_text("\n".join([header, *(",".join(row) for row in rows)]) + "\n")
        try:
            load(path)
        except GridHealthError:
            pass


@pytest.mark.parametrize("load, header", [c[1:] for c in CSV_LOADERS],
                         ids=[c[0] for c in CSV_LOADERS])
def test_csv_loaders_take_every_single_cell_edit(request, load, header):
    """Each cell of the accepted row replaced by each fuzz cell: data or a GridHealthError."""
    valid = VALID_ROWS[request.node.callspec.id].split(",")
    for j in range(len(valid)):
        for cell in FUZZ_CELLS:
            _load_or_gridhealth_error(load, header, [valid[:j] + [cell] + valid[j + 1:]])


@pytest.mark.parametrize("load, header", [c[1:] for c in CSV_LOADERS],
                         ids=[c[0] for c in CSV_LOADERS])
def test_csv_loaders_name_the_line_and_reject_repeated_columns(request, tmp_path, load, header):
    """A bad last cell on line 3 names `{path}:3:`; a header naming its last column twice fails.

    The category map has no numeric cell, so its line 3 repeats line 2's raw label.
    """
    valid = VALID_ROWS[request.node.callspec.id]
    p = tmp_path / "input.csv"
    p.write_text(f"{header}\n{valid}\n{valid.rsplit(',', 1)[0]},abc\n")
    with pytest.raises(MalformedRow) as info:
        load(p)
    assert str(info.value).startswith(f"{p}:3: ")
    p.write_text(f"{header},{header.rsplit(',', 1)[1]}\n{valid},{valid.rsplit(',', 1)[1]}\n")
    with pytest.raises(MalformedRow) as info:
        load(p)
    assert str(info.value).startswith(f"{p}: ")


@pytest.mark.parametrize("load, header", [c[1:] for c in CSV_LOADERS],
                         ids=[c[0] for c in CSV_LOADERS])
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_csv_loaders_return_data_or_raise_gridhealth_error(request, load, header, data):
    """Rows of the accepted row with cells replaced, repeated, or of any cell count."""
    valid = VALID_ROWS[request.node.callspec.id].split(",")
    cell = st.sampled_from(FUZZ_CELLS)
    edited = st.lists(st.tuples(st.integers(0, len(valid) - 1), cell), max_size=2).map(
        lambda edits: [dict(edits).get(j, v) for j, v in enumerate(valid)])
    rows = data.draw(st.lists(edited | st.lists(cell, max_size=len(valid) + 1), max_size=5))
    _load_or_gridhealth_error(load, header, rows)


# The package's column parsers and their copies in reference_table.py.
REFERENCE_PARSERS = {getattr(ingest, name): getattr(reference_table, name)
                     for name in ("as_str", "as_int", "as_float", "_as_hours", "_as_shares")}
# The modules whose loaders call read_table.
TABLE_READERS = (ingest, health, emissions, dispersion, scheduler)
# Cells that numpy's reader and Python's int and float may read differently:
# underscores, non-ASCII digits, Unicode and ASCII whitespace padding, signs,
# every nan and inf spelling, the int64 edges, float extremes, hex, and words.
TABLE_TOKENS = (
    "0", "1", "-1", "+1", "-0", "+0", "007", " 7", "7 ", "\t7\t", "\xa07", "7\xa0", "\x0b7",
    "7\x0c", "\u20037\u2003", "\x1c7", "7\x1f", "\x857", "1_0", "1_0.5", "\u0661", "\u0661\u0662",
    "\u0663.\u0665", "\uff17", "nan", "NaN", "-nan", "+nan", "NAN", "nan(1)", "inf", "-inf",
    "+inf", "Inf", "infinity", "-Infinity", "+INFINITY", "iNfInItY", "infinit",
    "9223372036854775807", "-9223372036854775808", "9223372036854775808",
    "-9223372036854775809", "99999999999999999999", "1e308", "1.7976931348623157e308",
    "1.7976931348623159e308", "1e309", "-1e309", "4.9e-324", "5e-324", "2.5e-324",
    "2.4703282292062328e-324", "1e-400", "2.2250738585072014e-308", "2.225073858507201e-308",
    "-0.0", "0.1", "1.5", "1e3", "1E+3", "1.0", ".5", "5.", "0x10", "1e", "e5", "- 1", "1 5",
    "abc", "true", "linear", "log_linear", "COL", "R1", "SO2", "mortality", "x" * 70)
TABLE_CELLS = st.one_of(
    st.sampled_from(TABLE_TOKENS),
    st.floats().map(repr),                                  # 17 digits, subnormals, nan, -0.0
    st.floats(allow_nan=False).map(lambda x: f"{x:.16e}"),
    st.integers(-2**63 - 2, 2**63 + 1).map(str))


@st.composite
def table_texts(draw, valid):
    """Rows of the accepted row with cells replaced, keys made distinct or not; then
    edits: CRLF, a quote, a blank line, an empty cell or a wrong cell count, which
    make the text not plain, and no final newline, which does not."""
    rows = []
    for i in range(draw(st.integers(1, 4))):
        row = valid.split(",")
        if draw(st.booleans()):
            row[0] += str(i)
        for j in draw(st.lists(st.integers(0, len(row) - 1), max_size=3)):
            row[j] = draw(TABLE_CELLS)
        rows.append(row)
    edits = draw(st.lists(st.sampled_from(
        ["crlf", "quote", "blank", "empty", "short", "long", "no_newline"]), max_size=2))
    i = draw(st.integers(0, len(rows) - 1))
    j = draw(st.integers(0, len(rows[i]) - 1))
    if "quote" in edits:
        rows[i][j] = f'"{rows[i][j]}"'
    if "empty" in edits:
        rows[i][j] = ""
    if "short" in edits:
        rows[i] = rows[i][:-1]
    if "long" in edits:
        rows[i] = rows[i] + ["1"]
    lines = [",".join(row) for row in rows]
    if "blank" in edits:
        lines.insert(i, "")
    end = "\r\n" if "crlf" in edits else "\n"
    return end.join(lines) + ("" if "no_newline" in edits else end)


def _table_or_exception(read):
    try:
        return read()
    except Exception as exc:
        return exc


def _same_outcome(got, want) -> bool:
    """Equal header, lines, dtypes and bits, or equal exception type and message."""
    if isinstance(got, Exception) or isinstance(want, Exception):
        return type(got) is type(want) and str(got) == str(want)
    return (got.header == want.header and list(got.lines) == list(want.lines)
            and len(got.columns) == len(want.columns)
            and all(a is b if a is None or b is None
                    else a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
                    for a, b in zip(got.columns, want.columns)))


@contextlib.contextmanager
def read_tables_twice(outcomes):
    """Every loader's read_table also runs reference_table's; (got, want) go to `outcomes`."""
    real = ingest.read_table

    def both(path, columns, tail=None, key=()):
        got = _table_or_exception(lambda: real(path, columns, tail, key))
        # load_fuel_mix's tail calls `_as_shares` by its module name
        with mock.patch.object(ingest, "_as_shares", reference_table._as_shares):
            want = _table_or_exception(lambda: reference_table.read_table(
                path, [(name, REFERENCE_PARSERS.get(parse, parse)) for name, parse in columns],
                REFERENCE_PARSERS.get(tail, tail), key))
        outcomes.append((got, want))
        if isinstance(got, Exception):
            raise got
        return got

    with contextlib.ExitStack() as stack:
        for module in TABLE_READERS:
            stack.enter_context(mock.patch.object(module, "read_table", both))
        yield


@pytest.mark.parametrize("load, header", [c[1:] for c in CSV_LOADERS],
                         ids=[c[0] for c in CSV_LOADERS])
@given(data=st.data())
@settings(max_examples=120, deadline=None)
def test_read_table_matches_csv_reader_reference(request, load, header, data):
    """Plain texts take numpy's reader, the rest csv.reader: the table or error is the same."""
    text = data.draw(table_texts(VALID_ROWS[request.node.callspec.id]))
    outcomes = []
    with tempfile.TemporaryDirectory() as tmp, read_tables_twice(outcomes):
        path = Path(tmp) / "input.csv"
        path.write_bytes(f"{header}\n{text}".encode())
        try:
            load(path)
        except GridHealthError:
            pass
    assert len(outcomes) == 1
    got, want = outcomes[0]
    assert _same_outcome(got, want), (text, got, want)


@pytest.mark.parametrize("load, header", [c[1:] for c in CSV_LOADERS],
                         ids=[c[0] for c in CSV_LOADERS])
def test_read_table_matches_reference_on_every_token(request, tmp_path, load, header):
    """Each cell of the accepted row replaced by each token: same table or error."""
    valid = VALID_ROWS[request.node.callspec.id].split(",")
    path = tmp_path / "input.csv"
    outcomes = []
    with read_tables_twice(outcomes):
        for j in range(len(valid)):
            for token in TABLE_TOKENS:
                path.write_text(f"{header}\n{','.join(valid[:j] + [token] + valid[j + 1:])}\n")
                try:
                    load(path)
                except GridHealthError:
                    pass
    assert len(outcomes) == len(valid) * len(TABLE_TOKENS)
    for got, want in outcomes:
        assert _same_outcome(got, want), (got, want)


def test_plain_sessions_never_reach_csv_reader(tmp_path):
    """A sessions file as `write_sessions` writes it takes numpy's reader; its CRLF copy does not."""
    path = tmp_path / "sessions.csv"
    rows = [f"s{i},{i},{i + 71},{i * 0.7!r},{[3.6, 7.2, 11.0][i % 3]!r}" for i in range(50)]
    path.write_text("session_id,arrival,departure,demand_kwh,rate_kw\n" + "\n".join(rows) + "\n")
    with mock.patch.object(ingest.csv, "reader", side_effect=AssertionError("csv.reader")):
        sessions = load_sessions(path)
        assert sessions.session_id.tolist() == [f"s{i}" for i in range(50)]
        assert sessions.demand_kwh.tolist() == [i * 0.7 for i in range(50)]
        crlf = tmp_path / "crlf.csv"
        crlf.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        with pytest.raises(AssertionError, match="csv.reader"):
            load_sessions(crlf)
