"""Loading, imputation, normalization, and capacity-proportional allocation."""

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

from gridhealth import ingest
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
    load_plants,
    normalize_mix,
    write_fuel_mix_csv,
    write_hourly_csv,
)

from gridhealth.dispersion import SourceReceptorMatrix
from gridhealth.emissions import EmissionFactorTable
from gridhealth.health import (
    load_concentration_responses,
    load_receptor_profiles,
    load_signals_csv,
    load_valuations,
)
from gridhealth.scheduler import load_sessions

from conftest import make_record, make_series
from reference_ingest import load_fuel_mix_rowwise


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
        assert str(info.value) == f"{p}: row 3: {reason}"

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
        with pytest.raises(MalformedRow, match=f"row {row_no}:") as info:
            load_fuel_mix(p, IDENTITY2)
        assert str(p) in str(info.value)

    def test_round_trip_write(self, tmp_path):
        series = make_series([[0.5, 0.5], [0.3, 0.7]], ("COL", "NG"))
        p = tmp_path / "out.csv"
        write_fuel_mix_csv(p, series)
        again = load_fuel_mix(p, FuelCategoryMap({"COL": "COL", "NG": "NG"}))
        np.testing.assert_array_equal(again.shares, series.shares)


class TestCategoryMap:
    def test_row_errors_name_path_and_line(self, tmp_path):
        p = tmp_path / "map.csv"
        write_csv(p, [["raw_label", "canonical"], ["coal", "COL"], ["gas"]])
        with pytest.raises(MalformedRow) as info:
            FuelCategoryMap.from_csv(p)
        assert str(info.value) == f"{p}:3: bad map row ['gas']"

    def test_label_listed_twice(self, tmp_path):
        p = tmp_path / "map.csv"
        write_csv(p, [["raw_label", "canonical"], ["coal", "COL"], ["gas", "NG"],
                      ["coal ", "OTH"]])
        with pytest.raises(MalformedRow) as info:
            FuelCategoryMap.from_csv(p)
        assert str(info.value) == f"{p}:4: raw label 'coal' already mapped on line 2"

    def test_packaged_map_loads(self):
        cmap = FuelCategoryMap.from_csv(
            Path(ingest.__file__).parent / "data" / "category_map.csv")
        assert cmap.entries and set(cmap.entries.values()) <= {*ingest.CANONICAL_FUELS,
                                                               ingest.EXCLUDED}


# -- the block reader against the row-at-a-time reference ---------------------

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
    """(CSV text, block size): a valid hourly file, then up to five edits."""
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
    return "\n".join(lines) + "\n", draw(st.sampled_from([1, 2, 3, 2048]))


def _outcome(loader, path):
    try:
        return loader(path, FUZZ_MAP)
    except GridHealthError as exc:
        return type(exc), str(exc)


@given(raw_mix_csvs())
@settings(max_examples=250, deadline=None)
def test_block_reader_matches_rowwise_reference(case):
    text, block_rows = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "mix.csv"
        path.write_text(text)
        expected = _outcome(load_fuel_mix_rowwise, path)
        with mock.patch.object(ingest, "_BLOCK_ROWS", block_rows):
            got = _outcome(load_fuel_mix, path)
    if isinstance(expected, tuple):
        assert got == expected
        return
    assert not isinstance(got, tuple), got
    np.testing.assert_array_equal(got.timestamps, expected.timestamps)
    assert np.array_equal(got.shares, expected.shares, equal_nan=True)
    np.testing.assert_array_equal(got.flags, expected.flags)
    assert got.fuel_names == expected.fuel_names


@given(st.integers(0, 3).flatmap(lambda f: st.lists(
           st.tuples(st.integers(-2**63, 2**63 - 1),
                     st.lists(st.floats(), min_size=f, max_size=f)),
           max_size=7).map(lambda rows: (f, rows))),
       st.sampled_from([2, 2048]))
@settings(max_examples=100, deadline=None)
def test_hourly_writer_matches_csv_writer(case, block_rows):
    n_values, rows = case
    header = ["timestamp", *(f"v{k}" for k in range(n_values))]
    stamps = np.array([t for t, _ in rows], dtype=np.int64)
    values = np.array([v for _, v in rows], dtype=np.float64).reshape(len(rows), n_values)
    with tempfile.TemporaryDirectory() as tmp:
        got, want = Path(tmp) / "got.csv", Path(tmp) / "want.csv"
        with mock.patch.object(ingest, "_BLOCK_ROWS", block_rows):
            write_hourly_csv(got, header, stamps, values)
        with open(want, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows([t, *(repr(float(v)) for v in vs)] for t, vs in rows)
        assert got.read_bytes() == want.read_bytes()


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


def test_load_plants_csv(tmp_path):
    p = tmp_path / "plants.csv"
    write_csv(p, [["plant_id", "region_id", "fuel", "capacity_basis", "SO2", "NOX"],
                  ["p1", "BA1", "COL", "1200", "1.4", "0.9"],
                  ["p2", "BA1", "NG", "800", "0.01", "0.5"]])
    plants = load_plants(p)
    assert [pl.plant_id for pl in plants] == ["p1", "p2"]
    assert plants[0].emission_rates == {"SO2": 1.4, "NOX": 0.9}
    assert plants[1].capacity_share_basis == 800.0


def test_load_plants_rejects_bad_rows(tmp_path):
    p = tmp_path / "plants.csv"
    write_csv(p, [["plant_id", "region_id", "fuel", "capacity_basis", "SO2"],
                  ["p1", "BA1", "COL", "oops", "1.4"]])
    with pytest.raises(MalformedRow):
        load_plants(p)


# Every csv.reader-based loader, with a header it accepts.
CSV_LOADERS = [
    ("category_map", FuelCategoryMap.from_csv, "raw_label,canonical"),
    ("plants", load_plants, "plant_id,region_id,fuel,capacity_basis,SO2"),
    ("fuel_mix", lambda p: load_fuel_mix(p, IDENTITY2), "timestamp,coal,gas"),
    ("emission_factors", EmissionFactorTable.from_csv, "fuel,SO2"),
    ("sr_matrix", SourceReceptorMatrix.from_csv, "pollutant,receptor_id,gain"),
    ("receptors", lambda p: load_receptor_profiles(p, ["mortality"]),
     "receptor_id,population,internal,mortality"),
    ("concentration_response", load_concentration_responses, "endpoint_id,form,SO2"),
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
