"""Concentration-response, monetization, and the end-to-end per-MWh signal."""

import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridhealth import health, scheduler
from gridhealth.dispersion import SourceReceptorMatrix, apply_source_receptor
from gridhealth.emissions import EmissionFactorTable, emissions_from_mix
from gridhealth.errors import (
    DimensionMismatch,
    InvalidParams,
    MalformedRow,
    MissingValuation,
    UnknownReceptor,
)
from gridhealth.health import (
    LINEAR,
    LOG_LINEAR,
    ConcentrationResponse,
    HealthSignal,
    HealthValuation,
    PipelineConfig,
    ReceptorProfile,
    _row_fsums,
    delta_health,
    impact_per_mwh,
    impacts,
    load_receptor_profiles,
    load_signals_csv,
    monetize,
    receptor_costs,
    split_internal_external,
)
from gridhealth.ingest import CANONICAL_FUELS, ZERO_EMISSION_FUELS
from gridhealth.synth import default_pipeline_config, oracle_labels, synthetic_mix_series

from conftest import make_record


def profile(rate=0.01, pop=100000.0, internal=True, rid="R"):
    return ReceptorProfile(rid, pop, {"ep": rate}, internal)


def cr(alpha, form=LOG_LINEAR):
    return ConcentrationResponse("ep", np.atleast_1d(alpha), form)


class TestDeltaHealth:
    def test_zero_concentration_zero_cases(self):
        assert delta_health(profile(), cr([0.5]), np.array([0.0])) == 0.0

    def test_ln2_half_baseline(self):
        # alpha . delta = ln 2  ->  cases = Y0 * POP / 2 = 500
        val = delta_health(profile(), cr([1.0]), np.array([math.log(2.0)]))
        assert val == pytest.approx(500.0, abs=1e-12)

    def test_small_exposure_matches_linear(self):
        x = 1e-4
        log_lin = delta_health(profile(), cr([1.0]), np.array([x]))
        lin = delta_health(profile(), cr([1.0], LINEAR), np.array([x]))
        assert abs(log_lin - lin) / lin < 1e-4  # within 0.01%

    def test_log_linear_bounded_by_baseline(self):
        baseline = 0.01 * 100000.0
        assert delta_health(profile(), cr([1.0]), np.array([5.0])) < baseline
        # saturates toward (never beyond) the baseline
        assert delta_health(profile(), cr([1.0]), np.array([50.0])) <= baseline

    def test_increasing_and_concave(self):
        xs = np.linspace(0.0, 3.0, 40)
        vals = [delta_health(profile(), cr([1.0]), np.array([x])) for x in xs]
        diffs = np.diff(vals)
        assert np.all(diffs > 0)          # strictly increasing
        assert np.all(np.diff(diffs) < 1e-9)  # concave

    def test_negative_concentration_rejected(self):
        with pytest.raises(ValueError):
            delta_health(profile(), cr([1.0]), np.array([-0.1]))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            delta_health(profile(), cr([1.0, 2.0]), np.array([0.1]))

    def test_missing_baseline_rate(self):
        p = ReceptorProfile("R", 100.0, {"other": 0.1}, True)
        with pytest.raises(DimensionMismatch):
            delta_health(p, cr([1.0]), np.array([0.1]))


class TestMonetize:
    def test_simple_product(self):
        assert monetize({"ep": 500.0}, [HealthValuation("ep", 100.0)]) == 50000.0

    def test_zero_cases(self):
        assert monetize({"ep": 0.0}, [HealthValuation("ep", 100.0)]) == 0.0

    def test_hand_dot_product(self):
        vals = [HealthValuation("a", 10.0), HealthValuation("b", 5.0)]
        assert monetize({"a": 2.0, "b": 3.0}, vals) == pytest.approx(35.0)

    def test_missing_valuation(self):
        with pytest.raises(MissingValuation, match="ep"):
            monetize({"ep": 1.0}, [])


class TestSplit:
    PROFILES = [ReceptorProfile("a", 1.0, {}, True), ReceptorProfile("b", 1.0, {}, False)]

    def test_simple_split(self):
        assert split_internal_external({"a": 2.0, "b": 3.0}, self.PROFILES) == (2.0, 3.0)

    def test_all_internal(self):
        profs = [ReceptorProfile(x, 1.0, {}, True) for x in "abc"]
        internal, external = split_internal_external({"a": 1.0, "b": 2.0, "c": 3.0}, profs)
        assert (internal, external) == (6.0, 0.0)

    def test_sum_preserved_random(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            flags = rng.random(5) < 0.5
            profs = [ReceptorProfile(f"r{i}", 1.0, {}, bool(flags[i])) for i in range(5)]
            costs = {f"r{i}": float(rng.uniform(0, 100)) for i in range(5)}
            internal, external = split_internal_external(costs, profs)
            # brute-force re-summation oracle: each bucket is exactly the
            # fsum of its group, and together they cover every receptor
            assert internal == math.fsum(v for k, v in costs.items() if flags[int(k[1])])
            assert external == math.fsum(v for k, v in costs.items() if not flags[int(k[1])])
            total = math.fsum(costs.values())
            assert internal + external == pytest.approx(total, rel=1e-12)

    def test_unknown_receptor(self):
        with pytest.raises(UnknownReceptor, match="zz"):
            split_internal_external({"zz": 1.0}, self.PROFILES)


def one_hop_config(factor=2.0, gain=0.3, alpha=0.05, rate=0.01, pop=1000.0,
                   value=100.0, form=LOG_LINEAR):
    """1 fuel x 1 pollutant x 1 receptor x 1 endpoint bundle."""
    factors = EmissionFactorTable([[factor], [0.0]], ("COL", "WND"), ("SO2",))
    matrix = SourceReceptorMatrix([[gain]], ("R",), ("SO2",))
    profiles = [ReceptorProfile("R", pop, {"ep": rate}, True)]
    responses = [ConcentrationResponse("ep", np.array([alpha]), form)]
    valuations = [HealthValuation("ep", value)]
    return PipelineConfig(factors, matrix, profiles, responses, valuations)


class TestImpactPerMwh:
    def test_all_renewable_zero_signal(self):
        config = one_hop_config()
        signal = impact_per_mwh(make_record([0.0, 1.0], ("COL", "WND")), config)
        assert signal.internal_cost == 0.0
        assert signal.external_cost == 0.0

    def test_hand_composed_chain(self):
        # compose the four stages independently of the implementation
        f, g, a, r, pop, v = 2.0, 0.3, 0.05, 0.01, 1000.0, 100.0
        config = one_hop_config(f, g, a, r, pop, v)
        share_col = 0.65
        expected = v * r * pop * (1.0 - math.exp(-a * (g * (f * share_col))))
        signal = impact_per_mwh(make_record([share_col, 1 - share_col], ("COL", "WND")), config)
        assert signal.internal_cost == pytest.approx(expected, rel=1e-12)
        assert signal.external_cost == 0.0

    def test_blend_exact_average_in_linear_mode(self):
        config = one_hop_config(form=LINEAR)
        x = np.array([0.8, 0.2])
        y = np.array([0.2, 0.8])
        sx = impact_per_mwh(make_record(x, ("COL", "WND")), config).internal_cost
        sy = impact_per_mwh(make_record(y, ("COL", "WND")), config).internal_cost
        sblend = impact_per_mwh(make_record(0.5 * x + 0.5 * y, ("COL", "WND")),
                                config).internal_cost
        assert sblend == pytest.approx(0.5 * sx + 0.5 * sy, rel=1e-12)

    def test_blend_between_endpoints_log_linear(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            config = one_hop_config(factor=float(rng.uniform(0.5, 4.0)),
                                    gain=float(rng.uniform(0.05, 0.8)),
                                    alpha=float(rng.uniform(0.01, 0.5)))
            x = rng.dirichlet(np.ones(2))
            y = rng.dirichlet(np.ones(2))
            sx = impact_per_mwh(make_record(x, ("COL", "WND")), config).internal_cost
            sy = impact_per_mwh(make_record(y, ("COL", "WND")), config).internal_cost
            sb = impact_per_mwh(make_record(0.5 * x + 0.5 * y, ("COL", "WND")),
                                config).internal_cost
            assert min(sx, sy) - 1e-12 <= sb <= max(sx, sy) + 1e-12

    def test_monotone_in_emission_factor(self):
        lo = one_hop_config(factor=1.0)
        hi = one_hop_config(factor=1.5)
        mix = make_record([0.5, 0.5], ("COL", "WND"))
        assert impact_per_mwh(mix, hi).internal_cost >= impact_per_mwh(mix, lo).internal_cost

    def test_conservation_against_receptor_costs(self, default_config):
        mix = make_record([0.2, 0.3, 0.0, 0.2, 0.1, 0.1, 0.05, 0.05],
                          default_config.factors.fuel_names)
        costs = receptor_costs(mix, default_config)
        signal = impact_per_mwh(mix, default_config)
        internal_ids = {p.receptor_id for p in default_config.profiles if p.internal}
        assert signal.internal_cost == math.fsum(
            v for k, v in costs.items() if k in internal_ids)
        assert signal.external_cost == math.fsum(
            v for k, v in costs.items() if k not in internal_ids)
        assert signal.internal_cost + signal.external_cost == pytest.approx(
            math.fsum(costs.values()), rel=1e-12)

    def test_timestamp_carried(self):
        config = one_hop_config()
        signal = impact_per_mwh(make_record([1.0, 0.0], ("COL", "WND"), timestamp=17), config)
        assert signal.timestamp == 17


def scalar_chain(mix, config):
    """Reference: the chain one receptor and one endpoint at a time."""
    ev = emissions_from_mix(mix, config.factors, 1.0)
    conc = apply_source_receptor(ev, config.sr_matrix)
    costs = {}
    for i, rid in enumerate(config.sr_matrix.receptor_ids):
        prof = config.profile_for(rid)
        cases = {c.endpoint_id: delta_health(prof, c, conc.delta[i]) for c in config.responses}
        costs[rid] = monetize(cases, config.valuations)
    return costs, split_internal_external(costs, config.profiles)


def random_config(rng, k, m, forms, mask):
    """Config over the canonical fuels with random magnitudes."""
    factors = rng.uniform(0.0, 3.0, (len(CANONICAL_FUELS), k))
    factors[[f in ZERO_EMISSION_FUELS for f in CANONICAL_FUELS]] = 0.0
    pollutants = tuple(f"P{j}" for j in range(k))
    receptors = tuple(f"R{i}" for i in range(m))
    endpoints = [f"e{j}" for j in range(len(forms))]
    internal = {"internal": np.ones(m, bool), "external": np.zeros(m, bool),
                "mixed": rng.random(m) < 0.5}[mask]
    profiles = [ReceptorProfile(rid, float(rng.uniform(0.0, 1e6)),
                                {e: float(rng.uniform(0.0, 0.02)) for e in endpoints},
                                bool(internal[i]))
                for i, rid in enumerate(receptors)]
    responses = [ConcentrationResponse(e, rng.uniform(0.0, 0.5, k), form)
                 for e, form in zip(endpoints, forms)]
    valuations = [HealthValuation(e, float(rng.uniform(0.0, 1e5))) for e in endpoints]
    return PipelineConfig(EmissionFactorTable(factors, CANONICAL_FUELS, pollutants),
                          SourceReceptorMatrix(rng.uniform(0.0, 2.0, (k, m)), receptors, pollutants),
                          profiles, responses, valuations)


class TestImpacts:
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 4), m=st.integers(1, 6),
           forms=st.lists(st.sampled_from([LINEAR, LOG_LINEAR]), min_size=1, max_size=4),
           mask=st.sampled_from(["internal", "external", "mixed"]),
           fuels=st.permutations(CANONICAL_FUELS), n_fuels=st.integers(1, 8),
           n=st.integers(0, 6))
    @settings(max_examples=150, deadline=None)
    def test_matches_scalar_chain(self, seed, k, m, forms, mask, fuels, n_fuels, n):
        rng = np.random.default_rng(seed)
        config = random_config(rng, k, m, forms, mask)
        fuels = tuple(fuels[:n_fuels])
        shares = rng.dirichlet(np.ones(n_fuels), size=n)
        out = impacts(shares, fuels, config)
        assert out.shape == (n, 2) and out.dtype == np.float64
        internal_ids = {p.receptor_id for p in config.profiles if p.internal}
        for i in range(n):
            mix = make_record(shares[i], fuels)
            ref_costs, ref_split = scalar_chain(mix, config)
            np.testing.assert_allclose(out[i], ref_split, rtol=1e-12, atol=0.0)
            costs = receptor_costs(mix, config)
            np.testing.assert_allclose([costs[r] for r in ref_costs], list(ref_costs.values()),
                                       rtol=1e-12, atol=0.0)
            # each bucket is exactly the fsum of its receptor group
            assert out[i, 0] == math.fsum(v for r, v in costs.items() if r in internal_ids)
            assert out[i, 1] == math.fsum(v for r, v in costs.items() if r not in internal_ids)
            # a row's result does not depend on the rows around it
            assert impacts(shares[i:i + 1], fuels, config)[0].tolist() == out[i].tolist()

    @given(seed=st.integers(0, 2**32 - 1), forms=st.lists(
        st.sampled_from([LINEAR, LOG_LINEAR]), min_size=1, max_size=3))
    @settings(max_examples=30, deadline=None)
    def test_renewable_rows_exactly_zero(self, seed, forms):
        rng = np.random.default_rng(seed)
        config = random_config(rng, 3, 4, forms, "mixed")
        fuels = ("COL", "WND", "NG", "SUN", "WAT", "NUC")
        shares = rng.dirichlet(np.ones(len(fuels)), size=3)
        shares[:, [0, 2]] = 0.0
        assert impacts(shares, fuels, config).tolist() == [[0.0, 0.0]] * 3

    def test_empty_and_single_row_shapes(self, default_config):
        fuels = default_config.factors.fuel_names
        assert impacts(np.zeros((0, len(fuels))), fuels, default_config).shape == (0, 2)
        one = impacts(np.full((1, len(fuels)), 1.0 / len(fuels)), fuels, default_config)
        assert one.shape == (1, 2)

    def test_unknown_fuel_rejected(self):
        with pytest.raises(DimensionMismatch, match="GEO"):
            impacts(np.array([[0.5, 0.5]]), ("COL", "GEO"), one_hop_config())

    def test_share_width_mismatch(self):
        with pytest.raises(DimensionMismatch):
            impacts(np.array([[0.5, 0.5]]), ("COL",), one_hop_config())

    def test_negative_emissions_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            impacts(np.array([[-0.5, 1.5]]), ("COL", "WND"), one_hop_config())


DBL_MAX = sys.float_info.max


def fsum_rows(block):
    return np.array([math.fsum(row) for row in block.tolist()], dtype=np.float64)


def bits(values):
    """The float64 bit patterns, so that 0.0 and -0.0 differ."""
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


def row_blocks():
    """(name, block) cases on which `_row_fsums` must equal math.fsum bit for bit."""
    rng = np.random.default_rng(5)
    # two terms with exponents one apart: the exact sum needs 54 bits, a tie when in [1, 2)
    a = 1.0 + rng.integers(0, 2**52, size=200) * 2.0**-52
    b = 0.5 + (2 * rng.integers(0, 2**51, size=200) + 1) * 2.0**-53
    sign = rng.choice([-1.0, 1.0], size=200)
    yield "two-term ties", np.column_stack([sign * a, sign * b])
    # a tie plus a term below long double's precision: rounding the long-double sum
    # to float64 rounds a tie, while the exact sum lies just off it
    even = 1.0 + 2 * rng.integers(0, 2**51, size=200) * 2.0**-52
    tiny = rng.choice([-1.0, 1.0], size=200) * 2.0**-120
    yield "off-tie", np.column_stack([even, np.full(200, 2.0**-53), tiny])
    # energy x price products of 72-slot windows, some slots unselected
    products = rng.uniform(0.0, 11.0, (300, 72)) * rng.uniform(0.0, 0.6, (300, 72))
    products[rng.random((300, 72)) < 0.3] = 0.0
    yield "72 terms", products
    yield "72 terms, both signs", products * rng.choice([-1.0, 1.0], size=(300, 72))
    # large terms that cancel exactly, leaving the small ones: the long-double sum
    # is off by far more than a float64 ulp of the result
    big = rng.uniform(1.0, 2.0, 100) * 2.0 ** rng.integers(40, 90, 100)
    small = rng.uniform(1.0, 2.0, (100, 2)) * rng.choice([-1.0, 1.0], size=(100, 2))
    yield "cancellation", np.column_stack([big, small[:, 0], -big, small[:, 1]])
    # subnormals alone and next to the smallest normals
    subnormal = rng.integers(-1000, 1001, (100, 9)) * 5e-324
    yield "subnormals", subnormal
    yield "subnormals and normals", np.column_stack([subnormal, rng.choice(
        [-1.0, 1.0], size=(100, 3)) * 2.2250738585072014e-308])
    # near DBL_MAX: sums at DBL_MAX, and large terms that cancel
    yield "near DBL_MAX", np.vstack([
        [DBL_MAX / 2, DBL_MAX / 2, 0.0, 0.0],
        [DBL_MAX, -DBL_MAX, DBL_MAX, -1.0],
        [-DBL_MAX, 2.0**969, 2.0**969, 0.0],
        rng.uniform(-1.0, 1.0, (50, 4)) * (DBL_MAX / 8)])
    # all-zero rows, signed zeros, zero products of -0.0 prices, exact cancellation
    energy = np.array([[0.0, 0.0, 3.6], [0.0, 0.0, 0.0], [7.2, 0.0, 0.0], [0.0, 0.0, 0.0]])
    prices = np.array([[-0.25, -0.5, -0.0], [-0.0, -0.0, -0.0], [-0.0, 0.0, -0.0],
                       [-0.1, 0.2, 0.0]])
    yield "zeros", np.vstack([energy * prices, [[0.0, -0.0, -0.0], [-0.0, -0.0, -0.0],
                                                [1.5, -1.5, -0.0], [-1.5, 1.5, 0.0]]])
    # one large term among many tiny ones, each under half an ulp of it
    large = np.full((72, 72), 1.1e-16) * rng.choice([-1.0, 1.0], size=(72, 72))
    large[np.arange(72), np.arange(72)] = 1.0
    yield "one large among tiny", large
    # ties that a bit below long double's precision breaks: 2**s plus a term of
    # exponent s - k, 13 <= k <= 51, that holds the float64 midpoint bit of 2**s and
    # its own lowest bit; sum|x| is 2**(k + 52) times that term's spacing
    s = rng.integers(-900, 900, 117)
    k = np.arange(117) % 39 + 13
    sign = rng.choice([-1.0, 1.0], size=117)
    yield "broken ties", np.column_stack([
        sign * np.ldexp(1.0, s), sign * np.ldexp(1 + np.ldexp(1.0, k - 53) + 2.0**-52, s - k)])


class TestRowFsums:
    """`_row_fsums` against math.fsum, compared bit for bit."""

    @pytest.mark.parametrize("name, block", list(row_blocks()))
    def test_matches_fsum(self, name, block):
        want = fsum_rows(block)
        got = _row_fsums(block)
        assert got.shape == (len(block),) and got.dtype == np.float64
        assert bits(got) == bits(want), name

    def test_cases_can_fail(self):
        blocks = dict(row_blocks())
        # float64 sums miss on these, so a helper that fell back to them would fail
        for name in ("off-tie", "72 terms", "72 terms, both signs", "cancellation",
                     "one large among tiny"):
            assert (blocks[name].sum(axis=1) != fsum_rows(blocks[name])).any(), name
        # long double alone rounds these rows twice and misses too
        for name in ("off-tie", "broken ties"):
            rows = blocks[name]
            assert (rows.sum(axis=1, dtype=np.longdouble).astype(np.float64)
                    != fsum_rows(rows)).any(), name
        assert {math.copysign(1.0, x) for x in fsum_rows(blocks["zeros"]).tolist()} == {1.0}
        assert (fsum_rows(blocks["near DBL_MAX"]) == DBL_MAX).any()

    def test_empty_blocks(self):
        assert bits(_row_fsums(np.zeros((3, 0)))) == bits([0.0] * 3)
        assert _row_fsums(np.zeros((0, 4))).shape == (0,)

    @pytest.mark.parametrize("row", [[DBL_MAX, DBL_MAX], [DBL_MAX, 2.0**970],
                                     [DBL_MAX, *[2.0**969] * 2, *[-2.0**969] * 3, -2.0**968]])
    def test_overflow_is_fsums(self, row):
        # the last row's exact sum rounds to DBL_MAX, but fsum overflows on the way
        with pytest.raises(OverflowError):
            math.fsum(row)
        with pytest.raises(OverflowError):
            _row_fsums(np.array([row, [1.0, 2.0] + [0.0] * (len(row) - 2)]))

    @given(st.integers(1, 6).flatmap(lambda cols: st.lists(
        st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=cols, max_size=cols),
        min_size=1, max_size=6)))
    @settings(max_examples=300, deadline=None)
    def test_matches_fsum_on_any_finite_rows(self, rows):
        block = np.array(rows, dtype=np.float64)
        try:
            want = fsum_rows(block)
        except OverflowError:
            with pytest.raises(OverflowError):
                _row_fsums(block)
        else:
            assert bits(_row_fsums(block)) == bits(want)

    @given(st.integers(1, 8).flatmap(lambda cols: st.lists(st.lists(
        st.builds(lambda k, e: k * 2.0 ** e, st.integers(-2**53, 2**53),
                  st.integers(-1074, 960) | st.integers(-80, 10)),
        min_size=cols, max_size=cols), min_size=1, max_size=8)))
    @settings(max_examples=400, deadline=None)
    def test_matches_fsum_on_dyadic_rows(self, rows):
        """Short-mantissa terms a few exponents apart: exact sums, many of them ties."""
        block = np.array(rows, dtype=np.float64)
        try:
            want = fsum_rows(block)
        except OverflowError:
            with pytest.raises(OverflowError):
                _row_fsums(block)
        else:
            assert bits(_row_fsums(block)) == bits(want)

    @given(st.lists(st.tuples(st.integers(2**52, 2**53 - 1), st.integers(0, 2**52 - 1),
                              st.integers(-1074, 900), st.sampled_from([-1.0, 1.0])),
                    min_size=1, max_size=20))
    @settings(max_examples=200, deadline=None)
    def test_matches_fsum_on_midpoint_rows(self, cases):
        """An odd-ulp term plus half its ulp, split across a row: the exact sum is a tie."""
        rows = []
        for big, small, e, sign in cases:
            half = 2.0 ** (e - 1)       # half an ulp of big * 2**e
            rows.append([sign * big * 2.0 ** e, sign * small * half, sign * half,
                         -sign * small * half])
        block = np.array(rows, dtype=np.float64)
        assert bits(_row_fsums(block)) == bits(fsum_rows(block))

    def fsum_calls(self, monkeypatch, blocks):
        """Rows `_row_fsums` passes to math.fsum over `blocks`, checking each result."""
        calls = []
        real = math.fsum
        wants = [fsum_rows(block) for block in blocks]
        monkeypatch.setattr(math, "fsum", lambda row: calls.append(1) or real(row))
        for block, want in zip(blocks, wants):
            assert bits(_row_fsums(block)) == bits(want)
        monkeypatch.setattr(math, "fsum", real)
        return len(calls)

    def test_fast_path_takes_most_rows(self, monkeypatch):
        if not health._LONG_SUMS:
            pytest.skip("long double is neither x87 80-bit nor IEEE binary128 here")
        blocks = dict(row_blocks())
        # fleet traffic: the charged rows of 2,000 sampled sessions on a 720 h synth signal
        signals = oracle_labels(synthetic_mix_series(720, 0), default_pipeline_config())
        sessions = scheduler.sample_sessions(
            2000, {"17": 0.2, "18": 0.4, "19": 0.4}, {"6": 0.4, "7": 0.6},
            {"kind": "uniform", "low": 10, "high": 36}, 7.2, seed=0, days=29)
        rows, calls, real = [], [], math.fsum
        monkeypatch.setattr(scheduler, "_row_fsums", lambda b: rows.append(len(b)) or _row_fsums(b))
        monkeypatch.setattr(math, "fsum", lambda row: calls.append(1) or real(row))
        scheduler._session_costs(sessions, signals)
        monkeypatch.undo()
        assert len(calls) < 0.02 * sum(rows)
        assert self.fsum_calls(monkeypatch, [blocks["subnormals"]]) == 0
        # exact ties: every partial sum is exact in long double
        assert self.fsum_calls(monkeypatch, [blocks["two-term ties"]]) == 0
        # fsum decides the sign of a zero sum
        assert self.fsum_calls(monkeypatch, [blocks["zeros"]]) == len(blocks["zeros"])

    def test_every_row_through_fsum_without_long_double(self, monkeypatch):
        monkeypatch.setattr(health, "_LONG_SUMS", False)
        blocks = [block for _, block in row_blocks()]
        assert self.fsum_calls(monkeypatch, blocks) == sum(map(len, blocks))


class TestConfigValidation:
    def test_pollutant_mismatch(self):
        factors = EmissionFactorTable([[1.0]], ("COL",), ("SO2",))
        matrix = SourceReceptorMatrix([[0.1]], ("R",), ("NOX",))
        with pytest.raises(DimensionMismatch):
            PipelineConfig(factors, matrix, [profile()], [cr([0.1])],
                           [HealthValuation("ep", 1.0)])

    def test_missing_profile(self):
        factors = EmissionFactorTable([[1.0]], ("COL",), ("SO2",))
        matrix = SourceReceptorMatrix([[0.1]], ("R2",), ("SO2",))
        with pytest.raises(UnknownReceptor):
            PipelineConfig(factors, matrix, [profile(rid="other")], [cr([0.1])],
                           [HealthValuation("ep", 1.0)])

    def test_missing_valuation(self):
        factors = EmissionFactorTable([[1.0]], ("COL",), ("SO2",))
        matrix = SourceReceptorMatrix([[0.1]], ("R",), ("SO2",))
        with pytest.raises(MissingValuation):
            PipelineConfig(factors, matrix, [profile()], [cr([0.1])], [])

    def test_repeated_endpoint(self):
        factors = EmissionFactorTable([[1.0]], ("COL",), ("SO2",))
        matrix = SourceReceptorMatrix([[0.1]], ("R",), ("SO2",))
        with pytest.raises(InvalidParams, match=r"^endpoint 'ep' has more than one response$"):
            PipelineConfig(factors, matrix, [profile()], [cr([0.1]), cr([0.2])],
                           [HealthValuation("ep", 1.0)])


def test_health_signal_rejects_negative():
    with pytest.raises(ValueError):
        HealthSignal(-1.0, 0.0)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_health_signal_rejects_non_finite(value):
    with pytest.raises(ValueError, match="finite"):
        HealthSignal(value, 0.0)
    with pytest.raises(ValueError, match="finite"):
        HealthSignal(0.0, value)


@pytest.mark.parametrize("cells", ["1,nan,1.0", "1,1.0,inf", "1,-0.5,1.0", "1,x,1.0",
                                   "99999999999999999999,1.0,1.0",   # beyond int64
                                   "0,1.0,1.0",                      # the hour of line 2 again
                                   "-1,1.0,1.0"])                    # out of order
def test_load_signals_names_path_and_line(tmp_path, cells):
    p = tmp_path / "labels.csv"
    p.write_text("timestamp,internal_usd_per_mwh,external_usd_per_mwh\n0,1.0,1.0\n"
                 + cells + "\n")
    with pytest.raises(MalformedRow, match=re.escape(f"{p}:3: ")):
        load_signals_csv(p)


def test_internal_flag_takes_six_words_in_any_case(tmp_path):
    p = tmp_path / "receptors.csv"
    words = ["1", "0", "TRUE", "False", "yes", "NO"]
    p.write_text("receptor_id,population,internal,ep\n"
                 + "".join(f"R{i},10,{w},0.1\n" for i, w in enumerate(words)))
    assert [r.internal for r in load_receptor_profiles(p, ["ep"])] == [True, False] * 3
    p.write_text("receptor_id,population,internal,ep\nR0,10,true,0.1\nR1,10,y,0.1\n")
    with pytest.raises(MalformedRow, match=re.escape(f"{p}:3: internal 'y' is not ")):
        load_receptor_profiles(p, ["ep"])
