"""Concentration-response, monetization, and the end-to-end per-MWh signal."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridhealth.dispersion import SourceReceptorMatrix, apply_source_receptor
from gridhealth.emissions import EmissionFactorTable, emissions_from_mix
from gridhealth.errors import (
    DimensionMismatch,
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
    delta_health,
    impact_per_mwh,
    impacts,
    load_signals_csv,
    monetize,
    receptor_costs,
    split_internal_external,
)
from gridhealth.ingest import CANONICAL_FUELS, ZERO_EMISSION_FUELS

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
