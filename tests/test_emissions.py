"""Mix-to-mass conversion and plant-level aggregation."""

import numpy as np
import pytest

from gridhealth.emissions import (
    EmissionFactorTable,
    EmissionVector,
    aggregate_plant_emissions,
    emissions_from_mix,
)
from gridhealth.errors import DimensionMismatch, UnknownPlant
from gridhealth.ingest import PlantRecord, allocate_generation

from conftest import make_record

TABLE = EmissionFactorTable(
    factors=[[1.5], [0.1], [0.0]],
    fuel_names=("COL", "NG", "WND"),
    pollutant_names=("SO2",),
)


def test_single_fuel_identity():
    ev = emissions_from_mix(make_record([1.0, 0.0, 0.0], TABLE.fuel_names), TABLE, 1.0)
    assert ev.quantities[0] == pytest.approx(1.5)


def test_zero_emission_fuel():
    ev = emissions_from_mix(make_record([0.0, 0.0, 1.0], TABLE.fuel_names), TABLE, 5.0)
    np.testing.assert_array_equal(ev.quantities, [0.0])


def test_bilinear_hand_value():
    # 50/50 coal(1.5)/gas(0.1) at 2 MWh: 2 * (0.75 + 0.05) = 1.6 kg
    ev = emissions_from_mix(make_record([0.5, 0.5, 0.0], TABLE.fuel_names), TABLE, 2.0)
    assert ev.quantities[0] == pytest.approx(1.6, rel=1e-12)


def test_linearity_in_mix():
    rng = np.random.default_rng(3)
    x = rng.dirichlet(np.ones(3))
    y = rng.dirichlet(np.ones(3))
    a = 0.3
    blend = emissions_from_mix(make_record(a * x + (1 - a) * y, TABLE.fuel_names), TABLE, 1.0)
    ex = emissions_from_mix(make_record(x, TABLE.fuel_names), TABLE, 1.0)
    ey = emissions_from_mix(make_record(y, TABLE.fuel_names), TABLE, 1.0)
    np.testing.assert_allclose(blend.quantities,
                               a * ex.quantities + (1 - a) * ey.quantities, rtol=1e-12)


def test_monotone_in_factors():
    base = emissions_from_mix(make_record([0.5, 0.5, 0.0], TABLE.fuel_names), TABLE, 1.0)
    raised = EmissionFactorTable([[1.6], [0.1], [0.0]], TABLE.fuel_names, TABLE.pollutant_names)
    more = emissions_from_mix(make_record([0.5, 0.5, 0.0], TABLE.fuel_names), raised, 1.0)
    assert np.all(more.quantities >= base.quantities)


def test_unknown_fuel_in_mix():
    with pytest.raises(DimensionMismatch):
        emissions_from_mix(make_record([1.0], ("GEO",)), TABLE, 1.0)


def test_zero_emission_fuel_rows_enforced():
    with pytest.raises(ValueError):
        EmissionFactorTable([[0.5]], ("WND",), ("SO2",))


PLANTS = [
    PlantRecord("p1", "BA", "COL", 1.0, {"NOX": 0.8}),
    PlantRecord("p2", "BA", "COL", 1.0, {"NOX": 2.0}),
]


def test_aggregate_identity():
    ev = aggregate_plant_emissions({"p1": 1.0}, PLANTS)
    assert ev.quantities[0] == pytest.approx(0.8)


def test_aggregate_empty_allocation():
    ev = aggregate_plant_emissions({}, PLANTS)
    np.testing.assert_array_equal(ev.quantities, [0.0])


def test_aggregate_weighted_sum():
    plants = [PlantRecord("a", "BA", "COL", 1.0, {"SO2": 1.0}),
              PlantRecord("b", "BA", "COL", 1.0, {"SO2": 2.0})]
    ev = aggregate_plant_emissions({"a": 0.75, "b": 0.25}, plants)
    assert ev.quantities[0] == pytest.approx(1.25)


def test_aggregate_unknown_plant():
    with pytest.raises(UnknownPlant, match="ghost"):
        aggregate_plant_emissions({"ghost": 1.0}, PLANTS)


def test_aggregate_matches_mix_route_with_uniform_rates():
    # aggregate . allocate == emissions_from_mix when per-fuel rates are uniform
    table = EmissionFactorTable([[1.5, 0.2], [0.1, 0.05]], ("COL", "NG"), ("SO2", "NOX"))
    plants = [
        PlantRecord("c1", "BA", "COL", 3.0, {"SO2": 1.5, "NOX": 0.2}),
        PlantRecord("c2", "BA", "COL", 1.0, {"SO2": 1.5, "NOX": 0.2}),
        PlantRecord("g1", "BA", "NG", 2.0, {"SO2": 0.1, "NOX": 0.05}),
    ]
    rng = np.random.default_rng(11)
    for _ in range(20):
        shares = rng.dirichlet(np.ones(2))
        demand = float(rng.uniform(0, 50))
        mix = make_record(shares, ("COL", "NG"))
        direct = emissions_from_mix(mix, table, demand)
        routed = aggregate_plant_emissions(allocate_generation(demand, mix, plants), plants)
        np.testing.assert_allclose(routed.quantities, direct.quantities, rtol=1e-9)


def test_negative_quantities_rejected():
    with pytest.raises(ValueError):
        EmissionVector([-1.0], ("SO2",))
