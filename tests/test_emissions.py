"""Mix-to-mass conversion."""

import numpy as np
import pytest

from gridhealth.emissions import EmissionFactorTable, EmissionVector, emissions_from_mix
from gridhealth.errors import DimensionMismatch

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


def test_negative_quantities_rejected():
    with pytest.raises(ValueError):
        EmissionVector([-1.0], ("SO2",))
