"""Fuel-mix shares to emitted pollutant masses at the source region."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DimensionMismatch, MalformedRow, UnknownPlant
from .ingest import (ZERO_EMISSION_FUELS, FuelMixRecord, PlantRecord, as_float, as_str,
                     read_table)

POLLUTANTS = ("PM2.5", "SO2", "NOX", "VOC")


@dataclass
class EmissionFactorTable:
    """Per-fuel, per-pollutant emission rates in kg per MWh generated."""

    factors: np.ndarray  # (F, K)
    fuel_names: tuple[str, ...]
    pollutant_names: tuple[str, ...]

    def __post_init__(self):
        self.factors = np.asarray(self.factors, dtype=np.float64)
        self.fuel_names = tuple(self.fuel_names)
        self.pollutant_names = tuple(self.pollutant_names)
        if self.factors.shape != (len(self.fuel_names), len(self.pollutant_names)):
            raise DimensionMismatch("factor matrix shape does not match names")
        if np.any(self.factors < 0):
            raise ValueError("emission factors must be nonnegative")
        for i, fuel in enumerate(self.fuel_names):
            if fuel in ZERO_EMISSION_FUELS and np.any(self.factors[i] != 0):
                raise ValueError(f"zero-emission fuel {fuel!r} has a nonzero factor")

    def row(self, fuel: str) -> np.ndarray:
        try:
            return self.factors[self.fuel_names.index(fuel)]
        except ValueError:
            raise DimensionMismatch(f"fuel {fuel!r} not in factor table") from None

    @classmethod
    def from_csv(cls, path: str | Path) -> "EmissionFactorTable":
        """Read `fuel,<pollutants...>` rows, one per fuel."""
        t = read_table(path, [("fuel", as_str)], tail=as_float, key=("fuel",))
        try:
            return cls(np.array(t.columns[1:]).T, t["fuel"].tolist(), t.header[1:])
        except ValueError as exc:
            raise MalformedRow(f"{path}: {exc}") from exc


@dataclass
class EmissionVector:
    """Masses (kg) of each pollutant emitted at the source."""

    quantities: np.ndarray  # (K,)
    pollutant_names: tuple[str, ...]

    def __post_init__(self):
        self.quantities = np.asarray(self.quantities, dtype=np.float64)
        self.pollutant_names = tuple(self.pollutant_names)
        if self.quantities.shape != (len(self.pollutant_names),):
            raise DimensionMismatch("quantities do not match pollutant names")
        if np.any(self.quantities < 0):
            raise ValueError("emission quantities must be nonnegative")


def emissions_from_mix(
    mix: FuelMixRecord, table: EmissionFactorTable, demand_mwh: float
) -> EmissionVector:
    """kg emitted per pollutant: demand x sum_f share_f x factor[f, k]."""
    if demand_mwh < 0:
        raise ValueError("demand must be nonnegative")
    rows = np.vstack([table.row(fuel) for fuel in mix.fuel_names])
    quantities = demand_mwh * (mix.shares @ rows)
    return EmissionVector(quantities, table.pollutant_names)


def aggregate_plant_emissions(
    allocation: dict[str, float], plants: list[PlantRecord]
) -> EmissionVector:
    """Sum plant-level emissions over an allocation of MWh to plants."""
    by_id = {p.plant_id: p for p in plants}
    pollutant_names: tuple[str, ...] | None = None
    for p in plants:
        names = tuple(p.emission_rates.keys())
        if pollutant_names is None:
            pollutant_names = names
        elif set(names) != set(pollutant_names):
            raise DimensionMismatch(f"plant {p.plant_id} has a different pollutant set")
    if pollutant_names is None:
        pollutant_names = POLLUTANTS

    quantities = np.zeros(len(pollutant_names))
    for plant_id, mwh in allocation.items():
        if plant_id not in by_id:
            raise UnknownPlant(f"allocation references unknown plant {plant_id!r}")
        rates = by_id[plant_id].emission_rates
        quantities += mwh * np.array([rates[k] for k in pollutant_names])
    return EmissionVector(quantities, pollutant_names)
