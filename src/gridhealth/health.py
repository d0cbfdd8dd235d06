"""Concentration changes to monetized health impacts.

The concentration-response step supports the log-linear form
``Y0 * POP * (1 - exp(-alpha . dC))`` and a plain linear variant
``Y0 * POP * (alpha . dC)``; which endpoints use which form is part of the
configuration, not the code. Cases are valued per endpoint in dollars and
aggregated into a per-MWh (internal, external) signal according to each
receptor's membership in the source territory.

The chain from fuel mix to dollars is linear up to the response curve, so
`impacts` evaluates it for a whole (N, F) share matrix at once over fixed
matrices (factors, source-receptor gains, response coefficients, base
rates, valuations, territory mask), the reduced-complexity form of
source-receptor health models. `receptor_costs` and `impact_per_mwh` are
its one-row cases. `delta_health`, `monetize` and
`split_internal_external` keep the per-receptor, per-endpoint scalar
form; they are the reference the array form is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dispersion import SourceReceptorMatrix
from .emissions import EmissionFactorTable
from .errors import (
    DimensionMismatch,
    MalformedRow,
    MissingValuation,
    UnknownReceptor,
)
from .ingest import FuelMixRecord, open_csv, write_hourly_csv

LOG_LINEAR = "log_linear"
LINEAR = "linear"
SIGNAL_HEADER = ["timestamp", "internal_usd_per_mwh", "external_usd_per_mwh"]


@dataclass
class ReceptorProfile:
    """Population, baseline incidence rates, and territory membership."""

    receptor_id: str
    population: float
    baseline_rates: dict[str, float]  # endpoint_id -> incidence per person-year
    internal: bool

    def __post_init__(self):
        if self.population < 0:
            raise ValueError(f"receptor {self.receptor_id}: negative population")
        for k, v in self.baseline_rates.items():
            if v < 0:
                raise ValueError(f"receptor {self.receptor_id}: negative rate for {k}")


@dataclass
class ConcentrationResponse:
    """Response coefficients for one health endpoint."""

    endpoint_id: str
    alpha: np.ndarray  # (K,), per ug/m3
    form: str = LOG_LINEAR

    def __post_init__(self):
        self.alpha = np.asarray(self.alpha, dtype=np.float64)
        if self.form not in (LOG_LINEAR, LINEAR):
            raise ValueError(f"unknown response form {self.form!r}")
        if np.any(self.alpha < 0):
            raise ValueError(f"endpoint {self.endpoint_id}: negative alpha")


@dataclass
class HealthValuation:
    endpoint_id: str
    dollars_per_case: float

    def __post_init__(self):
        if self.dollars_per_case < 0:
            raise ValueError(f"endpoint {self.endpoint_id}: negative valuation")


@dataclass
class HealthSignal:
    """Monetized health cost of 1 MWh at one hour, split by territory."""

    internal_cost: float
    external_cost: float
    timestamp: int = 0

    def __post_init__(self):
        if not (0 <= self.internal_cost < math.inf and 0 <= self.external_cost < math.inf):
            raise ValueError("health signal costs must be finite and nonnegative")

    @property
    def total(self) -> float:
        return self.internal_cost + self.external_cost


def delta_health(
    profile: ReceptorProfile, cr: ConcentrationResponse, delta_conc: np.ndarray
) -> float:
    """Change in cases at one receptor for one endpoint."""
    delta_conc = np.asarray(delta_conc, dtype=np.float64)
    if delta_conc.shape != cr.alpha.shape:
        raise DimensionMismatch(
            f"delta_conc has {delta_conc.shape}, alpha has {cr.alpha.shape}"
        )
    if np.any(delta_conc < 0):
        raise ValueError("delta_health requires nonnegative concentration changes")
    if cr.endpoint_id not in profile.baseline_rates:
        raise DimensionMismatch(
            f"receptor {profile.receptor_id} has no baseline rate for {cr.endpoint_id}"
        )
    base = profile.baseline_rates[cr.endpoint_id] * profile.population
    exposure = float(cr.alpha @ delta_conc)
    if cr.form == LINEAR:
        return base * exposure
    return base * -math.expm1(-exposure)


def monetize(cases_by_endpoint: dict[str, float], valuations: list[HealthValuation]) -> float:
    """Dollar value of a bundle of endpoint case counts."""
    values = {v.endpoint_id: v.dollars_per_case for v in valuations}
    total = 0.0
    for endpoint, cases in cases_by_endpoint.items():
        if endpoint not in values:
            raise MissingValuation(f"no valuation for endpoint {endpoint!r}")
        total += cases * values[endpoint]
    return total


def split_internal_external(
    costs: dict[str, float], profiles: list[ReceptorProfile]
) -> tuple[float, float]:
    """Sum receptor costs into (internal, external); preserves the total.

    Each receptor lands in exactly one bucket and each bucket is an
    exactly-rounded sum (math.fsum), so nothing is lost to accumulation
    order.
    """
    flags = {p.receptor_id: p.internal for p in profiles}
    internal_costs, external_costs = [], []
    for receptor_id, cost in costs.items():
        if receptor_id not in flags:
            raise UnknownReceptor(f"no profile for receptor {receptor_id!r}")
        (internal_costs if flags[receptor_id] else external_costs).append(cost)
    return math.fsum(internal_costs), math.fsum(external_costs)


@dataclass
class PipelineConfig:
    """Frozen bundle of everything needed to turn a mix into a HealthSignal."""

    factors: EmissionFactorTable
    sr_matrix: SourceReceptorMatrix
    profiles: list[ReceptorProfile]
    responses: list[ConcentrationResponse]
    valuations: list[HealthValuation]

    def __post_init__(self):
        if self.factors.pollutant_names != self.sr_matrix.pollutant_names:
            raise DimensionMismatch(
                "factor table and source-receptor matrix disagree on pollutants"
            )
        k = len(self.factors.pollutant_names)
        for cr in self.responses:
            if cr.alpha.shape != (k,):
                raise DimensionMismatch(f"endpoint {cr.endpoint_id}: alpha must have length {k}")
        profile_ids = {p.receptor_id for p in self.profiles}
        for rid in self.sr_matrix.receptor_ids:
            if rid not in profile_ids:
                raise UnknownReceptor(f"matrix receptor {rid!r} has no profile")
        valued = {v.endpoint_id for v in self.valuations}
        for cr in self.responses:
            if cr.endpoint_id not in valued:
                raise MissingValuation(f"endpoint {cr.endpoint_id!r} has no valuation")
            for p in self.profiles:
                if cr.endpoint_id not in p.baseline_rates:
                    raise DimensionMismatch(
                        f"receptor {p.receptor_id} lacks a baseline rate for {cr.endpoint_id}"
                    )

    def profile_for(self, receptor_id: str) -> ReceptorProfile:
        for p in self.profiles:
            if p.receptor_id == receptor_id:
                return p
        raise UnknownReceptor(receptor_id)


def _receptor_dollars(shares: np.ndarray, fuel_names: tuple[str, ...],
                      config: PipelineConfig) -> tuple[np.ndarray, np.ndarray]:
    """Dollars per receptor (N, M) of 1 MWh at each mix, and the internal mask (M,).

    Elementwise, each term is what `emissions_from_mix`,
    `apply_source_receptor`, `delta_health` and `monetize` compute for one
    hour; sums over fuels, pollutants and endpoints run in index order, so
    every row depends on that row alone. Endpoints follow
    `config.responses`; a repeated endpoint id keeps its first position and
    its last response, as `monetize`'s dict does.
    """
    shares = np.asarray(shares, dtype=np.float64)
    if shares.ndim != 2 or shares.shape[1] != len(fuel_names):
        raise DimensionMismatch(
            f"shares have shape {shares.shape}, expected (N, {len(fuel_names)})")
    factors = np.vstack([config.factors.row(fuel) for fuel in fuel_names])  # (F, K)
    responses = list({cr.endpoint_id: cr for cr in config.responses}.values())
    values = {v.endpoint_id: v.dollars_per_case for v in config.valuations}
    profiles = [config.profile_for(rid) for rid in config.sr_matrix.receptor_ids]
    internal = np.array([p.internal for p in profiles], dtype=bool)  # (M,)

    emitted = np.zeros((shares.shape[0], factors.shape[1]))  # kg per pollutant, (N, K)
    for j in range(len(fuel_names)):
        emitted += shares[:, j, None] * factors[j]
    if np.any(emitted < 0):
        raise ValueError("emission quantities must be nonnegative")
    conc = config.sr_matrix.gains.T[None, :, :] * emitted[:, None, :]  # (N, M, K)

    dollars = np.zeros(conc.shape[:2])
    for cr in responses:
        base = np.array([p.baseline_rates[cr.endpoint_id] * p.population for p in profiles])
        exposure = np.zeros(conc.shape[:2])
        for k, alpha in enumerate(cr.alpha):
            exposure += alpha * conc[:, :, k]
        response = exposure if cr.form == LINEAR else -np.expm1(-exposure)
        dollars += base * response * values[cr.endpoint_id]
    return dollars, internal


def impacts(shares: np.ndarray, fuel_names: tuple[str, ...],
            config: PipelineConfig) -> np.ndarray:
    """(internal, external) $/MWh for each row of an (N, F) share matrix.

    The whole chain as array operations over fixed matrices: factor rows
    reordered to `fuel_names` (F, K), gains (K, M), alpha (E, K), base
    rate x population (M, E), valuations (E,) and the internal-receptor
    mask (M,). Each bucket is the exactly-rounded sum (math.fsum) of its
    receptors' dollars, as in `split_internal_external`.
    """
    dollars, internal = _receptor_dollars(shares, fuel_names, config)
    inside, outside = dollars[:, internal].tolist(), dollars[:, ~internal].tolist()
    pairs = [(math.fsum(a), math.fsum(b)) for a, b in zip(inside, outside)]
    return np.array(pairs, dtype=np.float64).reshape(len(pairs), 2)


def receptor_costs(mix: FuelMixRecord, config: PipelineConfig) -> dict[str, float]:
    """Monetized cost per receptor of consuming 1 MWh at this mix."""
    dollars, _ = _receptor_dollars(mix.shares[None, :], mix.fuel_names, config)
    return dict(zip(config.sr_matrix.receptor_ids, dollars[0].tolist()))


def impact_per_mwh(mix: FuelMixRecord, config: PipelineConfig) -> HealthSignal:
    """Full chain for one hour: mix -> emissions -> dispersion -> cases -> dollars."""
    internal, external = impacts(mix.shares[None, :], mix.fuel_names, config)[0].tolist()
    return HealthSignal(internal, external, timestamp=mix.timestamp)


# --- config file loaders ----------------------------------------------------

def load_receptor_profiles(path: str | Path, endpoints: list[str]) -> list[ReceptorProfile]:
    """Read `receptor_id,population,internal,<rate per endpoint...>` rows."""
    profiles = []
    with open_csv(path) as reader:
        header = next(reader, None)
        expected = ["receptor_id", "population", "internal", *endpoints]
        if header != expected:
            raise MalformedRow(f"{path}: expected header {','.join(expected)}")
        for row in reader:
            if len(row) != len(expected):
                raise MalformedRow(f"{path}: wrong arity in {row!r}")
            try:
                population = float(row[1])
                rates = {e: float(v) for e, v in zip(endpoints, row[3:])}
            except ValueError as exc:
                raise MalformedRow(f"{path}: bad number in {row!r}") from exc
            internal = row[2].strip().lower() in ("1", "true", "yes")
            profiles.append(ReceptorProfile(row[0], population, rates, internal))
    return profiles


def load_concentration_responses(path: str | Path) -> list[ConcentrationResponse]:
    """Read `endpoint_id,form,<alpha per pollutant...>` rows."""
    responses = []
    with open_csv(path) as reader:
        header = next(reader, None)
        if header is None or header[:2] != ["endpoint_id", "form"]:
            raise MalformedRow(f"{path}: expected header 'endpoint_id,form,<alphas...>'")
        for row in reader:
            if len(row) != len(header):
                raise MalformedRow(f"{path}: wrong arity in {row!r}")
            try:
                alpha = np.array([float(v) for v in row[2:]])
            except ValueError as exc:
                raise MalformedRow(f"{path}: bad alpha in {row!r}") from exc
            responses.append(ConcentrationResponse(row[0], alpha, row[1].strip()))
    return responses


def load_valuations(path: str | Path) -> list[HealthValuation]:
    """Read `endpoint_id,dollars_per_case` rows."""
    valuations = []
    with open_csv(path) as reader:
        header = next(reader, None)
        if header != ["endpoint_id", "dollars_per_case"]:
            raise MalformedRow(f"{path}: expected header 'endpoint_id,dollars_per_case'")
        for row in reader:
            if len(row) != 2:
                raise MalformedRow(f"{path}: bad row {row!r}")
            try:
                valuations.append(HealthValuation(row[0], float(row[1])))
            except ValueError as exc:
                raise MalformedRow(f"{path}: bad number in {row!r}") from exc
    return valuations


def write_signals_csv(path: str | Path, signals: list[HealthSignal]) -> None:
    """Write `timestamp,internal_usd_per_mwh,external_usd_per_mwh` rows."""
    costs = np.array([(s.internal_cost, s.external_cost) for s in signals],
                     dtype=np.float64).reshape(-1, 2)
    write_hourly_csv(path, SIGNAL_HEADER, [s.timestamp for s in signals], costs)


def load_signals_csv(path: str | Path) -> list[HealthSignal]:
    signals = []
    with open_csv(path) as reader:
        header = next(reader, None)
        if header != SIGNAL_HEADER:
            raise MalformedRow(f"{path}: bad health-signal header")
        for row in reader:
            where = f"{path}:{reader.line_num}"
            if len(row) != 3:
                raise MalformedRow(f"{where}: bad row {row!r}")
            try:
                signals.append(HealthSignal(float(row[1]), float(row[2]), int(row[0])))
            except ValueError as exc:
                raise MalformedRow(f"{where}: bad value in {row!r}: {exc}") from exc
    return signals
