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
    InvalidParams,
    MissingValuation,
    UnknownReceptor,
)
from .ingest import FuelMixRecord, as_float, as_int, as_str, read_table, write_table

LOG_LINEAR = "log_linear"
LINEAR = "linear"
SIGNAL_COLUMNS = [("timestamp", as_int), ("internal_usd_per_mwh", as_float),
                  ("external_usd_per_mwh", as_float)]

# `_row_fsums` certifies long-double sums only for the x87 80-bit format
# (63 fraction bits) and IEEE binary128 (112); elsewhere every row uses fsum.
_LONG_SUMS = np.finfo(np.longdouble).nmant in (63, 112)
# Below this many units of a row's finest float64 spacing, every partial sum of
# the row is exact in long double: 2**(nmant + 1) with a factor of 2 to spare for
# sum|x| taken in float64.
_LONG_EXACT = 2.0 ** np.finfo(np.longdouble).nmant
_FSUM_SAFE = 2.0 ** 1023      # below this sum|x|, fsum cannot overflow on the way


def _row_fsums(block: np.ndarray) -> np.ndarray:
    """`math.fsum` of each row of a 2-d float64 block, without a Python float per cell.

    Each row is summed in long double, in any order, to S and rounded to
    float64 r. When sum|x| < `_LONG_EXACT` q, with q the float64 spacing at
    the row's smallest non-zero |x|, every term is a multiple of q, and so
    is every partial sum, each below 2**(nmant + 1) q in magnitude: all of
    them are exact in long double, S is the exact sum, and r is S rounded
    half to even, as fsum rounds it.

    Rows that fail that test, zero sums, whose sign fsum decides, rows whose
    sum|x| is 2**1023 or more (non-finite or +-DBL_MAX sums, and every row
    on which fsum could overflow on the way), and every row where long
    double is neither format above go to `math.fsum`. So the result, or
    the OverflowError, is always fsum's.
    """
    out = np.empty(len(block))
    redo = np.arange(len(block))
    if _LONG_SUMS and len(block):
        with np.errstate(over="ignore", invalid="ignore"):
            r = block.sum(axis=1, dtype=np.longdouble).astype(np.float64)
            terms = np.abs(block)
            magnitude = terms.sum(axis=1)
            finest = np.spacing(np.where(terms > 0, terms, np.inf).min(axis=1, initial=np.inf))
            ok = (magnitude < finest * _LONG_EXACT) & (r != 0) & (magnitude < _FSUM_SAFE)
        out[ok] = r[ok]
        redo = np.flatnonzero(~ok)
    out[redo] = [math.fsum(row) for row in block[redo].tolist()]
    return out


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


@dataclass(eq=False)
class HealthSeries:
    """Hourly monetized health cost of 1 MWh, as columns.

    `timestamps` (N,) are strictly increasing hour indices; `costs` (N, 2)
    holds each hour's finite, nonnegative (internal, external) $/MWh. The
    first hour breaking these rules raises a ValueError carrying its index
    as `row`.
    """

    timestamps: np.ndarray
    costs: np.ndarray

    def __post_init__(self):
        self.timestamps = np.asarray(self.timestamps, dtype=np.int64)
        self.costs = np.asarray(self.costs, dtype=np.float64)
        stamps, costs = self.timestamps, self.costs
        if stamps.ndim != 1 or costs.shape != (len(stamps), 2):
            raise DimensionMismatch(f"need timestamps (N,) and costs (N, 2), got "
                                    f"{stamps.shape} and {costs.shape}")
        bad_cost = ~((costs >= 0) & (costs < math.inf)).all(axis=1)
        bad = bad_cost.copy()
        bad[1:] |= stamps[1:] <= stamps[:-1]
        if bad.any():
            i = int(np.argmax(bad))
            exc = ValueError(
                f"health costs at hour {stamps[i]} are not finite and nonnegative: "
                f"{costs[i].tolist()}" if bad_cost[i] else
                f"timestamp {stamps[i]} does not follow {stamps[i - 1]}")
            exc.row = i
            raise exc

    def __len__(self) -> int:
        return len(self.timestamps)


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
        profile_ids = {p.receptor_id for p in self.profiles}
        for rid in self.sr_matrix.receptor_ids:
            if rid not in profile_ids:
                raise UnknownReceptor(f"matrix receptor {rid!r} has no profile")
        k = len(self.factors.pollutant_names)
        valued = {v.endpoint_id for v in self.valuations}
        for i, cr in enumerate(self.responses):
            if cr.alpha.shape != (k,):
                raise DimensionMismatch(f"endpoint {cr.endpoint_id}: alpha must have length {k}")
            if any(other.endpoint_id == cr.endpoint_id for other in self.responses[:i]):
                raise InvalidParams(f"endpoint {cr.endpoint_id!r} has more than one response")
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
    hour; sums over fuels, pollutants and endpoints (`config.responses`)
    run in index order, so every row depends on that row alone.
    """
    shares = np.asarray(shares, dtype=np.float64)
    if shares.ndim != 2 or shares.shape[1] != len(fuel_names):
        raise DimensionMismatch(
            f"shares have shape {shares.shape}, expected (N, {len(fuel_names)})")
    factors = np.vstack([config.factors.row(fuel) for fuel in fuel_names])  # (F, K)
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
    for cr in config.responses:
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
    receptors' dollars, as in `split_internal_external`: `_row_fsums` keeps
    an hour's long-double sum when every partial sum is exact, and takes
    math.fsum for the other hours.
    """
    dollars, internal = _receptor_dollars(shares, fuel_names, config)
    return np.column_stack([_row_fsums(dollars[:, internal]), _row_fsums(dollars[:, ~internal])])


def receptor_costs(mix: FuelMixRecord, config: PipelineConfig) -> dict[str, float]:
    """Monetized cost per receptor of consuming 1 MWh at this mix."""
    dollars, _ = _receptor_dollars(mix.shares[None, :], mix.fuel_names, config)
    return dict(zip(config.sr_matrix.receptor_ids, dollars[0].tolist()))


def impact_per_mwh(mix: FuelMixRecord, config: PipelineConfig) -> HealthSignal:
    """Full chain for one hour: mix -> emissions -> dispersion -> cases -> dollars."""
    internal, external = impacts(mix.shares[None, :], mix.fuel_names, config)[0].tolist()
    return HealthSignal(internal, external, timestamp=mix.timestamp)


# --- config file loaders ----------------------------------------------------

_INTERNAL = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _internal(text: str) -> bool:
    """A receptors.csv `internal` cell; ValueError unless a `_INTERNAL` word in any case."""
    if text.lower() not in _INTERNAL:
        raise ValueError(f"internal {text!r} is not 1, 0, true, false, yes or no")
    return _INTERNAL[text.lower()]


def load_receptor_profiles(path: str | Path, endpoints: list[str]) -> list[ReceptorProfile]:
    """Read `receptor_id,population,internal,<rate per endpoint...>` rows."""
    t = read_table(path, [("receptor_id", as_str), ("population", as_float), ("internal", as_str),
                          *((e, as_float) for e in endpoints)], key=("receptor_id",))
    return t.records(lambda receptor, population, internal, *rates: ReceptorProfile(
        receptor, population, dict(zip(endpoints, rates)), _internal(internal)))


def load_concentration_responses(path: str | Path,
                                 pollutants: list[str]) -> list[ConcentrationResponse]:
    """Read `endpoint_id,form,<alpha per pollutant...>` rows, one per endpoint."""
    t = read_table(path, [("endpoint_id", as_str), ("form", as_str),
                          *((p, as_float) for p in pollutants)], key=("endpoint_id",))
    return t.records(lambda endpoint, form, *alpha: ConcentrationResponse(
        endpoint, np.array(alpha, dtype=np.float64), form))


def load_valuations(path: str | Path) -> list[HealthValuation]:
    """Read `endpoint_id,dollars_per_case` rows, one per endpoint."""
    t = read_table(path, [("endpoint_id", as_str), ("dollars_per_case", as_float)],
                   key=("endpoint_id",))
    return t.records(HealthValuation)


def write_signals_csv(path: str | Path, signals: HealthSeries) -> None:
    """Write `timestamp,internal_usd_per_mwh,external_usd_per_mwh` rows."""
    write_table(path, [name for name, _ in SIGNAL_COLUMNS], [signals.timestamps, *signals.costs.T])


def load_signals_csv(path: str | Path) -> HealthSeries:
    """Read a file `write_signals_csv` wrote; each hour may appear once, in increasing order."""
    t = read_table(path, SIGNAL_COLUMNS, key=("timestamp",))
    try:
        return HealthSeries(t.columns[0], np.stack(t.columns[1:], axis=1))
    except ValueError as exc:
        raise t.error(exc.row, str(exc)) from exc
