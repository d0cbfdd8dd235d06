"""Source-to-receptor pollutant transport.

Transport is linear for the primary pollutants modeled here: a matrix of
nonnegative gains maps kg emitted at the source to concentration changes
(ug/m3) at each receptor. A ground-level Gaussian-plume kernel provides a
reproducible way to synthesize such matrices, and `DispersionLayer` is the
learnable counterpart whose gains are fit by gradient descent through the
shared autodiff engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import autodiff
from .autodiff import Adam, Tensor
from .emissions import EmissionVector
from .errors import DimensionMismatch, EmptyTrainingSet, InvalidParams, MalformedRow
from .ingest import as_float, as_str, read_table

# 1 kg released over one hour, expressed as an annual-mean ug/s source term:
# 1e9 ug / 3600 s spread across the 8760 hours the receptor is exposed per
# year. Keeps plume gains in a range where downstream $/MWh land near
# real-world magnitudes.
KG_PER_HOUR_TO_UG_RATE = 1e9 / 3600.0 / 8760.0

SIGMA_Y_EXPONENT = 0.9
SIGMA_Z_EXPONENT = 0.85

# sr_matrix.csv: one row per (pollutant, receptor) pair.
SR_MATRIX_COLUMNS = [("pollutant", as_str), ("receptor_id", as_str), ("gain", as_float)]


@dataclass
class SourceReceptorMatrix:
    """Concentration change (ug/m3) per kg emitted, per pollutant/receptor."""

    gains: np.ndarray  # (K, M)
    receptor_ids: tuple[str, ...]
    pollutant_names: tuple[str, ...]

    def __post_init__(self):
        self.gains = np.asarray(self.gains, dtype=np.float64)
        self.receptor_ids = tuple(self.receptor_ids)
        self.pollutant_names = tuple(self.pollutant_names)
        if self.gains.shape != (len(self.pollutant_names), len(self.receptor_ids)):
            raise DimensionMismatch("gain matrix shape does not match id lists")
        if np.any(self.gains < 0):
            raise ValueError("source-receptor gains must be nonnegative")

    @classmethod
    def from_csv(cls, path: str | Path) -> "SourceReceptorMatrix":
        """Read `pollutant,receptor_id,gain` rows, one per (pollutant, receptor) pair.

        Pollutants and receptors are ordered by first appearance; every
        pair must appear exactly once.
        """
        t = read_table(path, SR_MATRIX_COLUMNS, key=("pollutant", "receptor_id"))
        pollutants, k = _first_seen(t["pollutant"])
        receptors, i = _first_seen(t["receptor_id"])
        gains = np.zeros((len(pollutants), len(receptors)))
        gains[k, i] = t["gain"]
        if len(t.lines) < gains.size:
            seen = np.zeros(gains.shape, dtype=bool)
            seen[k, i] = True
            k, i = np.argwhere(~seen)[0]
            raise MalformedRow(f"{path}: no gain for pollutant {pollutants[k]!r} "
                               f"at receptor {receptors[i]!r}")
        try:
            return cls(gains, receptors, pollutants)
        except ValueError as exc:
            raise MalformedRow(f"{path}: {exc}") from exc


def _first_seen(column: np.ndarray) -> tuple[tuple[str, ...], np.ndarray]:
    """The distinct values of `column` in first-seen order, and each row's index into them."""
    names, first, inverse = np.unique(column, return_index=True, return_inverse=True)
    order = np.argsort(first)
    return tuple(names[order].tolist()), np.argsort(order)[inverse]


@dataclass
class ReceptorConcentrations:
    """Concentration changes, receptors by pollutants (M, K)."""

    delta: np.ndarray
    receptor_ids: tuple[str, ...]
    pollutant_names: tuple[str, ...]

    def __post_init__(self):
        self.delta = np.asarray(self.delta, dtype=np.float64)
        self.receptor_ids = tuple(self.receptor_ids)
        self.pollutant_names = tuple(self.pollutant_names)
        if self.delta.shape != (len(self.receptor_ids), len(self.pollutant_names)):
            raise DimensionMismatch("delta shape does not match id lists")


@dataclass
class PlumeParams:
    """Steady-state ground-level Gaussian plume configuration.

    `receptor_offsets` gives (downwind_x, crosswind_y) meters per receptor;
    downwind distances must be positive so the sigma power laws are defined.
    """

    wind_speed: float
    effective_height: float
    sigma_y_coeff: float
    sigma_z_coeff: float
    receptor_offsets: list[tuple[float, float]] = field(default_factory=list)

    def validate(self) -> None:
        if self.wind_speed <= 0:
            raise InvalidParams("wind_speed must be positive")
        if self.sigma_y_coeff <= 0 or self.sigma_z_coeff <= 0:
            raise InvalidParams("sigma coefficients must be positive")
        if self.effective_height < 0:
            raise InvalidParams("effective_height must be nonnegative")
        for x, _ in self.receptor_offsets:
            if x <= 0:
                raise InvalidParams("every receptor must lie downwind (x > 0)")


def plume_gain(params: PlumeParams, downwind_x: float, crosswind_y: float) -> float:
    """Ground-level concentration gain (ug/m3 per kg) at one receptor."""
    sigma_y = params.sigma_y_coeff * downwind_x ** SIGMA_Y_EXPONENT
    sigma_z = params.sigma_z_coeff * downwind_x ** SIGMA_Z_EXPONENT
    lateral = math.exp(-(crosswind_y ** 2) / (2.0 * sigma_y ** 2))
    vertical = math.exp(-(params.effective_height ** 2) / (2.0 * sigma_z ** 2))
    return (
        KG_PER_HOUR_TO_UG_RATE
        / (math.pi * params.wind_speed * sigma_y * sigma_z)
        * lateral
        * vertical
    )


def build_plume_matrix(
    params: PlumeParams,
    receptor_count: int,
    pollutant_count: int,
    receptor_ids: tuple[str, ...] | None = None,
    pollutant_names: tuple[str, ...] | None = None,
) -> SourceReceptorMatrix:
    """Synthesize a source-receptor matrix from the plume kernel.

    The kernel ignores pollutant identity, so all K rows are identical.
    """
    params.validate()
    if len(params.receptor_offsets) != receptor_count:
        raise InvalidParams(
            f"need {receptor_count} receptor offsets, have {len(params.receptor_offsets)}"
        )
    row = np.array([plume_gain(params, x, y) for x, y in params.receptor_offsets])
    gains = np.tile(row, (pollutant_count, 1))
    if receptor_ids is None:
        receptor_ids = tuple(f"R{i}" for i in range(receptor_count))
    if pollutant_names is None:
        pollutant_names = tuple(f"P{k}" for k in range(pollutant_count))
    return SourceReceptorMatrix(gains, receptor_ids, pollutant_names)


def apply_source_receptor(
    emissions: EmissionVector, matrix: SourceReceptorMatrix
) -> ReceptorConcentrations:
    """delta[i, k] = gains[k, i] * quantities[k]."""
    if emissions.pollutant_names != matrix.pollutant_names:
        raise DimensionMismatch(
            f"pollutants {emissions.pollutant_names} vs matrix {matrix.pollutant_names}"
        )
    delta = (matrix.gains * emissions.quantities[:, None]).T
    return ReceptorConcentrations(delta, matrix.receptor_ids, matrix.pollutant_names)


def _inverse_softplus(y: np.ndarray) -> np.ndarray:
    # softplus(x) = log(1 + e^x); stable inverse for y > 0
    return y + np.log(-np.expm1(-y))


class DispersionLayer:
    """Learnable nonnegative source-receptor gains.

    Gains are stored as raw parameters passed through softplus, so gradient
    steps can never drive them negative.
    """

    def __init__(self, pollutant_count: int, receptor_count: int, init_gain: float = 1.0):
        if init_gain <= 0:
            raise InvalidParams("init_gain must be positive")
        raw = np.full((pollutant_count, receptor_count), _inverse_softplus(np.float64(init_gain)))
        self.theta = Tensor(raw, requires_grad=True)
        self.trained = False

    @property
    def weights(self) -> np.ndarray:
        """Current nonnegative gain matrix (K, M)."""
        return np.logaddexp(0.0, self.theta.data)

    def _predict(self, emissions: Tensor) -> Tensor:
        # emissions (N, K) -> concentrations (N, M, K)
        gains = self.theta.softplus()  # (K, M)
        n, k = emissions.shape
        scaled = gains.reshape(1, k, -1) * emissions.reshape(n, k, 1)  # (N, K, M)
        return scaled.transpose(0, 2, 1)

    def predict(self, emissions: EmissionVector) -> np.ndarray:
        """Concentration deltas (M, K) for one emission vector."""
        with autodiff.no_grad():
            e = Tensor(emissions.quantities.reshape(1, -1))
            return self._predict(e).data[0]

    def mse(self, emission_array: np.ndarray, delta_array: np.ndarray) -> float:
        with autodiff.no_grad():
            pred = self._predict(Tensor(emission_array))
            return float(((pred.data - delta_array) ** 2).mean())


def fit_dispersion_layer(
    pairs: list[tuple[EmissionVector, ReceptorConcentrations]],
    epochs: int,
    step_size: float,
    layer: DispersionLayer | None = None,
) -> DispersionLayer:
    """Fit gains to (emissions, observed concentrations) pairs.

    One full-batch gradient step per epoch, Adam-conditioned so recovery is
    insensitive to the spread of gain magnitudes. The returned layer carries
    the lowest-error parameters seen, so its error never exceeds the
    starting error.
    """
    if not pairs:
        raise EmptyTrainingSet("need at least one training pair")
    k = len(pairs[0][0].pollutant_names)
    m = len(pairs[0][1].receptor_ids)
    for e, d in pairs:
        if len(e.pollutant_names) != k or d.delta.shape != (m, k):
            raise DimensionMismatch("inconsistent pair dimensions")

    emission_array = np.vstack([e.quantities for e, _ in pairs])  # (N, K)
    delta_array = np.stack([d.delta for _, d in pairs])  # (N, M, K)
    target = Tensor(delta_array)

    if layer is None:
        # start near the data's own gain scale so softplus coordinates are
        # within a few units of any solution, whatever the units involved
        mean_e = float(np.abs(emission_array).mean())
        mean_d = float(np.abs(delta_array).mean())
        init_gain = mean_d / mean_e if mean_e > 0 and mean_d > 0 else 1.0
        layer = DispersionLayer(k, m, init_gain=init_gain)
    optimizer = Adam({"theta": layer.theta}, lr=step_size)

    best_loss = layer.mse(emission_array, delta_array)
    best_theta = layer.theta.data.copy()
    inputs = Tensor(emission_array)
    for _ in range(epochs):
        optimizer.zero_grad()
        diff = layer._predict(inputs) - target
        loss = (diff * diff).mean()
        loss.backward()
        optimizer.step()
        current = layer.mse(emission_array, delta_array)
        if current < best_loss:
            best_loss = current
            best_theta = layer.theta.data.copy()
    layer.theta.data = best_theta
    layer.trained = epochs > 0
    return layer
