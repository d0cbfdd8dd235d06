"""Synthetic region bundles: fuel mix, dispersion matrix, oracle labels.

The generated fuel mix follows a diurnal/seasonal pattern with seeded
noise: solar tracks daylight, wind peaks at night, gas and coal carry the
evening peak and the morning ramp. Labels come from one call of
`health.impacts`, the emissions -> dispersion -> health chain in array
form, over the whole series with the bundle's own configuration. Each
label depends only on its own hour, so the labels can be recomputed from
the written files bit-for-bit.
"""

from __future__ import annotations

from importlib import resources
from pathlib import Path

import numpy as np

from .dispersion import PlumeParams, SourceReceptorMatrix, build_plume_matrix
from .emissions import EmissionFactorTable
from .errors import InvalidParams
from .health import (
    HealthSeries,
    PipelineConfig,
    impacts,
    load_concentration_responses,
    load_receptor_profiles,
    load_valuations,
)
from .ingest import (CANONICAL_FUELS, OBSERVED, FuelMixSeries, json_number, json_object,
                     read_json_object)

CONFIG_FILES = (
    "emission_factors.csv",
    "receptors.csv",
    "concentration_response.csv",
    "valuations.csv",
    "plume.json",
)


def default_config_path(name: str) -> Path:
    """Path of a packaged default configuration file."""
    return Path(resources.files("gridhealth").joinpath("data", name))


_PLUME_NUMBERS = ("wind_speed", "effective_height", "sigma_y_coeff", "sigma_z_coeff")


def _plume_matrix(path: Path, pollutant_names: tuple[str, ...]) -> SourceReceptorMatrix:
    """The plume-kernel matrix of the JSON spec at `path`, one row per pollutant."""
    raw = read_json_object(path, (*_PLUME_NUMBERS, "receptors"))
    if not isinstance(raw["receptors"], list):
        raise InvalidParams(f"{path}: bad value for key 'receptors': not a list")
    offsets, ids = [], []
    for i, r in enumerate(raw["receptors"]):
        where = f"{path}: receptors[{i}]"
        json_object(where, r, ("id", "downwind_x", "crosswind_y"))
        offsets.append((json_number(where, r, "downwind_x"), json_number(where, r, "crosswind_y")))
        ids.append(r["id"])
    params = PlumeParams(**{key: json_number(path, raw, key) for key in _PLUME_NUMBERS},
                         receptor_offsets=offsets)
    try:
        return build_plume_matrix(params, pollutant_names, tuple(ids))
    except InvalidParams as exc:
        raise InvalidParams(f"{path}: {exc}") from exc


def load_config_dir(directory: str | Path, from_plume: bool = False) -> PipelineConfig:
    """Assemble a PipelineConfig from a bundle/config directory.

    Expects the four config CSVs plus either sr_matrix.csv or plume.json.
    The matrix file wins when both exist, unless `from_plume` is set, as
    `synth` sets it to build the matrix its bundle ships.
    """
    directory = Path(directory)
    factors = EmissionFactorTable.from_csv(directory / "emission_factors.csv")
    responses = load_concentration_responses(directory / "concentration_response.csv",
                                             factors.pollutant_names)
    profiles = load_receptor_profiles(directory / "receptors.csv", [r.endpoint_id for r in responses])
    valuations = load_valuations(directory / "valuations.csv")
    matrix_path = directory / "sr_matrix.csv"
    if matrix_path.exists() and not from_plume:
        matrix = SourceReceptorMatrix.from_csv(matrix_path)
    else:
        matrix = _plume_matrix(directory / "plume.json", factors.pollutant_names)
    return PipelineConfig(factors, matrix, profiles, responses, valuations)


def default_pipeline_config() -> PipelineConfig:
    return load_config_dir(default_config_path("."))


def _bump(hod: np.ndarray, center: float, width: float) -> np.ndarray:
    return np.exp(-((hod - center) ** 2) / (2.0 * width ** 2))


def synthetic_mix_series(hours: int, seed: int) -> FuelMixSeries:
    """Diurnal + seasonal synthetic fuel mix on the 8-fuel canon."""
    if hours < 1:
        raise InvalidParams("hours must be positive")
    too_long = InvalidParams(f"'hours' {hours}: the series does not fit in memory")
    if hours > np.iinfo(np.intp).max // 8:   # past this numpy raises ValueError, not MemoryError
        raise too_long
    try:
        return _mix_series(hours, seed)
    except MemoryError as exc:
        raise too_long from exc


def _mix_series(hours: int, seed: int) -> FuelMixSeries:
    rng = np.random.default_rng(seed)
    t = np.arange(hours)
    hod = (t % 24).astype(np.float64)
    doy = ((t // 24) % 365).astype(np.float64)

    def noise(scale):
        return 1.0 + scale * rng.standard_normal(hours)

    def ar_noise(scale, phi=0.7):
        # hour-to-hour correlated fluctuations (wind fronts, unit trips)
        shocks = rng.standard_normal(hours) * scale * np.sqrt(1.0 - phi * phi)
        out = np.empty(hours)
        prev = 0.0
        for i in range(hours):
            prev = phi * prev + shocks[i]
            out[i] = prev
        return 1.0 + out

    daylight = np.clip(np.sin(np.pi * (hod - 6.0) / 12.0), 0.0, None) ** 1.3
    solar_season = 1.0 + 0.30 * np.cos(2.0 * np.pi * (doy - 172.0) / 365.0)
    evening = _bump(hod, 19.0, 2.2)
    morning = _bump(hod, 7.5, 1.5)
    # two nightly wind maxima with a lull in between; their relative depth
    # varies night to night, so the cheap hours move around within a night
    day_idx = (t // 24).astype(np.int64)
    n_days = int(day_idx.max()) + 1
    surge_a = 0.15 + 1.80 * rng.random(n_days)
    surge_b = 0.15 + 1.80 * rng.random(n_days)
    wind_shape = (1.0 + surge_a[day_idx] * _bump(hod, 23.0, 1.0)
                  + surge_b[day_idx] * _bump(hod, 3.5, 1.3)
                  - 0.55 * _bump(hod, 1.0, 0.9) - 0.25 * daylight)

    cols = {
        "COL": 0.12 * (1.0 + 0.55 * evening + 0.45 * morning) * noise(0.10),
        "NG": 0.18 * (1.0 + 1.05 * evening + 0.65 * morning - 0.30 * daylight) * noise(0.14),
        "OIL": 0.004 * (1.0 + 1.5 * evening) * noise(0.30),
        "NUC": 0.175 * noise(0.01),
        "WAT": 0.085 * (1.0 + 0.15 * np.sin(2.0 * np.pi * (hod - 14.0) / 24.0)) * noise(0.05),
        "WND": 0.19 * wind_shape
        * (1.0 + 0.20 * np.sin(2.0 * np.pi * doy / 365.0 + 0.9))
        * ar_noise(0.40),
        "SUN": 0.30 * daylight * solar_season * noise(0.08),
        "OTH": 0.02 * noise(0.05),
    }
    shares = np.column_stack([np.clip(cols[f], 0.0, None) for f in CANONICAL_FUELS])
    shares = shares / shares.sum(axis=1, keepdims=True)
    flags = np.full(shares.shape, OBSERVED, dtype=np.int8)
    return FuelMixSeries(t, shares, flags, CANONICAL_FUELS)


def oracle_labels(series: FuelMixSeries, config: PipelineConfig) -> HealthSeries:
    """Per-hour ground-truth health signal for a normalized series."""
    return HealthSeries(series.timestamps.copy(),
                        impacts(series.shares, series.fuel_names, config))
