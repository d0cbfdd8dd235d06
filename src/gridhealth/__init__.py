"""gridhealth: hourly electricity fuel mix to monetized public-health impacts.

The pipeline: ingest raw fuel-mix CSVs, convert mixes to pollutant
emissions, disperse them to receptor regions, monetize the health outcomes
into an hourly (internal, external) $/MWh signal, train a forecaster with
a health-weighted objective, and schedule EV charging against the signal.
"""

__version__ = "0.1.0"

from . import synth
from .autodiff import Tensor, grad_check, no_grad
from .dispersion import (
    DispersionLayer,
    PlumeParams,
    ReceptorConcentrations,
    SourceReceptorMatrix,
    apply_source_receptor,
    build_plume_matrix,
    fit_dispersion_layer,
)
from .emissions import (
    EmissionFactorTable,
    EmissionVector,
    aggregate_plant_emissions,
    emissions_from_mix,
)
from .forecaster import (
    Evaluation,
    ForecastModel,
    HealthConverterNet,
    TradeoffPoint,
    TrainConfig,
    TrainingData,
    beta_sweep,
    composite_loss,
    evaluate,
    forecast_heldout,
    forward,
    nmae,
    predict_heldout,
    train,
)
from .health import (
    ConcentrationResponse,
    HealthSeries,
    HealthSignal,
    HealthValuation,
    PipelineConfig,
    ReceptorProfile,
    delta_health,
    impact_per_mwh,
    impacts,
    monetize,
    split_internal_external,
)
from .ingest import (
    FuelCategoryMap,
    FuelMixRecord,
    FuelMixSeries,
    PlantRecord,
    allocate_generation,
    impute_missing,
    load_fuel_mix,
    normalize_mix,
)
from .scheduler import (
    ChargingSession,
    Schedule,
    SessionTable,
    StrategyResult,
    baseline_schedule,
    brute_force_schedule,
    evaluate_fleet,
    optimal_schedule,
    sample_sessions,
)

__all__ = [
    "Tensor", "grad_check", "no_grad",
    "DispersionLayer", "PlumeParams", "ReceptorConcentrations", "SourceReceptorMatrix",
    "apply_source_receptor", "build_plume_matrix", "fit_dispersion_layer",
    "EmissionFactorTable", "EmissionVector", "aggregate_plant_emissions", "emissions_from_mix",
    "Evaluation", "ForecastModel", "HealthConverterNet", "TradeoffPoint", "TrainConfig",
    "TrainingData", "beta_sweep", "composite_loss", "evaluate", "forecast_heldout",
    "forward", "nmae",
    "predict_heldout", "train",
    "ConcentrationResponse", "HealthSeries", "HealthSignal", "HealthValuation", "PipelineConfig",
    "ReceptorProfile", "delta_health", "impact_per_mwh", "impacts", "monetize",
    "split_internal_external",
    "FuelCategoryMap", "FuelMixRecord", "FuelMixSeries", "PlantRecord",
    "allocate_generation", "impute_missing", "load_fuel_mix", "normalize_mix",
    "ChargingSession", "Schedule", "SessionTable", "StrategyResult", "baseline_schedule",
    "brute_force_schedule", "evaluate_fleet", "optimal_schedule", "sample_sessions",
]
