import numpy as np
import pytest

from gridhealth.ingest import OBSERVED, FuelMixRecord, FuelMixSeries
from gridhealth.synth import default_pipeline_config, oracle_labels, synthetic_mix_series


def make_series(shares, fuel_names, flags=None, start=0):
    shares = np.asarray(shares, dtype=np.float64)
    if flags is None:
        flags = np.full(shares.shape, OBSERVED, dtype=np.int8)
    timestamps = np.arange(start, start + shares.shape[0])
    return FuelMixSeries(timestamps, shares, np.asarray(flags, dtype=np.int8),
                         tuple(fuel_names))


def make_record(shares, fuel_names, timestamp=0):
    shares = np.asarray(shares, dtype=np.float64)
    return FuelMixRecord(timestamp, shares, tuple(fuel_names))


@pytest.fixture(scope="session")
def default_config():
    return default_pipeline_config()


@pytest.fixture(scope="session")
def synth_bundle(default_config):
    """720-hour synthetic bundle shared by the slower tests."""
    series = synthetic_mix_series(720, seed=0)
    labels = oracle_labels(series, default_config)
    return series, labels
