"""Linear source-receptor transport, the plume oracle, and the learnable layer."""

import math

import numpy as np
import pytest

from gridhealth.dispersion import (
    KG_PER_HOUR_TO_UG_RATE,
    DispersionLayer,
    PlumeParams,
    ReceptorConcentrations,
    SourceReceptorMatrix,
    apply_source_receptor,
    build_plume_matrix,
    fit_dispersion_layer,
    plume_gain,
)
from gridhealth.emissions import EmissionVector
from gridhealth.errors import DimensionMismatch, EmptyTrainingSet, InvalidParams

POLL = ("SO2", "PM2.5")
RID = ("A", "B")


def ev(q):
    return EmissionVector(q, POLL)


def test_zero_emissions_zero_concentrations():
    m = SourceReceptorMatrix([[0.4, 0.2], [0.1, 0.9]], RID, POLL)
    out = apply_source_receptor(ev([0.0, 0.0]), m)
    np.testing.assert_array_equal(out.delta, np.zeros((2, 2)))


def test_identity_like_gain():
    m = SourceReceptorMatrix([[1.0, 0.0], [0.0, 0.0]], RID, POLL)
    out = apply_source_receptor(ev([2.0, 0.0]), m)
    assert out.delta[0, 0] == 2.0
    assert out.delta[1, 0] == 0.0


def test_hand_matrix_vector_product():
    # gains row (0.1, 0.3) x quantity 5 -> deltas (0.5, 1.5)
    m = SourceReceptorMatrix([[0.1, 0.3], [0.0, 0.0]], RID, POLL)
    out = apply_source_receptor(ev([5.0, 0.0]), m)
    np.testing.assert_allclose(out.delta[:, 0], [0.5, 1.5], rtol=1e-12)


def test_superposition_exact():
    rng = np.random.default_rng(4)
    m = SourceReceptorMatrix(rng.uniform(0, 1, (2, 2)), RID, POLL)
    e1, e2 = rng.uniform(0, 3, 2), rng.uniform(0, 3, 2)
    combined = apply_source_receptor(ev(e1 + e2), m)
    parts = apply_source_receptor(ev(e1), m).delta + apply_source_receptor(ev(e2), m).delta
    np.testing.assert_allclose(combined.delta, parts, rtol=1e-12)


def test_pollutant_name_mismatch():
    m = SourceReceptorMatrix([[0.1], [0.1]], ("A",), POLL)
    with pytest.raises(DimensionMismatch):
        apply_source_receptor(EmissionVector([1.0], ("NOX",)), m)


def _params(**kw):
    base = dict(wind_speed=4.0, effective_height=0.0, sigma_y_coeff=0.3,
                sigma_z_coeff=0.2, receptor_offsets=[(10000.0, 0.0)])
    base.update(kw)
    return PlumeParams(**base)


class TestPlume:
    def test_centerline_ground_release(self):
        p = _params()
        x = 10000.0
        sig_y = 0.3 * x ** 0.9
        sig_z = 0.2 * x ** 0.85
        expected = KG_PER_HOUR_TO_UG_RATE / (math.pi * 4.0 * sig_y * sig_z)
        assert plume_gain(p, x, 0.0) == pytest.approx(expected, rel=1e-12)

    def test_far_crosswind_vanishes(self):
        p = _params()
        assert plume_gain(p, 10000.0, 1e9) == 0.0

    def test_double_wind_halves_gain(self):
        p1 = _params()
        p2 = _params(wind_speed=8.0)
        g1 = plume_gain(p1, 10000.0, 500.0)
        g2 = plume_gain(p2, 10000.0, 500.0)
        assert g2 == pytest.approx(g1 / 2.0, rel=1e-12)

    def test_build_matrix_rows_identical_across_pollutants(self):
        p = _params(receptor_offsets=[(5000.0, 0.0), (20000.0, 1000.0)])
        m = build_plume_matrix(p, 2, 3)
        assert m.gains.shape == (3, 2)
        np.testing.assert_array_equal(m.gains[0], m.gains[1])
        np.testing.assert_array_equal(m.gains[0], m.gains[2])

    @pytest.mark.parametrize("kw", [dict(wind_speed=0.0), dict(sigma_y_coeff=-1.0),
                                    dict(receptor_offsets=[(-5.0, 0.0)])])
    def test_invalid_params(self, kw):
        with pytest.raises(InvalidParams):
            build_plume_matrix(_params(**kw), len(_params(**kw).receptor_offsets), 1)


def _pairs_from_matrix(matrix, n, seed=0, scale=5.0):
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(n):
        e = EmissionVector(rng.uniform(0.0, scale, len(matrix.pollutant_names)),
                           matrix.pollutant_names)
        pairs.append((e, apply_source_receptor(e, matrix)))
    return pairs


class TestFit:
    def test_recovers_known_matrix(self):
        rng = np.random.default_rng(7)
        g = rng.uniform(0.05, 1.5, (2, 3))
        matrix = SourceReceptorMatrix(g, ("A", "B", "C"), POLL)
        layer = fit_dispersion_layer(_pairs_from_matrix(matrix, 16), epochs=800, step_size=0.1)
        assert np.abs(layer.weights - g).max() < 1e-3
        assert layer.trained

    def test_recovers_plume_generated_matrix(self):
        # noiseless pairs from the plume oracle; K*M <= 64
        params = _params(receptor_offsets=[(8000.0 + 4000.0 * i, 500.0 * i)
                                           for i in range(8)])
        matrix = build_plume_matrix(params, 8, 2, pollutant_names=POLL)
        # emissions scaled so targets are O(1) for the fit
        pairs = _pairs_from_matrix(matrix, 24, seed=3, scale=1.0 / matrix.gains.max())
        layer = fit_dispersion_layer(pairs, epochs=2000, step_size=0.1)
        assert np.abs(layer.weights - matrix.gains).max() < 1e-3
        rel = np.abs(layer.weights - matrix.gains) / matrix.gains
        assert rel.max() < 1e-2

    def test_zero_epochs_unchanged(self):
        layer = DispersionLayer(2, 3)
        before = layer.weights.copy()
        matrix = SourceReceptorMatrix(np.full((2, 3), 0.5), ("A", "B", "C"), POLL)
        out = fit_dispersion_layer(_pairs_from_matrix(matrix, 4), epochs=0, step_size=0.1,
                                   layer=layer)
        np.testing.assert_array_equal(out.weights, before)
        assert not out.trained

    def test_zero_emission_pair_constant_loss(self):
        layer = DispersionLayer(2, 2)
        before = layer.weights.copy()
        pair = (ev([0.0, 0.0]), ReceptorConcentrations(np.zeros((2, 2)), RID, POLL))
        out = fit_dispersion_layer([pair], epochs=25, step_size=0.1, layer=layer)
        np.testing.assert_array_equal(out.weights, before)

    def test_error_never_increases(self):
        matrix = SourceReceptorMatrix([[0.3, 0.9], [0.2, 0.1]], RID, POLL)
        pairs = _pairs_from_matrix(matrix, 8)
        em = np.vstack([e.quantities for e, _ in pairs])
        de = np.stack([d.delta for _, d in pairs])
        layer = DispersionLayer(2, 2)
        initial = layer.mse(em, de)
        out = fit_dispersion_layer(pairs, epochs=3, step_size=0.5, layer=layer)
        assert out.mse(em, de) <= initial

    def test_weights_nonnegative_under_fit(self):
        matrix = SourceReceptorMatrix(np.full((2, 2), 1e-4), RID, POLL)
        layer = fit_dispersion_layer(_pairs_from_matrix(matrix, 8), epochs=300, step_size=0.2)
        assert np.all(layer.weights >= 0.0)

    def test_empty_training_set(self):
        with pytest.raises(EmptyTrainingSet):
            fit_dispersion_layer([], epochs=1, step_size=0.1)

    def test_inconsistent_pair_dimensions(self):
        good = (ev([1.0, 1.0]), ReceptorConcentrations(np.zeros((2, 2)), RID, POLL))
        bad = (ev([1.0, 1.0]), ReceptorConcentrations(np.zeros((3, 2)), ("A", "B", "C"), POLL))
        with pytest.raises(DimensionMismatch):
            fit_dispersion_layer([good, bad], epochs=1, step_size=0.1)

    def test_predict_shape(self):
        layer = DispersionLayer(2, 3, init_gain=0.7)
        out = layer.predict(ev([1.0, 2.0]))
        assert out.shape == (3, 2)
        np.testing.assert_allclose(out[:, 0], 0.7, rtol=1e-9)
