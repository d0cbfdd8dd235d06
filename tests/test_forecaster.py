"""Forecaster: loss contract, simplex outputs, deterministic training, NMAE, sweep."""

import base64
import json
import multiprocessing
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_train import train_full_batch

from gridhealth import forecaster, workers
from gridhealth.autodiff import Tensor, grad_check
from gridhealth.errors import (
    BetaOutOfRange,
    CorruptCheckpoint,
    DivergedLoss,
    GridHealthError,
    InsufficientData,
    ShapeMismatch,
    ShortHistory,
    ZeroNormalizer,
)
from gridhealth.forecaster import (
    ATTENTION,
    LINEAR_BASELINE,
    ForecastModel,
    HealthConverterNet,
    TrainConfig,
    TrainingData,
    _MICRO_ROWS,
    _MaskRows,
    _dropout_mask,
    _micro_batches,
    _skip,
    beta_sweep,
    build_models,
    composite_loss,
    evaluate,
    forecast_at,
    load_checkpoint,
    nmae,
    origins,
    save_checkpoint,
    split_windows,
    train,
)
from gridhealth.synth import oracle_labels, synthetic_mix_series

rng = np.random.default_rng(7)


def simplex(shape):
    x = np.abs(rng.normal(size=shape)) + 1e-3
    return x / x.sum(axis=-1, keepdims=True)


def forecast_mixes(model, history, converter=None):
    """The mixes `model` forecasts from the trailing window of `history`."""
    converter = converter or HealthConverterNet(model.n_fuels, hidden=8, seed=0)
    return forecast_at(model, converter, history, [len(history) - model.window])[0]


class TestCompositeLoss:
    def test_perfect_prediction_zero(self):
        pred = simplex((4, 3))
        impacts = np.abs(rng.normal(size=(4, 2)))
        loss = composite_loss(pred, pred.copy(), impacts, impacts.copy(), 0.5)
        assert float(loss.data) == 0.0

    def test_plug_in_weighting(self):
        # beta 0.5, fuel error 0, internal squared error 4, external 0 -> 0.25 * 4 = 1
        pred = simplex((4, 3))
        truth_imp = np.zeros((4, 2))
        pred_imp = np.zeros((4, 2))
        pred_imp[:, 0] = 1.0  # per-window sum of squares = 4
        loss = composite_loss(pred, pred.copy(), pred_imp, truth_imp, 0.5)
        assert float(loss.data) == pytest.approx(1.0, rel=1e-12)

    def test_high_beta_is_fuel_term_alone(self):
        pred, truth = simplex((6, 3)), simplex((6, 3))
        fuel_term = float(((truth - pred) ** 2).sum())
        scale = np.sqrt(fuel_term / 12.0)
        pred_imp = np.abs(rng.normal(size=(6, 2))) * scale
        truth_imp = pred_imp + rng.normal(size=(6, 2)) * scale
        loss = composite_loss(pred, truth, pred_imp, truth_imp, 0.998)
        assert abs(float(loss.data) / fuel_term - 1.0) < 0.002

    def test_decomposition_identity_at_beta_max(self):
        pred, truth = simplex((5, 3)), simplex((5, 3))
        pred_imp = np.abs(rng.normal(size=(5, 2)))
        truth_imp = np.abs(rng.normal(size=(5, 2)))
        loss = float(composite_loss(pred, truth, pred_imp, truth_imp, 0.998).data)
        fuel = float(((truth - pred) ** 2).sum())
        impact = float(((truth_imp - pred_imp) ** 2).sum())
        assert loss == pytest.approx(0.998 * fuel + 0.001 * impact, rel=1e-12)

    def test_batched_mean(self):
        pred, truth = simplex((3, 4, 2)), simplex((3, 4, 2))
        pi = np.abs(rng.normal(size=(3, 4, 2)))
        ti = np.abs(rng.normal(size=(3, 4, 2)))
        batched = float(composite_loss(pred, truth, pi, ti, 0.7).data)
        singles = [float(composite_loss(pred[i], truth[i], pi[i], ti[i], 0.7).data)
                   for i in range(3)]
        assert batched == pytest.approx(np.mean(singles), rel=1e-12)

    @pytest.mark.parametrize("beta", [0.0, -0.2, 0.999, 1.0])
    def test_beta_out_of_range(self, beta):
        x = simplex((2, 2))
        with pytest.raises(BetaOutOfRange):
            composite_loss(x, x, np.zeros((2, 2)), np.zeros((2, 2)), beta)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            composite_loss(simplex((2, 3)), simplex((3, 3)),
                           np.zeros((2, 2)), np.zeros((2, 2)), 0.5)

    def test_gradient_against_central_differences(self):
        truth, truth_imp = simplex((3, 4)), np.abs(rng.normal(size=(3, 2)))
        pred0, pred_imp0 = simplex((3, 4)), np.abs(rng.normal(size=(3, 2)))
        err_pred = grad_check(
            lambda t: composite_loss(t, truth, Tensor(pred_imp0), truth_imp, 0.6),
            Tensor(pred0))
        err_imp = grad_check(
            lambda t: composite_loss(Tensor(pred0), truth, t, truth_imp, 0.6),
            Tensor(pred_imp0))
        assert err_pred < 1e-4 and err_imp < 1e-4


class TestForward:
    @pytest.mark.parametrize("arch", [ATTENTION, LINEAR_BASELINE, f"fitted_{LINEAR_BASELINE}"])
    def test_rows_on_simplex(self, arch):
        model = ForecastModel(arch.removeprefix("fitted_"), n_fuels=5, window=6, embed_dim=16,
                              heads=2, ff_dim=16, seed=3)
        if arch.startswith("fitted_"):
            # fitted on other mixes than it forecasts from, so its clip at 0 can act
            mixes = simplex((80, 5))
            train(model, HealthConverterNet(5, hidden=8, seed=0),
                  TrainingData(mixes, np.zeros((80, 2)), np.arange(80)),
                  TrainConfig(window=6, epochs=0))
        out = forecast_mixes(model, simplex((9, 5)))
        assert out.shape == (6, 5)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-6)
        assert np.all(out >= 0)

    def test_short_history(self):
        model = ForecastModel(LINEAR_BASELINE, n_fuels=3, window=8, seed=0)
        with pytest.raises(ShortHistory):
            forecast_mixes(model, simplex((5, 3)))

    def test_start_outside_mixes(self):
        model = ForecastModel(LINEAR_BASELINE, n_fuels=3, window=4, seed=0)
        conv = HealthConverterNet(3, hidden=8, seed=0)
        h = simplex((10, 3))
        mixes, impacts, rows = forecast_at(model, conv, h, [0, 6])
        assert mixes.shape == (8, 3) and impacts.shape == (8, 2)
        np.testing.assert_array_equal(rows, [4, 5, 6, 7, 10, 11, 12, 13])
        for starts in ([0, 7], [-1], [10]):
            with pytest.raises(ShortHistory, match=f"from row {starts[-1]} "):
                forecast_at(model, conv, h, starts)

    def test_attention_needs_a_decoder_block(self):
        # with none, the forecast would be the same for every history
        with pytest.raises(ValueError, match=r"^decoder_layers must be at least 1, got 0$"):
            ForecastModel(ATTENTION, n_fuels=4, window=6, embed_dim=8, heads=2, decoder_layers=0)
        ForecastModel(ATTENTION, n_fuels=4, window=6, embed_dim=8, heads=2, encoder_layers=0)
        ForecastModel(LINEAR_BASELINE, n_fuels=4, window=6, decoder_layers=0)

    def test_eval_forward_deterministic(self):
        model = ForecastModel(ATTENTION, n_fuels=4, window=6, embed_dim=16, heads=2,
                              ff_dim=16, dropout=0.5, seed=1)
        h = simplex((6, 4))
        np.testing.assert_array_equal(forecast_mixes(model, h), forecast_mixes(model, h))


def linear_impact_data(n_hours, n_fuels=4, seed=0):
    """Synthetic dataset whose impacts are a fixed linear map of the mix."""
    g = np.random.default_rng(seed)
    mixes = g.dirichlet(np.ones(n_fuels), size=n_hours)
    w = np.array([[3.0, 0.5], [1.0, 2.0], [0.2, 0.1], [0.05, 1.5]])[:n_fuels]
    impacts = mixes @ w
    return TrainingData(mixes, impacts, np.arange(n_hours))


class TestTrain:
    def small_cfg(self, **kw):
        base = dict(beta=0.5, window=4, epochs=3, step_size=0.01, batch_size=16,
                    seed=5, test_fraction=0.2, val_fraction=0.1)
        base.update(kw)
        return TrainConfig(**base)

    def small_models(self, cfg, n_fuels=4, arch=LINEAR_BASELINE):
        model = ForecastModel(arch, n_fuels, cfg.window, embed_dim=16, heads=2,
                              ff_dim=16, seed=cfg.seed)
        converter = HealthConverterNet(n_fuels, hidden=16, seed=cfg.seed + 1)
        return model, converter

    @pytest.mark.parametrize("arch", [ATTENTION, LINEAR_BASELINE])
    def test_zero_epochs_bit_identical(self, arch):
        # no SGD step: the converter and an attention model stay as built, and a
        # linear baseline holds its closed-form fit
        data = linear_impact_data(80)
        cfg = self.small_cfg(epochs=0)
        model, conv = self.small_models(cfg, arch=arch)
        expected, _ = self.small_models(cfg, arch=arch)
        if arch == LINEAR_BASELINE:
            train_windows = forecaster._gather(data, split_windows(len(data), cfg).train,
                                               cfg.window)
            expected._fit_linear(*train_windows[:2])
        cbefore = {k: v.data.copy() for k, v in conv.params.items()}
        train(model, conv, data, cfg)
        for k in expected.params:
            np.testing.assert_array_equal(model.params[k].data, expected.params[k].data)
        for k in cbefore:
            np.testing.assert_array_equal(conv.params[k].data, cbefore[k])

    def test_same_seed_identical_history_and_params(self):
        data = linear_impact_data(80)
        cfg = self.small_cfg()
        m1, c1 = self.small_models(cfg)
        m2, c2 = self.small_models(cfg)
        _, _, h1 = train(m1, c1, data, cfg)
        _, _, h2 = train(m2, c2, data, cfg)
        assert h1 == h2
        for k in m1.params:
            np.testing.assert_array_equal(m1.params[k].data, m2.params[k].data)

    def test_loss_decreases(self):
        data = linear_impact_data(120)
        cfg = self.small_cfg(epochs=10, step_size=0.05)
        model, conv = self.small_models(cfg)
        _, _, history = train(model, conv, data, cfg)
        assert history[-1]["train_loss"] <= history[0]["train_loss"]

    def test_constant_series_learned(self):
        const = np.array([0.5, 0.3, 0.15, 0.05])
        mixes = np.tile(const, (100, 1))
        data = TrainingData(mixes, np.tile([1.0, 0.5], (100, 1)), np.arange(100))
        cfg = self.small_cfg(epochs=120, step_size=0.2, test_fraction=0.0,
                             val_fraction=0.0, batch_size=64)
        model, conv = self.small_models(cfg)
        train(model, conv, data, cfg)
        pred = forecast_mixes(model, mixes[:4], conv)
        assert np.abs(pred - const).max() < 0.01

    def test_health_gradient_reaches_converter(self):
        # with a linear impact map, training must improve health NMAE
        data = linear_impact_data(200)
        cfg = self.small_cfg(epochs=25, step_size=0.05, batch_size=32)
        model, conv = self.small_models(cfg)
        before = evaluate(model, conv, data, cfg).health_nmae
        train(model, conv, data, cfg)
        after = evaluate(model, conv, data, cfg).health_nmae
        assert after < before

    def test_diverged_loss_aborts(self):
        data = linear_impact_data(80)
        data.impacts[40, 0] = np.nan  # poisoned label -> non-finite loss
        cfg = self.small_cfg(epochs=50)
        model, conv = self.small_models(cfg)
        with pytest.raises(DivergedLoss):
            train(model, conv, data, cfg)

    def test_diverged_validation_loss_aborts(self):
        data = linear_impact_data(80)
        data.impacts[60, 0] = np.nan  # hour 60 is a target of validation windows only
        cfg = self.small_cfg(epochs=1)
        model, conv = self.small_models(cfg)
        with pytest.raises(DivergedLoss, match="validation"):
            train(model, conv, data, cfg)

    def test_insufficient_data(self):
        data = linear_impact_data(7)
        cfg = self.small_cfg()
        model, conv = self.small_models(cfg)
        with pytest.raises(InsufficientData):
            train(model, conv, data, cfg)

    @pytest.mark.parametrize("window", [24, 72])
    def test_linear_fit_is_ridge_least_squares(self, synth_bundle, window):
        # the ridge solution is the least-squares solution of [Xc; sqrt(λn) I] W = [Yc; 0]
        data = TrainingData.from_series(*synth_bundle)
        cfg = TrainConfig(window=window, epochs=0, architecture=LINEAR_BASELINE)
        model, conv = build_models(data.mixes.shape[1], cfg)
        train(model, conv, data, cfg)
        rows = np.array(split_windows(len(data), cfg).train)[:, None] + np.arange(window)
        x = data.mixes[rows].reshape(len(rows), -1)
        y = data.mixes[rows + window].reshape(len(rows), -1)
        xc, yc = x - x.mean(axis=0), y - y.mean(axis=0)
        penalty = np.sqrt(forecaster._RIDGE * len(x)) * np.eye(x.shape[1])
        w = np.linalg.lstsq(np.vstack([xc, penalty]), np.vstack([yc, np.zeros_like(penalty)]),
                            rcond=None)[0]
        b = y.mean(axis=0) - x.mean(axis=0) @ w
        for got, want in ((model.params["lin_w"].data, w), (model.params["lin_b"].data, b)):
            assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()
        # each forecast hour's shares sum to 1 before clipping, whatever the history
        f = data.mixes.shape[1]
        np.testing.assert_allclose(model.params["lin_w"].data.reshape(-1, window, f).sum(-1),
                                   0.0, atol=1e-12)
        np.testing.assert_allclose(model.params["lin_b"].data.reshape(window, f).sum(-1),
                                   1.0, rtol=1e-12)

    def test_attention_trains_end_to_end(self):
        data = linear_impact_data(90)
        cfg = self.small_cfg(epochs=2)
        model, conv = self.small_models(cfg, arch=ATTENTION)
        _, _, history = train(model, conv, data, cfg)
        assert len(history) == 2
        assert all(np.isfinite(h["train_loss"]) for h in history)


class TestNmae:
    def test_zero_for_equal(self):
        assert nmae([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_adopted_definition(self):
        assert nmae([1.0, 1.0], [1.0, 3.0]) == pytest.approx(0.5)

    @given(st.floats(0.01, 100.0))
    @settings(max_examples=40, deadline=None)
    def test_scale_invariance(self, c):
        pred = np.array([0.5, 1.0, 2.5])
        truth = np.array([0.4, 1.5, 2.0])
        assert nmae(c * pred, c * truth) == pytest.approx(nmae(pred, truth), rel=1e-9)

    def test_zero_normalizer(self):
        with pytest.raises(ZeroNormalizer):
            nmae([1.0], [0.0])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            nmae([1.0, 2.0], [1.0])


class TestSplitWindows:
    def test_time_ordered_no_overlap_into_test(self):
        cfg = TrainConfig(beta=0.5, window=24, epochs=1, seed=0)
        split = split_windows(1000, cfg)
        boundary = 1000 - 200
        assert max(split.train + split.val) + 48 <= boundary
        assert split.val == sorted(split.val)
        assert all(s + 24 >= boundary for s in origins(1000, 24, cfg.test_fraction))
        assert split.val[0] > split.train[-1]

    def test_test_windows_tile_with_stride(self):
        cfg = TrainConfig(beta=0.5, window=24, epochs=1, seed=0)
        targets = [s + 24 for s in origins(1000, 24, cfg.test_fraction)]
        assert np.all(np.diff(targets) == 24)

    def test_origins_by_hand(self):
        # the test span is hours 800..999; targets start at 800, 824, ..., 968
        assert origins(1000, 24, 0.2) == [776, 800, 824, 848, 872, 896, 920, 944]

    def test_no_origin_in_a_short_test_span(self):
        with pytest.raises(InsufficientData,
                           match=r"^test split of 23 hours holds no complete 24-hour forecast"):
            origins(119, 24, 0.2)
        assert origins(120, 24, 0.2) == [72]


class TestSweep:
    @pytest.mark.parametrize("architecture", [ATTENTION, LINEAR_BASELINE])
    def test_single_beta_matches_standalone(self, synth_bundle, architecture):
        # the worker gets the architecture through `cfg` alone
        series, labels = synth_bundle
        data = TrainingData.from_series(series, labels)
        cfg = TrainConfig(beta=0.5, window=24, epochs=1, step_size=0.004,
                          batch_size=128, seed=2, architecture=architecture)
        points = beta_sweep(data, [0.5], cfg)
        model, conv = build_models(data.mixes.shape[1], cfg)
        assert model.architecture == architecture
        train(model, conv, data, cfg)
        ev = evaluate(model, conv, data, cfg)
        assert points[0].fuel_nmae == pytest.approx(ev.fuel_nmae, rel=1e-12)
        assert points[0].health_nmae == pytest.approx(ev.health_nmae, rel=1e-12)
        if workers.blas_thread_calls() is not None:
            # both trained with one BLAS thread, here in one or more processes
            assert points[0].fuel_nmae == ev.fuel_nmae
            assert points[0].health_nmae == ev.health_nmae

    def test_linear_baseline_beats_seasonal_naive_whatever_beta_and_seed(self, synth_bundle):
        # the fit depends on the data and the window alone, and beats the 24 h seasonal
        # naive, whose forecast of each hour is the hour a day before it
        data = TrainingData.from_series(*synth_bundle)
        rows = (np.array(origins(len(data), 24, 0.2))[:, None] + np.arange(24, 48)).ravel()
        naive = nmae(data.mixes[rows - 24], data.mixes[rows])
        fuel = set()
        for seed in (0, 1):
            cfg = TrainConfig(window=24, epochs=12, step_size=0.004, batch_size=128, seed=seed,
                              architecture=LINEAR_BASELINE)
            fuel.update(p.fuel_nmae for p in beta_sweep(data, [0.5, 0.998], cfg))
        assert len(fuel) == 1 and fuel.pop() < naive

    def test_points_in_beta_order(self, synth_bundle):
        series, labels = synth_bundle
        data = TrainingData.from_series(series, labels)
        cfg = TrainConfig(beta=0.5, window=24, epochs=0, seed=2)
        points = beta_sweep(data, [0.9, 0.1], cfg)
        assert [p.beta for p in points] == [0.1, 0.9]

    def test_invalid_beta_rejected(self, synth_bundle):
        series, labels = synth_bundle
        data = TrainingData.from_series(series, labels)
        cfg = TrainConfig(beta=0.5, window=24, epochs=0, seed=2)
        with pytest.raises(BetaOutOfRange):
            beta_sweep(data, [0.999], cfg)

    def test_repeated_beta_rejected(self, synth_bundle):
        series, labels = synth_bundle
        data = TrainingData.from_series(series, labels)
        cfg = TrainConfig(beta=0.5, window=24, epochs=0, seed=2)
        with pytest.raises(GridHealthError, match=r"^beta 0\.5 is listed more than once$"):
            beta_sweep(data, [0.5, 0.9, 0.5], cfg)

    def test_short_test_span_fails_before_any_fork(self):
        data = linear_impact_data(100)
        cfg = TrainConfig(beta=0.5, window=24, epochs=1, seed=2)
        forked = workers.forked_count()
        with pytest.raises(InsufficientData, match=r"^test split of 20 hours holds no complete"):
            beta_sweep(data, [0.5, 0.9], cfg)
        assert workers.forked_count() == forked

    def test_worker_count_does_not_change_points(self, synth_bundle, monkeypatch, tmp_path):
        series, labels = synth_bundle
        data = TrainingData.from_series(series, labels)
        cfg = TrainConfig(beta=0.5, window=24, epochs=1, step_size=0.004,
                          batch_size=128, seed=3)
        real_train = forecaster.train

        def train_noting_pid(model, converter, data, cfg):
            (tmp_path / f"{cfg.beta}-{os.getpid()}").touch()
            return real_train(model, converter, data, cfg)

        monkeypatch.setattr(forecaster, "train", train_noting_pid)
        points = {}
        for cpus in (1, 2, 3):
            monkeypatch.setattr(workers, "usable_cpus", lambda: cpus)
            points[cpus] = beta_sweep(data, [0.998, 0.5, 0.9], cfg)
            trained = sorted(p.name.split("-") for p in tmp_path.iterdir())
            for p in tmp_path.iterdir():
                p.unlink()
            # every beta trained once, each in a process of its own, none in the caller
            assert [beta for beta, _ in trained] == ["0.5", "0.9", "0.998"]
            pids = {pid for _, pid in trained}
            assert len(pids) == 3 and str(os.getpid()) not in pids
        assert points[1] == points[2] == points[3]
        assert [p.beta for p in points[1]] == [0.5, 0.9, 0.998]
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("runs, cpus, sizes", [
        (3, 2, [3]), (4, 2, [2, 2]), (5, 2, [2, 3]), (3, 1, [1, 1, 1]), (2, 4, [2]),
    ])
    def test_wave_sizes(self, runs, cpus, sizes):
        assert forecaster._wave_sizes(runs, cpus) == sizes

    def test_dead_worker_named_by_beta(self, synth_bundle, monkeypatch):
        series, labels = synth_bundle
        data = TrainingData.from_series(series, labels)
        cfg = TrainConfig(beta=0.5, window=24, epochs=1, seed=2)
        real_train = forecaster.train

        def train_or_die(model, converter, data, cfg):
            if cfg.beta == 0.9:
                os._exit(3)
            return real_train(model, converter, data, cfg)

        monkeypatch.setattr(forecaster, "train", train_or_die)
        with pytest.raises(GridHealthError,
                           match=r"^a sweep worker process ended abruptly while training "
                                 r"beta=0\.9$"):
            beta_sweep(data, [0.5, 0.9], cfg)
        assert multiprocessing.active_children() == []

    def test_dead_worker_in_later_wave_named_by_beta(self, synth_bundle, monkeypatch):
        series, labels = synth_bundle
        data = TrainingData.from_series(series, labels)
        cfg = TrainConfig(beta=0.5, window=24, epochs=1, seed=2)
        real_train = forecaster.train

        def train_or_die(model, converter, data, cfg):
            if cfg.beta == 0.998:
                os._exit(3)
            return real_train(model, converter, data, cfg)

        monkeypatch.setattr(forecaster, "train", train_or_die)
        monkeypatch.setattr(workers, "usable_cpus", lambda: 1)     # waves of one
        with pytest.raises(GridHealthError,
                           match=r"^a sweep worker process ended abruptly while training "
                                 r"beta=0\.998$"):
            beta_sweep(data, [0.5, 0.9, 0.998], cfg)
        assert multiprocessing.active_children() == []


def _trained_both_ways(data, cfg):
    """Parameters and history of `train` and of the full-batch reference, same seed."""
    runs = []
    for run in (train, train_full_batch):
        model, conv = build_models(data.mixes.shape[1], cfg)
        _, _, history = run(model, conv, data, cfg)
        params = {**{f"m.{k}": v.data for k, v in model.params.items()},
                  **{f"c.{k}": v.data for k, v in conv.params.items()}}
        runs.append((params, history))
    return runs


class TestMicroBatches:
    @pytest.mark.parametrize("windows, window", [
        (1, 24), (105, 24), (128, 24), (1, 72), (105, 72), (128, 72), (1513, 24), (3, 500),
        (3, 1000),
    ])
    def test_split_rule(self, windows, window):
        parts = _micro_batches(windows, window)
        sizes = [hi - lo for lo, hi in parts]
        assert parts[0][0] == 0 and parts[-1][1] == windows
        assert all(a[1] == b[0] for a, b in zip(parts, parts[1:]))
        assert sum(sizes) == windows and max(sizes) - min(sizes) <= 1
        assert sizes == sorted(sizes, reverse=True)
        most = max(1, _MICRO_ROWS // window)     # one from a window of over _MICRO_ROWS / 2
        assert max(sizes) <= most and len(parts) == -(-windows // most)
        assert (len(parts) == 1) == (windows * window <= _MICRO_ROWS or windows == 1)

    def test_split_at_default_windows(self):
        assert [hi - lo for lo, hi in _micro_batches(128, 24)] == [32] * 4
        assert [hi - lo for lo, hi in _micro_batches(128, 72)] == [10] * 11 + [9] * 2

    def test_one_micro_batch_per_batch_is_bit_identical(self, synth_bundle):
        data = TrainingData.from_series(*synth_bundle)
        cfg = TrainConfig(window=24, epochs=2, batch_size=_MICRO_ROWS // 24, seed=4)
        (micro, micro_history), (full, full_history) = _trained_both_ways(data, cfg)
        for name in full:
            np.testing.assert_array_equal(micro[name], full[name], err_msg=name)
        assert [h["train_loss"] for h in micro_history] == [h["train_loss"] for h in full_history]
        # validation (52 windows) runs in two chunks
        for got, want in zip(micro_history, full_history):
            assert got["val_loss"] == pytest.approx(want["val_loss"], rel=1e-12)

    @pytest.mark.parametrize("window", [24, 72])
    def test_128_window_batch_matches_full_batch(self, synth_bundle, window):
        series, labels = synth_bundle
        data = TrainingData.from_series(series, labels)
        hours = 128 + 2 * window - 1        # exactly one batch of 128 training windows
        data = TrainingData(data.mixes[:hours], data.impacts[:hours], data.timestamps[:hours])
        cfg = TrainConfig(window=window, epochs=1, batch_size=128, seed=1, test_fraction=0.0,
                          val_fraction=0.0)
        assert len(_micro_batches(128, window)) > 1
        (micro, micro_history), (full, full_history) = _trained_both_ways(data, cfg)
        for name in full:
            error = np.abs(micro[name] - full[name]).max() / np.abs(full[name]).max()
            assert error <= 1e-12, name
        assert micro_history[0]["train_loss"] == pytest.approx(full_history[0]["train_loss"],
                                                               rel=1e-12)

    # the first four and the last (B = 1) run the whole batch, the fourth out of order;
    # the rest run parts of it, two starting on a one-window micro-batch
    @pytest.mark.parametrize("windows, parts", [
        (7, [(0, 3), (3, 5), (5, 7)]), (7, [(0, 2), (2, 4), (4, 6), (6, 7)]), (7, [(0, 7)]),
        (7, [(3, 5), (5, 7), (0, 3)]), (7, [(0, 3)]), (7, [(5, 7), (3, 5)]), (7, [(2, 4), (4, 5)]),
        (7, [(0, 1), (1, 2), (6, 7)]), (7, [(4, 5), (5, 7)]), (1, [(0, 1)]),
    ], ids=[f"parts{i}" for i in range(10)])
    def test_mask_rows_are_rows_of_full_batch_draws(self, monkeypatch, windows, parts):
        model = ForecastModel(ATTENTION, n_fuels=4, window=6, embed_dim=8, heads=2,
                              decoder_layers=2, ff_dim=8, dropout=0.3, seed=2)
        x = Tensor(simplex((windows, 6, 4)))
        drawn = []

        def recording(shape, p, training, rng, shared=False):
            drawn.append(_dropout_mask(shape, p, training, rng, shared))
            return drawn[-1]

        monkeypatch.setattr(forecaster, "_dropout_mask", recording)
        oracle_rng, batch_rng = np.random.default_rng(11), np.random.default_rng(11)
        for rng in (oracle_rng, batch_rng):
            rng.permutation(5)      # leaves a buffered 32-bit draw, as each epoch's does
        assert oracle_rng.bit_generator.state["has_uint32"] == 1
        full = model.forward_tensor(x, True, oracle_rng).data
        oracle, drawn[:] = list(drawn), []
        start, masks = batch_rng.bit_generator.state, np.random.default_rng(0)
        for a, b in parts:
            rows = _MaskRows(masks, start, windows, a)
            pred = model.forward_tensor(Tensor(x.data[a:b]), True, rows).data
            np.testing.assert_allclose(pred, full[a:b], rtol=1e-13, atol=0)
            assert len(drawn) == len(oracle)
            for got, want in zip(drawn, oracle):
                np.testing.assert_array_equal(got, want if len(want) == 1 else want[a:b])
            drawn[:] = []
        if windows > 1:
            # the batch-1 decoder query's self-attention and residual masks, shared by all
            assert sum(len(mask) == 1 for mask in oracle) == 2
        # the batch's generator is not drawn from; skipped past the counted draws, its
        # buffered 32-bit draw included, it ends where a full-batch forward leaves it
        assert batch_rng.bit_generator.state == start
        _skip(batch_rng, windows * rows.per_window + rows.shared)
        assert batch_rng.bit_generator.state == oracle_rng.bit_generator.state
        assert batch_rng.permutation(50).tolist() == oracle_rng.permutation(50).tolist()

    def test_micro_batch_divergence_stops_before_backward_and_step(self, synth_bundle,
                                                                   monkeypatch):
        data = TrainingData.from_series(*synth_bundle)
        cfg = TrainConfig(window=24, epochs=1, batch_size=128, seed=0)
        model, conv = build_models(data.mixes.shape[1], cfg)
        before = {k: v.data.copy() for k, v in {**model.params, **conv.params}.items()}
        calls = {"loss": 0, "backward": 0}
        # the counters live in this process: keep every micro-batch in it
        monkeypatch.setattr(workers, "usable_cpus", lambda: 1)
        real_loss, real_backward = forecaster._batch_loss, Tensor.backward

        def second_diverges(*args, **kwargs):
            calls["loss"] += 1
            loss = real_loss(*args, **kwargs)
            return loss * np.nan if calls["loss"] == 2 else loss

        def counted_backward(self):
            calls["backward"] += 1
            return real_backward(self)

        monkeypatch.setattr(forecaster, "_batch_loss", second_diverges)
        monkeypatch.setattr(Tensor, "backward", counted_backward)
        with pytest.raises(DivergedLoss, match=r"^non-finite loss at epoch 0$"):
            train(model, conv, data, cfg)
        assert calls == {"loss": 2, "backward": 1}
        for k, v in {**model.params, **conv.params}.items():
            np.testing.assert_array_equal(v.data, before[k], err_msg=k)

    def test_peak_memory_does_not_grow_with_batch(self, synth_bundle):
        data = TrainingData.from_series(*synth_bundle)
        peaks = {}
        for batch in (128, 1024):
            cfg = TrainConfig(window=24, epochs=1, batch_size=batch, seed=0)
            model, conv = build_models(data.mixes.shape[1], cfg)
            tracemalloc.start()
            try:
                train(model, conv, data, cfg)
                peaks[batch] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # 477 training windows: one batch of 477 against four of at most 128
        assert peaks[1024] <= 1.25 * peaks[128], peaks


def _head(data, hours):
    return TrainingData(data.mixes[:hours], data.impacts[:hours], data.timestamps[:hours])


# hours of the 2160 h series, TrainConfig settings, and the helpers forked at 2, 3 and 5 CPUs
PARALLEL_CASES = {
    # 1513 training windows: eleven batches of 128 (4 micro-batches), a tail of 105, and
    # validation (168 windows) split the same way
    "window-24": (2160, dict(window=24, epochs=2, seed=3), {2: 1, 3: 2, 5: 3}),
    # one batch of 128 windows in 13 micro-batches: 7 + 6 on two processes
    "window-72": (271, dict(window=72, epochs=2, seed=1, test_fraction=0.0, val_fraction=0.0),
                  {2: 1, 3: 2, 5: 4}),
    "linear-baseline": (720, dict(window=24, epochs=2, seed=3, architecture=LINEAR_BASELINE),
                        {2: 1, 3: 2, 5: 3}),
    # one-window micro-batches: batches of 7 (4+3, 3+2+2, 2+2+1+1+1) and of 3 (2+1,
    # 1+1+1, and at 5 CPUs two helpers with no share wait for the step)
    "window-500": (1009, dict(window=500, epochs=1, batch_size=7, seed=2, test_fraction=0.0,
                              val_fraction=0.0), {2: 1, 3: 2, 5: 4}),
}


class TestDataParallelTrain:
    @pytest.fixture(scope="class")
    def long_data(self, default_config):
        series = synthetic_mix_series(2160, seed=0)
        return TrainingData.from_series(series, oracle_labels(series, default_config))

    @pytest.mark.parametrize("windows, window, processes, want", [
        (128, 24, 2, [2, 2]), (128, 24, 3, [2, 1, 1]), (128, 24, 9, [1] * 4),
        (128, 72, 2, [7, 6]), (7, 500, 3, [3, 2, 2]), (3, 500, 2, [2, 1]), (1, 24, 4, [1]),
    ])
    def test_shares(self, windows, window, processes, want):
        parts = _micro_batches(windows, window)
        shares = forecaster._shares(parts, processes)
        assert [len(share) for share in shares] == want
        assert [part for share in shares for part in share] == parts

    @pytest.mark.parametrize("case", list(PARALLEL_CASES))
    def test_process_count_does_not_change_result(self, long_data, monkeypatch, case):
        hours, fields, helpers = PARALLEL_CASES[case]
        data, cfg = _head(long_data, hours), TrainConfig(**fields)
        runs = {}
        for cpus in (1, 2, 3, 5):
            monkeypatch.setattr(workers, "usable_cpus", lambda: cpus)
            forked = workers.forked_count()
            model, conv = build_models(data.mixes.shape[1], cfg)
            _, _, history = train(model, conv, data, cfg)
            params = {**{f"m.{k}": v.data for k, v in model.params.items()},
                      **{f"c.{k}": v.data for k, v in conv.params.items()}}
            runs[cpus] = params, history, workers.forked_count() - forked
        params, history, forked = runs[1]
        assert forked == 0
        for cpus in (2, 3, 5):
            assert runs[cpus][1] == history
            for name in params:
                np.testing.assert_array_equal(runs[cpus][0][name], params[name], err_msg=name)
            if workers.blas_thread_calls() is not None:
                assert runs[cpus][2] == helpers[cpus]
        assert multiprocessing.active_children() == []

    def _two_process_run(self, long_data, monkeypatch, epochs):
        """Data and config of one 128-window batch per epoch, 2 micro-batches per process."""
        if workers.blas_thread_calls() is None:
            pytest.skip("train forks no helpers without a way to pin the BLAS threads")
        monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
        return _head(long_data, 175), TrainConfig(window=24, epochs=epochs, seed=0,
                                                  test_fraction=0.0, val_fraction=0.0)

    def test_dead_helper_named_by_epoch(self, long_data, monkeypatch):
        data, cfg = self._two_process_run(long_data, monkeypatch, epochs=3)
        caller, calls = os.getpid(), []
        real_loss = forecaster._batch_loss

        def loss_or_die(*args, **kwargs):
            if os.getpid() != caller:
                calls.append(1)
                if len(calls) == 3:     # the helper's first micro-batch of epoch 1
                    os._exit(3)
            return real_loss(*args, **kwargs)

        monkeypatch.setattr(forecaster, "_batch_loss", loss_or_die)
        model, conv = build_models(data.mixes.shape[1], cfg)
        with pytest.raises(GridHealthError,
                           match=r"^a train helper process ended abruptly at epoch 1$"):
            train(model, conv, data, cfg)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("where", ["helper", "caller"])
    def test_divergence_stops_before_step(self, long_data, monkeypatch, where):
        data, cfg = self._two_process_run(long_data, monkeypatch, epochs=1)
        caller = os.getpid()
        real_loss = forecaster._batch_loss

        def one_side_diverges(*args, **kwargs):
            loss = real_loss(*args, **kwargs)
            return loss * np.nan if (os.getpid() == caller) == (where == "caller") else loss

        monkeypatch.setattr(forecaster, "_batch_loss", one_side_diverges)
        model, conv = build_models(data.mixes.shape[1], cfg)
        before = {k: v.data.copy() for k, v in {**model.params, **conv.params}.items()}
        with pytest.raises(DivergedLoss, match=r"^non-finite loss at epoch 0$"):
            train(model, conv, data, cfg)
        for k, v in {**model.params, **conv.params}.items():
            np.testing.assert_array_equal(v.data, before[k], err_msg=k)
        assert multiprocessing.active_children() == []

    def test_sweep_workers_fork_no_train_helpers(self, long_data, monkeypatch, tmp_path):
        if workers.blas_thread_calls() is None:
            pytest.skip("train forks no helpers without a way to pin the BLAS threads")
        monkeypatch.setattr(workers, "usable_cpus", lambda: 2)
        data, cfg = _head(long_data, 720), TrainConfig(window=24, epochs=1, seed=2)
        real_fork = workers.forked

        def noting_fork(target, arg_tuples):
            for _ in arg_tuples:
                (tmp_path / f"{target.__name__}-{os.getpid()}-{len(os.listdir(tmp_path))}").touch()
            return real_fork(target, arg_tuples)

        monkeypatch.setattr(workers, "forked", noting_fork)
        beta_sweep(data, [0.5, 0.9], cfg)
        caller = str(os.getpid())
        assert sorted(p.name.split("-")[:2] for p in tmp_path.iterdir()) == [
            ["_sweep_worker", caller]] * 2
        # the same run outside a sweep forks its helper
        model, conv = build_models(data.mixes.shape[1], cfg)
        train(model, conv, data, cfg)
        assert ["_train_helper", caller] in [p.name.split("-")[:2] for p in tmp_path.iterdir()]
        assert multiprocessing.active_children() == []


SMALL_FUELS = ("COL", "NG", "WND", "SUN")


def _small_networks():
    model = ForecastModel(ATTENTION, n_fuels=4, window=6, embed_dim=16, heads=2,
                          ff_dim=16, seed=9)
    conv = HealthConverterNet(4, hidden=16, seed=10)
    return model, conv


def _set_data(entry, raw):
    entry["data"] = base64.b64encode(raw).decode("ascii")


def _bad_base64(p):
    # a lenient decoder would skip the stray character and load the tensor
    data = p["params"]["out_w"]["data"]
    p["params"]["out_w"]["data"] = data[:8] + "*" + data[8:]


def _short_bytes(p):
    entry = p["params"]["out_w"]
    _set_data(entry, base64.b64decode(entry["data"])[:-8])


def _transposed_shape(p):
    # the byte count still matches; only the shape tag can tell
    p["params"]["out_w"]["shape"].reverse()


def _wrong_dtype(p):
    p["params"]["out_w"]["dtype"] = ">f8"


def _nan_value(p):
    entry = p["params"]["out_w"]
    values = np.frombuffer(base64.b64decode(entry["data"]), dtype="<f8").copy()
    values[3] = np.nan
    _set_data(entry, values.tobytes())


def _no_fuels(p):
    del p["fuels"]


def _fuels_not_list(p):
    p["fuels"] = ",".join(p["fuels"])


def _empty_fuels(p):
    p["fuels"] = []


def _non_string_fuel(p):
    p["fuels"][2] = 7


def _repeated_fuel(p):
    p["fuels"][2] = p["fuels"][0]


def _fuel_count_off_width(p):
    # one name more than the tensors' width: the model's first fuel-wide tensor disagrees
    p["fuels"].append("OTH")


def _version_2(p):
    # the v2 header: each network's fuel count, and no fuel names
    p["format"] = "gridhealth-checkpoint-v2"
    p["model"]["n_fuels"] = p["converter"]["n_fuels"] = len(p.pop("fuels"))


def _version_3(p):
    # the v3 layout, whose lin_w and lin_b were a log-share map trained by SGD
    p["format"] = "gridhealth-checkpoint-v3"


def _version_1(p):
    # the v1 layout: nested lists of floats under the v1 tag
    p["format"] = "gridhealth-checkpoint-v1"
    for section in ("params", "converter_params"):
        for name, entry in p[section].items():
            values = np.frombuffer(base64.b64decode(entry["data"]), dtype="<f8")
            p[section][name] = values.reshape(entry["shape"]).tolist()


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        model, conv = _small_networks()
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, model, conv, SMALL_FUELS)
        model2, conv2, fuels = load_checkpoint(path)
        assert fuels == SMALL_FUELS
        for old, new in ((model, model2), (conv, conv2)):
            assert list(new.params) == list(old.params)
            for name, tensor in old.params.items():
                assert new.params[name].data.dtype == np.float64
                assert new.params[name].data.flags.writeable
                np.testing.assert_array_equal(new.params[name].data, tensor.data)
        h = simplex((6, 4))
        for old, new in zip(forecast_at(model, conv, h, [0]), forecast_at(model2, conv2, h, [0])):
            np.testing.assert_array_equal(new, old)
        np.testing.assert_array_equal(conv.predict(h), conv2.predict(h))

    def test_rejects_foreign_file(self, tmp_path):
        p = tmp_path / "x.json"
        p.write_text("{}")
        with pytest.raises(ValueError):
            load_checkpoint(p)

    @pytest.mark.parametrize("corrupt, key", [
        (_bad_base64, "out_w"), (_short_bytes, "out_w"), (_transposed_shape, "out_w"),
        (_wrong_dtype, "out_w"), (_nan_value, "out_w"), (_version_1, "format"),
        (_no_fuels, "fuels"), (_fuels_not_list, "fuels"), (_empty_fuels, "fuels"),
        (_non_string_fuel, "fuels"), (_repeated_fuel, "fuels"),
        (_fuel_count_off_width, "embed_w"), (_version_2, "format"), (_version_3, "format"),
    ])
    def test_rejects_corrupt_tensor(self, tmp_path, corrupt, key):
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, *_small_networks(), SMALL_FUELS)
        payload = json.loads(path.read_text())
        corrupt(payload)
        path.write_text(json.dumps(payload))
        with pytest.raises(CorruptCheckpoint) as info:
            load_checkpoint(path)
        assert str(path) in str(info.value) and repr(key) in str(info.value)


    @pytest.mark.parametrize("fuels", [SMALL_FUELS[:3], (*SMALL_FUELS, "OTH")])
    def test_save_rejects_other_fuel_count(self, tmp_path, fuels):
        path = tmp_path / "ckpt.json"
        with pytest.raises(ShapeMismatch):
            save_checkpoint(path, *_small_networks(), fuels)
        assert not path.exists()

def test_attention_has_no_key_biases():
    # softmax cancels a bias shared by all of a query's scores; none is kept
    model, _ = _small_networks()
    assert "enc0_self_wk" in model.params and "dec0_cross_wk" in model.params
    assert not [name for name in model.params if name.endswith("_bk")]


def test_dropout_mask_same_draws_and_values_as_division():
    mask = _dropout_mask((4, 5, 6), 0.1, True, np.random.default_rng(3))
    divided = (np.random.default_rng(3).random((4, 5, 6)) >= 0.1).astype(np.float64) / (1.0 - 0.1)
    np.testing.assert_array_equal(mask, divided)
    assert mask.dtype == np.float64
    assert _dropout_mask((4,), 0.1, False, np.random.default_rng(3)) is None


def test_converter_nonnegative_outputs():
    conv = HealthConverterNet(3, hidden=8, seed=0)
    out = conv.predict(rng.normal(size=(50, 3)))
    assert np.all(out >= 0.0)
    assert out.shape == (50, 2)


def test_window_72_contract():
    model = ForecastModel(ATTENTION, n_fuels=8, window=72, embed_dim=16, heads=2,
                          ff_dim=16, seed=1)
    out = forecast_mixes(model, simplex((72, 8)))
    assert out.shape == (72, 8)
    np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-6)


@pytest.mark.parametrize("kw", [dict(beta=0.999), dict(beta=0.0), dict(window=0),
                                dict(test_fraction=1.0), dict(epochs=-1), dict(step_size=0.0),
                                dict(step_size=-0.004), dict(step_size=float("nan")),
                                dict(step_size=float("inf"))])
def test_train_config_validation(kw):
    base = dict(beta=0.5, window=24, epochs=1, seed=0)
    base.update(kw)
    with pytest.raises((BetaOutOfRange, ValueError)):
        TrainConfig(**base)
