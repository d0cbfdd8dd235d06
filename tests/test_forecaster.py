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

from gridhealth import forecaster
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
    _MaskTape,
    _dropout_mask,
    _heldout_starts,
    _micro_batches,
    beta_sweep,
    build_models,
    composite_loss,
    evaluate,
    forward,
    load_checkpoint,
    nmae,
    save_checkpoint,
    split_windows,
    train,
)
from gridhealth.synth import oracle_labels, synthetic_mix_series

rng = np.random.default_rng(7)


def simplex(shape):
    x = np.abs(rng.normal(size=shape)) + 1e-3
    return x / x.sum(axis=-1, keepdims=True)


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
    @pytest.mark.parametrize("arch", [ATTENTION, LINEAR_BASELINE])
    def test_rows_on_simplex(self, arch):
        model = ForecastModel(arch, n_fuels=5, window=6, embed_dim=16, heads=2,
                              ff_dim=16, seed=3)
        out = forward(model, simplex((9, 5)))
        assert out.shape == (6, 5)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-6)
        assert np.all(out >= 0)

    def test_persistence_identity(self):
        model = ForecastModel(LINEAR_BASELINE, n_fuels=4, window=5, seed=0)
        model.init_persistence()
        history = simplex((5, 4))
        out = forward(model, history)
        for step in range(5):
            np.testing.assert_allclose(out[step], history[-1], rtol=1e-9)

    def test_short_history(self):
        model = ForecastModel(LINEAR_BASELINE, n_fuels=3, window=8, seed=0)
        with pytest.raises(ShortHistory):
            forward(model, simplex((5, 3)))

    def test_horizon_slicing(self):
        model = ForecastModel(LINEAR_BASELINE, n_fuels=3, window=6, seed=0)
        h = simplex((6, 3))
        head = forward(model, h, horizon=2)
        assert head.shape == (2, 3)
        np.testing.assert_array_equal(head, forward(model, h)[:2])

    def test_eval_forward_deterministic(self):
        model = ForecastModel(ATTENTION, n_fuels=4, window=6, embed_dim=16, heads=2,
                              ff_dim=16, dropout=0.5, seed=1)
        h = simplex((6, 4))
        np.testing.assert_array_equal(forward(model, h), forward(model, h))


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

    def test_zero_epochs_bit_identical(self):
        data = linear_impact_data(80)
        cfg = self.small_cfg(epochs=0)
        model, conv = self.small_models(cfg)
        before = {k: v.data.copy() for k, v in model.params.items()}
        cbefore = {k: v.data.copy() for k, v in conv.params.items()}
        train(model, conv, data, cfg)
        for k in before:
            np.testing.assert_array_equal(model.params[k].data, before[k])
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
        pred = forward(model, mixes[:4])
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
        assert all(s + 24 >= boundary for s in _heldout_starts(1000, 24, cfg.test_fraction))
        assert split.val[0] > split.train[-1]

    def test_test_windows_tile_with_stride(self):
        cfg = TrainConfig(beta=0.5, window=24, epochs=1, seed=0)
        targets = [s + 24 for s in _heldout_starts(1000, 24, cfg.test_fraction)]
        assert np.all(np.diff(targets) == 24)


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
        if forecaster._blas_thread_calls() is not None:
            # both trained with one BLAS thread, here in one or more processes
            assert points[0].fuel_nmae == ev.fuel_nmae
            assert points[0].health_nmae == ev.health_nmae

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
            monkeypatch.setattr(forecaster, "_usable_cpus", lambda: cpus)
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
        monkeypatch.setattr(forecaster, "_usable_cpus", lambda: 1)     # waves of one
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
    ])
    def test_split_rule(self, windows, window):
        parts = _micro_batches(windows, window)
        sizes = [hi - lo for lo, hi in parts]
        assert parts[0][0] == 0 and parts[-1][1] == windows
        assert all(a[1] == b[0] for a, b in zip(parts, parts[1:]))
        assert sum(sizes) == windows and max(sizes) - min(sizes) <= 1
        assert sizes == sorted(sizes, reverse=True)
        if windows > 1:
            assert sizes[0] >= 2        # the tape tells per-window masks from shared ones
        if 2 * window <= _MICRO_ROWS:
            assert max(sizes) * window <= _MICRO_ROWS
            assert len(parts) == -(-windows // (_MICRO_ROWS // window))
        assert (len(parts) == 1) == (windows * window <= _MICRO_ROWS or windows <= 2)

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

    @pytest.mark.parametrize("parts", [[(0, 3), (3, 5), (5, 7)], [(0, 2), (2, 4), (4, 6), (6, 7)],
                                       [(0, 7)], [(3, 5), (5, 7), (0, 3)]])
    def test_tape_serves_rows_of_full_batch_draws(self, monkeypatch, parts):
        model = ForecastModel(ATTENTION, n_fuels=4, window=6, embed_dim=8, heads=2,
                              decoder_layers=2, ff_dim=8, dropout=0.3, seed=2)
        x = Tensor(simplex((7, 6, 4)))
        drawn = []

        def recording(shape, p, training, rng):
            drawn.append(_dropout_mask(shape, p, training, rng))
            return drawn[-1]

        monkeypatch.setattr(forecaster, "_dropout_mask", recording)
        oracle_rng = np.random.default_rng(11)
        full = model.forward_tensor(x, True, oracle_rng).data
        oracle, drawn[:] = list(drawn), []
        tape_rng = np.random.default_rng(11)
        tape = _MaskTape(tape_rng, 7)
        for lo, hi in parts:
            tape.select(lo, hi)
            pred = model.forward_tensor(Tensor(x.data[lo:hi]), True, tape).data
            np.testing.assert_allclose(pred, full[lo:hi], rtol=1e-13, atol=0)
            assert len(drawn) == len(oracle)
            for got, want in zip(drawn, oracle):
                np.testing.assert_array_equal(got, want if len(want) == 1 else want[lo:hi])
            drawn[:] = []
        # the batch-1 decoder query's self-attention and residual masks, shared by all
        assert sum(len(mask) == 1 for mask in oracle) == 2
        assert tape_rng.bit_generator.state == oracle_rng.bit_generator.state

    def test_micro_batch_divergence_stops_before_backward_and_step(self, synth_bundle,
                                                                   monkeypatch):
        data = TrainingData.from_series(*synth_bundle)
        cfg = TrainConfig(window=24, epochs=1, batch_size=128, seed=0)
        model, conv = build_models(data.mixes.shape[1], cfg)
        before = {k: v.data.copy() for k, v in {**model.params, **conv.params}.items()}
        calls = {"loss": 0, "backward": 0}
        # the counters live in this process: keep every micro-batch in it
        monkeypatch.setattr(forecaster, "_usable_cpus", lambda: 1)
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
    # batches of 7 windows (2+2 | 2+1, a 1-window micro-batch in the helper) and of 3
    # (2+1, which the caller runs alone while the helper waits for the step)
    "window-500": (1009, dict(window=500, epochs=1, batch_size=7, seed=2, test_fraction=0.0,
                              val_fraction=0.0), {2: 1, 3: 1, 5: 1}),
}


class TestDataParallelTrain:
    @pytest.fixture(scope="class")
    def long_data(self, default_config):
        series = synthetic_mix_series(2160, seed=0)
        return TrainingData.from_series(series, oracle_labels(series, default_config))

    @pytest.mark.parametrize("windows, window, processes, want", [
        (128, 24, 2, [2, 2]), (128, 24, 3, [2, 1, 1]), (128, 24, 9, [1] * 4),
        (128, 72, 2, [7, 6]), (7, 500, 3, [2, 2]), (3, 500, 2, [2]), (1, 24, 4, [1]),
    ])
    def test_shares(self, windows, window, processes, want):
        parts = _micro_batches(windows, window)
        shares = forecaster._shares(parts, processes)
        assert [len(share) for share in shares] == want
        assert [part for share in shares for part in share] == parts
        # every process's first micro-batch holds two windows or more
        assert all(share[0][1] - share[0][0] >= 2 for share in shares) or windows == 1

    @pytest.mark.parametrize("case", list(PARALLEL_CASES))
    def test_process_count_does_not_change_result(self, long_data, monkeypatch, case):
        hours, fields, helpers = PARALLEL_CASES[case]
        data, cfg = _head(long_data, hours), TrainConfig(**fields)
        runs = {}
        for cpus in (1, 2, 3, 5):
            monkeypatch.setattr(forecaster, "_usable_cpus", lambda: cpus)
            forked = forecaster.forked_workers()
            model, conv = build_models(data.mixes.shape[1], cfg)
            _, _, history = train(model, conv, data, cfg)
            params = {**{f"m.{k}": v.data for k, v in model.params.items()},
                      **{f"c.{k}": v.data for k, v in conv.params.items()}}
            runs[cpus] = params, history, forecaster.forked_workers() - forked
        params, history, forked = runs[1]
        assert forked == 0
        for cpus in (2, 3, 5):
            assert runs[cpus][1] == history
            for name in params:
                np.testing.assert_array_equal(runs[cpus][0][name], params[name], err_msg=name)
            if forecaster._blas_thread_calls() is not None:
                assert runs[cpus][2] == helpers[cpus]
        assert multiprocessing.active_children() == []

    def _two_process_run(self, long_data, monkeypatch, epochs):
        """Data and config of one 128-window batch per epoch, 2 micro-batches per process."""
        if forecaster._blas_thread_calls() is None:
            pytest.skip("train forks no helpers without a way to pin the BLAS threads")
        monkeypatch.setattr(forecaster, "_usable_cpus", lambda: 2)
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
        if forecaster._blas_thread_calls() is None:
            pytest.skip("train forks no helpers without a way to pin the BLAS threads")
        monkeypatch.setattr(forecaster, "_usable_cpus", lambda: 2)
        data, cfg = _head(long_data, 720), TrainConfig(window=24, epochs=1, seed=2)
        real_fork = forecaster._fork_workers

        def noting_fork(workers, target, arg_tuples, duplex):
            for _ in arg_tuples:
                (tmp_path / f"{target.__name__}-{os.getpid()}-{len(os.listdir(tmp_path))}").touch()
            return real_fork(workers, target, arg_tuples, duplex)

        monkeypatch.setattr(forecaster, "_fork_workers", noting_fork)
        beta_sweep(data, [0.5, 0.9], cfg)
        caller = str(os.getpid())
        assert sorted(p.name.split("-")[:2] for p in tmp_path.iterdir()) == [
            ["_sweep_worker", caller]] * 2
        # the same run outside a sweep forks its helper
        model, conv = build_models(data.mixes.shape[1], cfg)
        train(model, conv, data, cfg)
        assert ["_train_helper", caller] in [p.name.split("-")[:2] for p in tmp_path.iterdir()]
        assert multiprocessing.active_children() == []


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


def _converter_of_other_fuels(p):
    # a converter for 5 fuels, consistent in itself, beside a model for 4
    p["converter"]["n_fuels"] = 5
    entry = p["converter_params"]["w1"]
    entry["shape"][0] = 5
    _set_data(entry, bytes(5 * entry["shape"][1] * 8))


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
        save_checkpoint(path, model, conv)
        model2, conv2 = load_checkpoint(path)
        for old, new in ((model, model2), (conv, conv2)):
            assert list(new.params) == list(old.params)
            for name, tensor in old.params.items():
                assert new.params[name].data.dtype == np.float64
                assert new.params[name].data.flags.writeable
                np.testing.assert_array_equal(new.params[name].data, tensor.data)
        h = simplex((6, 4))
        np.testing.assert_array_equal(forward(model, h), forward(model2, h))
        np.testing.assert_array_equal(conv.predict(h), conv2.predict(h))

    def test_rejects_foreign_file(self, tmp_path):
        p = tmp_path / "x.json"
        p.write_text("{}")
        with pytest.raises(ValueError):
            load_checkpoint(p)

    @pytest.mark.parametrize("corrupt, key", [
        (_bad_base64, "out_w"), (_short_bytes, "out_w"), (_transposed_shape, "out_w"),
        (_wrong_dtype, "out_w"), (_nan_value, "out_w"), (_version_1, "format"),
        (_converter_of_other_fuels, "n_fuels"),
    ])
    def test_rejects_corrupt_tensor(self, tmp_path, corrupt, key):
        path = tmp_path / "ckpt.json"
        save_checkpoint(path, *_small_networks())
        payload = json.loads(path.read_text())
        corrupt(payload)
        path.write_text(json.dumps(payload))
        with pytest.raises(CorruptCheckpoint) as info:
            load_checkpoint(path)
        assert str(path) in str(info.value) and repr(key) in str(info.value)


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
    out = forward(model, simplex((72, 8)))
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
