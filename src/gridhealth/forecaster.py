"""Fuel-mix forecasting with a health-weighted composite objective.

Two architectures share one interface: a small attention encoder-decoder
(embedding, one encoder and one decoder block, four attention heads) and a
linear baseline operating on log-shares so that persistence is exactly
representable. Both end in a normalized-exponential map, so every emitted
row is a probability vector over fuels.

The composite objective weighs fuel-mix error against the error of the
monetized health impacts predicted from the forecast mix by a 3-layer
perceptron converter; `beta` near 1 is mix-driven, smaller `beta` is
health-driven. Training is plain SGD and fully deterministic given a seed.

`train` shares each batch's micro-batches among helper processes forked
for the call, one per usable CPU, and adds their gradients in the order
one process would. `beta_sweep` trains each member in its own plain
worker process forked from the caller, with one pipe for its point; the
workers start in waves that keep every usable CPU busy. Every process
runs one BLAS thread, so neither the trained parameters nor the points
depend on the number of CPUs or on the host's BLAS thread count.
"""

from __future__ import annotations

import base64
import contextlib
import ctypes
import functools
import json
import math
import os
import platform
import signal
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import autodiff
from .autodiff import SGD, Tensor
from .errors import (
    BetaOutOfRange,
    CorruptCheckpoint,
    DivergedLoss,
    GridHealthError,
    InsufficientData,
    ShapeMismatch,
    ShortHistory,
    ZeroNormalizer,
)
from .health import HealthSeries
from .ingest import FuelMixSeries

BETA_MAX = 0.998

ATTENTION = "attention_encoder_decoder"
LINEAR_BASELINE = "linear_baseline"

_LOG_FLOOR = 1e-12
# hours of windows per training micro-batch. At window 24 that is 32 windows,
# whose largest activations, (32, 4, 24, 24) float64, take 0.6 MB and stay in
# a 2 MB per-core L2 cache; a 128-window batch's take 2.4 MB and do not.
_MICRO_ROWS = 768


@dataclass
class TrainConfig:
    """Hyperparameters for one training run."""

    beta: float = 0.5
    window: int = 24
    epochs: int = 100
    step_size: float = 0.004
    batch_size: int = 128
    seed: int = 0
    test_fraction: float = 0.2
    val_fraction: float = 0.1
    architecture: str = ATTENTION

    def __post_init__(self):
        if not (0.0 < self.beta <= BETA_MAX):
            raise BetaOutOfRange(f"beta must be in (0, {BETA_MAX}], got {self.beta}")
        if self.window < 1:
            raise ValueError("window must be at least 1 hour")
        if self.batch_size < 1 or self.epochs < 0:
            raise ValueError("bad batch size or epoch count")
        if not (math.isfinite(self.step_size) and self.step_size > 0):
            raise ValueError(f"step size must be finite and positive, got {self.step_size}")
        if not (0.0 <= self.test_fraction < 1.0 and 0.0 <= self.val_fraction < 1.0):
            raise ValueError("split fractions must lie in [0, 1)")


@dataclass
class TradeoffPoint:
    beta: float
    fuel_nmae: float
    health_nmae: float


def _sinusoidal_positions(length: int, dim: int) -> np.ndarray:
    pos = np.arange(length)[:, None]
    idx = np.arange(dim)[None, :]
    angle = pos / np.power(10000.0, 2 * (idx // 2) / dim)
    enc = np.where(idx % 2 == 0, np.sin(angle), np.cos(angle))
    return enc


class _MaskTape:
    """The dropout draws of one SGD batch of `windows` windows, served to its micro-batches.

    While the first micro-batch to run forward (any of them) runs, each
    keep-mask is drawn from `rng` in forward order at the shape a forward
    over the whole batch draws it: a mask whose leading axis is the
    micro-batch's windows is drawn for all `windows` (in micro-batch-sized
    slices, which take the same values from the generator), and one with
    leading axis 1, the batch-1 decoder query's, is drawn at its own shape
    and shared. Every micro-batch is then served its rows of each mask. So
    each window sees the mask values a full-batch forward gives it, and
    `rng` ends the batch in the same state, whichever micro-batch came
    first. A first micro-batch of one window could not tell the two kinds
    apart, so it must hold two or more unless it is the batch.
    """

    def __init__(self, rng: np.random.Generator, windows: int):
        self.rng, self.windows = rng, windows
        self.keeps: list[np.ndarray] = []
        self.rows, self.served = slice(0, windows), 0

    def select(self, lo: int, hi: int) -> None:
        """Serve rows lo..hi-1 of the batch to the next forward."""
        self.rows, self.served = slice(lo, hi), 0

    def keep(self, shape, p: float) -> np.ndarray:
        """The boolean keep-mask of `shape` for the current micro-batch."""
        if self.served == len(self.keeps):      # the first micro-batch to ask for it
            m = self.rows.stop - self.rows.start
            keep = np.empty((self.windows, *shape[1:]) if shape[0] == m else shape, dtype=bool)
            for lo in range(0, len(keep), m):
                np.greater_equal(self.rng.random(keep[lo:lo + m].shape), p,
                                 out=keep[lo:lo + m])
            self.keeps.append(keep)
        keep = self.keeps[self.served]
        self.served += 1
        return keep if len(keep) == 1 else keep[self.rows]


def _dropout_mask(shape, p: float, training: bool,
                  rng: np.random.Generator | _MaskTape | None) -> np.ndarray | None:
    """Inverted-dropout mask of `shape`, or None when dropout is off."""
    if not training or p <= 0.0 or rng is None:
        return None
    keep = rng.keep(shape, p) if isinstance(rng, _MaskTape) else rng.random(shape) >= p
    return keep * (1 / (1 - p))


def _dropout(x: Tensor, p: float, training: bool, rng: np.random.Generator | None) -> Tensor:
    mask = _dropout_mask(x.shape, p, training, rng)
    return x if mask is None else x * Tensor(mask)


def _check_sizes(least: int, **sizes) -> None:
    """Raise ValueError naming the first of `sizes` below `least`."""
    for name, value in sizes.items():
        if value < least:
            raise ValueError(f"{name} must be at least {least}, got {value!r}")


class ForecastModel:
    """Sequence-to-sequence fuel-mix predictor.

    Consumes a history window of `window` hourly mixes and emits the next
    `window` hours, each row on the simplex.
    """

    def __init__(
        self,
        architecture: str,
        n_fuels: int,
        window: int,
        embed_dim: int = 64,
        heads: int = 4,
        encoder_layers: int = 1,
        decoder_layers: int = 1,
        ff_dim: int = 64,
        dropout: float = 0.1,
        seed: int = 0,
    ):
        if architecture not in (ATTENTION, LINEAR_BASELINE):
            raise ValueError(f"unknown architecture {architecture!r}")
        _check_sizes(1, n_fuels=n_fuels, window=window, embed_dim=embed_dim, heads=heads,
                     ff_dim=ff_dim)
        _check_sizes(0, encoder_layers=encoder_layers, decoder_layers=decoder_layers)
        if not 0.0 <= dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {dropout!r}")
        if embed_dim % heads != 0:
            raise ValueError("embed_dim must be divisible by heads")
        self.architecture = architecture
        self.n_fuels = n_fuels
        self.window = window
        self.embed_dim = embed_dim
        self.heads = heads
        self.encoder_layers = encoder_layers
        self.decoder_layers = decoder_layers
        self.ff_dim = ff_dim
        self.dropout = dropout
        self.seed = seed
        self.params: dict[str, Tensor] = {}
        rng = np.random.default_rng(seed)
        if architecture == ATTENTION:
            self._init_attention(rng)
        else:
            self._init_linear(rng)

    # -- parameter construction ----------------------------------------------

    def _add(self, name: str, shape, rng, scale=None):
        self.params[name] = autodiff.parameter(shape, rng=rng, scale=scale)

    def _add_zeros(self, name: str, shape):
        self.params[name] = Tensor(np.zeros(shape), requires_grad=True)

    def _add_ones(self, name: str, shape):
        self.params[name] = Tensor(np.ones(shape), requires_grad=True)

    def _init_attention(self, rng):
        d, f = self.embed_dim, self.n_fuels
        self._add("embed_w", (f, d), rng)
        self._add_zeros("embed_b", (d,))
        self.positions = _sinusoidal_positions(self.window, d)
        for i in range(self.encoder_layers):
            self._init_attn_block(f"enc{i}", rng, cross=False)
        self._add("dec_query", (self.window, d), rng, scale=0.5)
        for i in range(self.decoder_layers):
            self._init_attn_block(f"dec{i}", rng, cross=True)
        self._add("out_w", (d, f), rng)
        self._add_zeros("out_b", (f,))

    def _init_attn_block(self, prefix, rng, cross: bool):
        d, ff = self.embed_dim, self.ff_dim
        stages = ["self", "cross"] if cross else ["self"]
        for stage in stages:
            for mat in ("q", "k", "v", "o"):
                self._add(f"{prefix}_{stage}_w{mat}", (d, d), rng)
                if mat != "k":
                    self._add_zeros(f"{prefix}_{stage}_b{mat}", (d,))
            self._add_ones(f"{prefix}_{stage}_ln_g", (d,))
            self._add_zeros(f"{prefix}_{stage}_ln_b", (d,))
        self._add(f"{prefix}_ff_w1", (d, ff), rng)
        self._add_zeros(f"{prefix}_ff_b1", (ff,))
        self._add(f"{prefix}_ff_w2", (ff, d), rng)
        self._add_zeros(f"{prefix}_ff_b2", (d,))
        self._add_ones(f"{prefix}_ff_ln_g", (d,))
        self._add_zeros(f"{prefix}_ff_ln_b", (d,))

    def _init_linear(self, rng):
        f, t = self.n_fuels, self.window
        self._add("lin_w", (t * f, t * f), rng)
        self._add_zeros("lin_b", (t * f,))

    def init_persistence(self):
        """Set the linear baseline to repeat the last observed record."""
        if self.architecture != LINEAR_BASELINE:
            raise ValueError("persistence init applies to the linear baseline only")
        f, t = self.n_fuels, self.window
        w = np.zeros((t * f, t * f))
        for step in range(t):
            for j in range(f):
                w[(t - 1) * f + j, step * f + j] = 1.0
        self.params["lin_w"].data = w
        self.params["lin_b"].data = np.zeros(t * f)

    # -- forward -------------------------------------------------------------

    def _mha(self, prefix, stage, q_in, k_in, v_in, training, rng):
        p = self.params
        d, h = self.embed_dim, self.heads
        dk = d // h

        def heads_of(x, name):
            # keys have no bias: it would shift all of a query's scores
            # alike, which softmax cancels, so it could never learn
            proj = x.linear(p[f"{prefix}_{stage}_w{name}"], p.get(f"{prefix}_{stage}_b{name}"))
            b, t, _ = proj.shape
            return proj.reshape(b, t, h, dk).transpose(0, 2, 1, 3)

        q = heads_of(q_in, "q")
        k = heads_of(k_in, "k")
        v = heads_of(v_in, "v")
        weights_shape = np.broadcast_shapes(q.shape[:-2], k.shape[:-2]) + (q.shape[-2], k.shape[-2])
        mask = _dropout_mask(weights_shape, self.dropout, training, rng)
        ctx = q.attention(k, v, 1.0 / math.sqrt(dk), mask)
        b, _, t, _ = ctx.shape
        ctx = ctx.transpose(0, 2, 1, 3).reshape(b, t, d)
        return ctx.linear(p[f"{prefix}_{stage}_wo"], p[f"{prefix}_{stage}_bo"])

    def _sublayer(self, prefix, stage, x, out, training, rng):
        p = self.params
        mixed = x + _dropout(out, self.dropout, training, rng)
        return mixed.layer_norm_affine(p[f"{prefix}_{stage}_ln_g"], p[f"{prefix}_{stage}_ln_b"])

    def _ff(self, prefix, x, training, rng):
        p = self.params
        hidden = x.linear(p[f"{prefix}_ff_w1"], p[f"{prefix}_ff_b1"]).gelu()
        out = hidden.linear(p[f"{prefix}_ff_w2"], p[f"{prefix}_ff_b2"])
        return self._sublayer(prefix, "ff", x, out, training, rng)

    def forward_tensor(self, x: Tensor, training: bool = False,
                       rng: np.random.Generator | None = None) -> Tensor:
        """(B, window, F) histories to (B, window, F) simplex predictions."""
        if len(x.shape) != 3 or x.shape[1] != self.window or x.shape[2] != self.n_fuels:
            raise ShapeMismatch(f"expected (B, {self.window}, {self.n_fuels}), got {x.shape}")
        if self.architecture == LINEAR_BASELINE:
            return self._forward_linear(x)
        return self._forward_attention(x, training, rng)

    def _forward_linear(self, x: Tensor) -> Tensor:
        b = x.shape[0]
        t, f = self.window, self.n_fuels
        feats = Tensor(np.log(np.maximum(x.data, _LOG_FLOOR)))
        flat = feats.reshape(b, t * f)
        logits = flat.linear(self.params["lin_w"], self.params["lin_b"])
        return logits.reshape(b, t, f).softmax(axis=-1)

    def _forward_attention(self, x, training, rng):
        p = self.params
        h = x.linear(p["embed_w"], p["embed_b"])
        h = h + Tensor(self.positions)
        h = _dropout(h, self.dropout, training, rng)
        for i in range(self.encoder_layers):
            pre = f"enc{i}"
            h = self._sublayer(pre, "self", h, self._mha(pre, "self", h, h, h, training, rng),
                               training, rng)
            h = self._ff(pre, h, training, rng)
        memory = h

        q = p["dec_query"].reshape(1, self.window, self.embed_dim)
        for i in range(self.decoder_layers):
            pre = f"dec{i}"
            q = self._sublayer(pre, "self", q, self._mha(pre, "self", q, q, q, training, rng),
                               training, rng)
            q = self._sublayer(pre, "cross", q,
                               self._mha(pre, "cross", q, memory, memory, training, rng),
                               training, rng)
            q = self._ff(pre, q, training, rng)

        logits = q.linear(p["out_w"], p["out_b"])
        return logits.softmax(axis=-1)


def forward(model: ForecastModel, history, horizon: int | None = None) -> np.ndarray:
    """Predict the next `horizon` mixes from the trailing model window.

    `history` is a FuelMixSeries or an (n, F) array with n >= model.window;
    only the final window rows are consumed. Dropout is off, so the output
    is a deterministic function of parameters and input.
    """
    shares = history.shares if isinstance(history, FuelMixSeries) else np.asarray(history)
    if shares.ndim != 2 or shares.shape[1] != model.n_fuels:
        raise ShapeMismatch(f"history must be (n, {model.n_fuels})")
    if shares.shape[0] < model.window:
        raise ShortHistory(
            f"need at least {model.window} hours of history, have {shares.shape[0]}"
        )
    horizon = model.window if horizon is None else horizon
    if not (1 <= horizon <= model.window):
        raise ValueError(f"horizon must be in [1, {model.window}]")
    x = Tensor(shares[-model.window:][None, :, :])
    with autodiff.no_grad():
        pred = model.forward_tensor(x, training=False)
    return pred.data[0, :horizon]


class HealthConverterNet:
    """3-layer perceptron mapping one mix to (internal, external) $/MWh,
    forced nonnegative by a softplus output."""

    def __init__(self, n_fuels: int, hidden: int = 64, seed: int = 0):
        _check_sizes(1, n_fuels=n_fuels, hidden=hidden)
        self.n_fuels = n_fuels
        self.hidden = hidden
        self.seed = seed
        rng = np.random.default_rng(seed)
        self.params = {
            "w1": autodiff.parameter((n_fuels, hidden), rng=rng),
            "b1": Tensor(np.zeros(hidden), requires_grad=True),
            "w2": autodiff.parameter((hidden, hidden), rng=rng),
            "b2": Tensor(np.zeros(hidden), requires_grad=True),
            "w3": autodiff.parameter((hidden, 2), rng=rng),
            "b3": Tensor(np.ones(2), requires_grad=True),
        }

    def forward_tensor(self, x: Tensor) -> Tensor:
        """(N, F) mixes to (N, 2) nonnegative impact predictions."""
        p = self.params
        h1 = x.linear(p["w1"], p["b1"]).tanh()
        h2 = h1.linear(p["w2"], p["b2"]).tanh()
        return h2.linear(p["w3"], p["b3"]).softplus()

    def predict(self, mixes: np.ndarray) -> np.ndarray:
        with autodiff.no_grad():
            return self.forward_tensor(Tensor(np.atleast_2d(mixes))).data


def composite_loss(pred, truth, pred_impact, truth_impact, beta: float) -> Tensor:
    """beta-weighted sum of squared mix error and squared impact error.

    Per window: beta * ||truth - pred||^2 summed over all T x F entries,
    plus (1-beta)/2 times the squared internal and external impact errors
    summed over T; the batch dimension, if present, is averaged.
    """
    if not (0.0 < beta <= BETA_MAX):
        raise BetaOutOfRange(f"beta must be in (0, {BETA_MAX}], got {beta}")
    pred = pred if isinstance(pred, Tensor) else Tensor(pred)
    truth = truth if isinstance(truth, Tensor) else Tensor(truth)
    pred_impact = pred_impact if isinstance(pred_impact, Tensor) else Tensor(pred_impact)
    truth_impact = truth_impact if isinstance(truth_impact, Tensor) else Tensor(truth_impact)

    if pred.shape != truth.shape or pred_impact.shape != truth_impact.shape:
        raise ShapeMismatch("prediction and truth shapes disagree")
    if len(pred.shape) == 2:
        pred = pred.reshape(1, *pred.shape)
        truth = truth.reshape(1, *truth.shape)
        pred_impact = pred_impact.reshape(1, *pred_impact.shape)
        truth_impact = truth_impact.reshape(1, *truth_impact.shape)
    if len(pred.shape) != 3 or len(pred_impact.shape) != 3 or pred_impact.shape[2] != 2:
        raise ShapeMismatch("expected (B, T, F) mixes and (B, T, 2) impacts")
    if pred.shape[0] != pred_impact.shape[0] or pred.shape[1] != pred_impact.shape[1]:
        raise ShapeMismatch("mix and impact windows disagree")

    fuel_diff = truth - pred
    impact_diff = truth_impact - pred_impact
    fuel = (fuel_diff * fuel_diff).sum(axis=(1, 2))
    impact = (impact_diff * impact_diff).sum(axis=(1, 2))
    return (fuel * beta + impact * ((1.0 - beta) / 2.0)).mean()


def nmae(pred, truth) -> float:
    """Mean absolute error normalized by the mean absolute truth."""
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape or pred.size == 0:
        raise ShapeMismatch("nmae requires matching, nonempty sequences")
    denom = np.abs(truth).mean()
    if denom == 0.0:
        raise ZeroNormalizer("mean absolute truth is zero")
    return float(np.abs(pred - truth).mean() / denom)


# -- dataset windowing ---------------------------------------------------------


@dataclass
class TrainingData:
    """Hour-aligned mixes (N, F) and impact labels (N, 2)."""

    mixes: np.ndarray
    impacts: np.ndarray
    timestamps: np.ndarray

    def __post_init__(self):
        self.mixes = np.asarray(self.mixes, dtype=np.float64)
        self.impacts = np.asarray(self.impacts, dtype=np.float64)
        self.timestamps = np.asarray(self.timestamps, dtype=np.int64)
        n = self.mixes.shape[0]
        if self.impacts.shape != (n, 2) or self.timestamps.shape != (n,):
            raise ShapeMismatch("mixes, impacts, and timestamps must align")

    def __len__(self):
        return self.mixes.shape[0]

    @classmethod
    def from_series(cls, series: FuelMixSeries, signals: HealthSeries) -> "TrainingData":
        """Pair each hour of `series` with the label `signals` holds for that hour."""
        stamps = signals.timestamps
        at = np.searchsorted(stamps, series.timestamps)
        found = at < len(stamps)
        found[found] = stamps[at[found]] == series.timestamps[found]
        if not found.all():
            raise InsufficientData(
                f"no health label for hour {series.timestamps[np.argmin(found)]}")
        return cls(series.shares.copy(), signals.costs[at], series.timestamps.copy())


@dataclass
class WindowSplit:
    train: list[int] = field(default_factory=list)
    val: list[int] = field(default_factory=list)


def split_windows(n_hours: int, cfg: TrainConfig) -> WindowSplit:
    """Carve train/val window start indices, time ordered.

    Train/val windows (history plus target, 2T hours) live entirely inside
    the leading (1 - test_fraction) span; validation is the final
    val_fraction of those windows.
    """
    t = cfg.window
    n_test_hours = int(n_hours * cfg.test_fraction)
    boundary = n_hours - n_test_hours
    starts = list(range(0, boundary - 2 * t + 1))
    n_val = int(len(starts) * cfg.val_fraction)
    return WindowSplit(train=starts[: len(starts) - n_val], val=starts[len(starts) - n_val:])


def _heldout_starts(n_hours: int, window: int, test_fraction: float) -> list[int]:
    """Start indices of the windows whose targets tile the held-out span.

    A history may reach back across the boundary.
    """
    boundary = n_hours - int(n_hours * test_fraction)
    return [q - window for q in range(boundary, n_hours - window + 1, window) if q >= window]


def _window_rows(starts, t: int) -> np.ndarray:
    """(windows, t) row indices: row w holds hours starts[w] .. starts[w] + t - 1."""
    return np.asarray(starts, dtype=np.intp)[:, None] + np.arange(t)


def _gather(data: TrainingData, starts, t: int):
    rows = _window_rows(starts, t)
    return data.mixes[rows], data.mixes[rows + t], data.impacts[rows + t]


def _batch_loss(model, converter, hist, target, impact, beta,
                training=False, rng=None) -> Tensor:
    x = Tensor(hist)
    pred = model.forward_tensor(x, training=training, rng=rng)
    b, t, f = pred.shape
    pred_impact = converter.forward_tensor(pred.reshape(b * t, f)).reshape(b, t, 2)
    return composite_loss(pred, Tensor(target), pred_impact, Tensor(impact), beta)


@functools.cache
def _retain_freed_heap() -> None:
    """Keep freed training buffers in the heap instead of returning them.

    Every batch frees and re-allocates the same few hundred activation
    buffers. By default glibc serves the large ones with fresh mmaps and
    trims the heap top, so each batch pages them in again. Raising the
    mmap and trim thresholds (32 MiB, 256 MiB) lets the next batch reuse
    the freed memory. Process-wide; on any other libc it does nothing.
    """
    if platform.libc_ver()[0] != "glibc":
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    m_trim_threshold, m_mmap_threshold = -1, -3
    mallopt(m_mmap_threshold, 32 << 20)
    mallopt(m_trim_threshold, 256 << 20)


def _near_equal(n: int, k: int) -> list[tuple[int, int]]:
    """`k` contiguous (lo, hi) ranges over 0..n-1, sizes within one of each other, larger first."""
    q, r = divmod(n, k)
    bounds = [i * q + min(i, r) for i in range(k + 1)]
    return list(zip(bounds, bounds[1:]))


def _micro_batches(windows: int, window: int) -> list[tuple[int, int]]:
    """Near-equal contiguous (lo, hi) ranges of a batch of `windows` windows, larger first.

    Each range holds at most `_MICRO_ROWS // window` windows, or two where
    that is fewer. So the first range holds two or more unless the batch is
    one window, as `_MaskTape` needs; a later one may hold one (3 windows
    at window 500 split 2 + 1).
    """
    return _near_equal(windows, -(-windows // max(2, _MICRO_ROWS // window)))


def _shares(parts: list[tuple[int, int]], processes: int) -> list[list[tuple[int, int]]]:
    """The micro-batches `parts` of one batch as contiguous near-equal shares, larger first.

    At most one share per process. Each share's first micro-batch holds two
    or more windows, as `_MaskTape` needs of the first micro-batch a process
    runs, so a batch may have fewer shares than `processes`.
    """
    for count in range(min(processes, len(parts)), 1, -1):
        shares = [parts[lo:hi] for lo, hi in _near_equal(len(parts), count)]
        if all(share[0][1] - share[0][0] >= 2 for share in shares):
            return shares
    return [parts]


class _TrainRun:
    """One `train` call as each of its processes holds it.

    The caller and its forked helpers start from the same parameters and the
    same `rng`, and every process draws the same permutation per epoch and
    the whole mask tape of every batch it has a share of. So they agree on
    each batch's windows and dropout masks without sending them; a process
    with no share of a batch is sent the generator's state instead.
    """

    def __init__(self, model: ForecastModel, converter: HealthConverterNet, data: TrainingData,
                 cfg: TrainConfig, split: WindowSplit, processes: int):
        self.model, self.converter, self.cfg, self.split = model, converter, cfg, split
        self.processes = processes
        self.rng = np.random.default_rng(cfg.seed)
        self.optimizer = SGD({**{f"m.{k}": v for k, v in model.params.items()},
                              **{f"c.{k}": v for k, v in converter.params.items()}},
                             lr=cfg.step_size)
        self.train_arrays = _gather(data, split.train, cfg.window)
        self.val_arrays = _gather(data, split.val, cfg.window) if split.val else None
        if processes > 1:
            params = list(self.optimizer.params.values())
            bounds = np.cumsum([0] + [p.data.size for p in params])
            self.spans = list(zip(bounds, bounds[1:]))  # each parameter's place in a flat gradient
            # the summed gradient of a batch, and each parameter's view of it
            self.total = np.empty(bounds[-1])
            self.grads = [self.total[lo:hi].reshape(p.data.shape)
                          for (lo, hi), p in zip(self.spans, params)]
            # one micro-batch's flat leaf gradient, then its weighted loss
            self.row = np.empty(bounds[-1] + 1)

    def shares(self, windows: int) -> list[list[tuple[int, int]]]:
        return _shares(_micro_batches(windows, self.cfg.window), self.processes)

    def batches(self):
        """(window indices, mask tape) of each batch of one epoch."""
        order = self.rng.permutation(len(self.split.train))
        for lo in range(0, len(order), self.cfg.batch_size):
            idx = order[lo:lo + self.cfg.batch_size]
            yield idx, _MaskTape(self.rng, len(idx))

    def micro_loss(self, idx: np.ndarray, a: int, b: int, tape: _MaskTape) -> Tensor:
        """The loss of the batch's windows idx[a:b], weighted by their share of the batch."""
        tape.select(a, b)
        hist, target, impact = (x[idx[a:b]] for x in self.train_arrays)
        loss = _batch_loss(self.model, self.converter, hist, target, impact, self.cfg.beta,
                           training=True, rng=tape)
        return loss * ((b - a) / len(idx))

    def val_parts(self, share: list[tuple[int, int]]) -> list[float]:
        """The validation loss of each micro-batch of `share`, weighted by its share."""
        parts = []
        with autodiff.no_grad():
            for a, b in share:
                loss = _batch_loss(self.model, self.converter,
                                   *(x[a:b] for x in self.val_arrays), self.cfg.beta)
                parts.append(float(loss.data) * ((b - a) / len(self.split.val)))
        return parts

    def flatten_grads(self, out: np.ndarray) -> None:
        for (lo, hi), p in zip(self.spans, self.optimizer.params.values()):
            out[lo:hi] = p.grad.reshape(-1)

    def step_by_total(self) -> None:
        """The optimizer step for the summed gradient in `total`."""
        for grad, p in zip(self.grads, self.optimizer.params.values()):
            p.grad = grad
        self.optimizer.step()

    def epoch(self, epoch: int, links: list) -> dict:
        """One epoch in the caller, with a link to each helper; returns its history row.

        The caller runs the first share of each batch into the leaf
        gradients, then adds each helper's micro-batch gradients and losses
        to them in micro-batch order, as one process would, and sends every
        helper the sum to step by.
        """
        losses = []
        for idx, tape in self.batches():
            shares = self.shares(len(idx))
            self.optimizer.zero_grad()
            value = 0.0
            for a, b in shares[0]:
                loss = self.micro_loss(idx, a, b, tape)
                part = float(loss.data)
                if not math.isfinite(part):
                    raise DivergedLoss(f"non-finite loss at epoch {epoch}")
                loss.backward()
                value += part
            if links:
                self.flatten_grads(self.total)
                for link, share in zip(links, shares[1:]):
                    for _ in share:
                        link.recv_bytes_into(self.row)
                        if not math.isfinite(self.row[-1]):
                            raise DivergedLoss(f"non-finite loss at epoch {epoch}")
                        self.total += self.row[:-1]
                        value += float(self.row[-1])
                for rank, link in enumerate(links, 1):
                    link.send_bytes(self.total)
                    if rank >= len(shares):     # it drew no masks
                        link.send(self.rng.bit_generator.state)
                self.step_by_total()
            else:
                self.optimizer.step()
            losses.append(value)
        if self.split.val:
            shares = self.shares(len(self.split.val))
            val_loss = 0.0
            for part in self.val_parts(shares[0]):
                val_loss += part
            for link in links[:len(shares) - 1]:
                for part in np.frombuffer(link.recv_bytes()):
                    val_loss += float(part)
            if not math.isfinite(val_loss):
                raise DivergedLoss(f"non-finite validation loss at epoch {epoch}")
        else:
            val_loss = float(np.mean(losses))
        return {"epoch": epoch, "train_loss": float(np.mean(losses)), "val_loss": val_loss}


# as for train
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _train_helper(run: _TrainRun, rank: int, link) -> None:
    """Run share `rank` of every batch and of validation in a forked helper of `train`.

    Sends the flat leaf gradient and weighted loss of each of its
    micro-batches, stopping at a non-finite loss, then takes the step whose
    summed gradient the caller sends back.
    """
    _worker_started()
    n, size = len(run.split.train), run.cfg.batch_size
    most = max(len(share) for windows in {min(size, n), n % size} - {0}
               for share in run.shares(windows))
    rows = np.empty((most, run.row.size))
    for _ in range(run.cfg.epochs):
        for idx, tape in run.batches():
            shares = run.shares(len(idx))
            if rank < len(shares):
                count = 0
                for a, b in shares[rank]:
                    run.optimizer.zero_grad()
                    loss = run.micro_loss(idx, a, b, tape)
                    row = rows[count]
                    row[-1] = float(loss.data)
                    count += 1
                    if not math.isfinite(row[-1]):
                        break
                    loss.backward()
                    run.flatten_grads(row[:-1])
                for row in rows[:count]:    # one at a time: the caller needs one buffer
                    link.send_bytes(row)
            link.recv_bytes_into(run.total)
            if rank >= len(shares):
                run.rng.bit_generator.state = link.recv()
            run.step_by_total()
        if run.split.val:
            shares = run.shares(len(run.split.val))
            if rank < len(shares):
                link.send_bytes(np.array(run.val_parts(shares[rank])))


def _train_processes(cfg: TrainConfig, split: WindowSplit) -> int:
    """The number of processes a `train` call runs in.

    One per usable CPU, but at most one per share of its largest batch
    (`_shares`); one in a worker this module forked, for zero epochs, or
    without `fork` or a way to pin the BLAS threads.
    """
    if _in_worker or cfg.epochs == 0 or _blas_thread_calls() is None:
        return 1
    import multiprocessing      # here, so that importing the package does not pay for it

    if "fork" not in multiprocessing.get_all_start_methods():
        return 1
    largest = min(cfg.batch_size, len(split.train))
    return len(_shares(_micro_batches(largest, cfg.window), _usable_cpus()))


# a diverging run overflows; the finite checks on its losses report it, with no
# numpy warning before the named error
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def train(model: ForecastModel, converter: HealthConverterNet, data: TrainingData,
          cfg: TrainConfig) -> tuple[ForecastModel, HealthConverterNet, list[dict]]:
    """SGD training of the forecaster and converter, end to end.

    The health term's gradient flows through the converter into the mix
    predictor, so both learn jointly. Returns the models plus a per-epoch
    history of mean train loss and validation loss.

    Each batch runs forward and backward in `_micro_batches`, each loss
    weighted by its share of the batch, so the leaf gradients sum to the
    batch's before its one optimizer step; a `_MaskTape` gives every window
    the dropout masks a full-batch step would. Validation runs in the same
    chunks. Memory is one micro-batch's graph plus the tape's booleans
    (12 KB per window of the batch at window 24 and the default sizes), so
    it barely grows with the batch size.

    The micro-batches of each batch, and of validation, are split into
    `_shares` over `_train_processes` processes: the caller runs the first
    share, and helpers forked for the call run the others and send back
    each micro-batch's gradient and loss. The caller sums them in
    micro-batch order, as one process does, and every process takes the
    same step. Every process runs one BLAS thread (the caller's count is
    restored afterwards), so the result does not depend on the number of
    CPUs or on the host's BLAS thread setting. A helper that dies raises
    GridHealthError naming the epoch; on any exception the helpers are
    killed.
    """
    if len(data) < 2 * cfg.window:
        raise InsufficientData(
            f"dataset has {len(data)} hours; need at least {2 * cfg.window}"
        )
    split = split_windows(len(data), cfg)
    if not split.train:
        raise InsufficientData("no complete training window inside the train split")

    _retain_freed_heap()
    processes = _train_processes(cfg, split)
    run = _TrainRun(model, converter, data, cfg, split, processes)
    history, helpers, links = [], [], []
    with _one_blas_thread():
        try:
            links = _fork_workers(helpers, _train_helper,
                                  [(run, rank) for rank in range(1, processes)], duplex=True)
            for epoch in range(cfg.epochs):
                try:
                    history.append(run.epoch(epoch, links))
                except (EOFError, ConnectionError):
                    raise GridHealthError("a train helper process ended abruptly at epoch"
                                          f" {epoch}") from None
        finally:
            for link in links:
                link.close()
            _end_workers(helpers)
    return model, converter, history


@dataclass
class Evaluation:
    fuel_nmae: float
    internal_nmae: float
    external_nmae: float

    @property
    def health_nmae(self) -> float:
        return 0.5 * (self.internal_nmae + self.external_nmae)


# as for train: the callers' finite checks report an overflowing forecast
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def forecast_heldout(model: ForecastModel, converter: HealthConverterNet, mixes: np.ndarray,
                     test_fraction: float):
    """Forecasts over the held-out span, non-overlapping windows of `model.window`.

    Returns (pred_mixes, pred_impacts, rows): per-hour rows in time order,
    and the row of `mixes` each one forecasts, to index truths and stamps by.
    """
    t = model.window
    starts = _heldout_starts(len(mixes), t, test_fraction)
    if not starts:
        raise InsufficientData("test split holds no complete window")
    history = _window_rows(starts, t)
    with autodiff.no_grad():
        pred = model.forward_tensor(Tensor(mixes[history]), training=False)
        pred_imp = converter.forward_tensor(pred.reshape(-1, model.n_fuels))
    return pred.data.reshape(-1, model.n_fuels), pred_imp.data, (history + t).ravel()


def evaluate(model: ForecastModel, converter: HealthConverterNet, data: TrainingData,
             cfg: TrainConfig) -> Evaluation:
    """Held-out-test NMAE of mixes and impacts, non-overlapping windows."""
    pred_mixes, pred_impacts, rows = forecast_heldout(model, converter, data.mixes,
                                                      cfg.test_fraction)
    truth_impacts = data.impacts[rows]
    return Evaluation(
        fuel_nmae=nmae(pred_mixes, data.mixes[rows]),
        internal_nmae=nmae(pred_impacts[:, 0], truth_impacts[:, 0]),
        external_nmae=nmae(pred_impacts[:, 1], truth_impacts[:, 1]),
    )


def build_models(n_fuels: int, cfg: TrainConfig) -> tuple[ForecastModel, HealthConverterNet]:
    """Standard seeded construction used by training runs and sweeps."""
    model = ForecastModel(cfg.architecture, n_fuels, cfg.window, seed=cfg.seed)
    converter = HealthConverterNet(n_fuels, seed=cfg.seed + 1)
    return model, converter


_BLAS_THREAD_CALLS = tuple((f"{lib}_get_num_threads{suffix}", f"{lib}_set_num_threads{suffix}")
                           for lib in ("scipy_openblas", "openblas") for suffix in ("64_", ""))


@functools.cache
def _blas_thread_calls():
    """The (get, set) thread-count functions of the OpenBLAS that numpy loaded, or None."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split(maxsplit=5)[5].strip() for line in fh
                            if "openblas" in line})
        libraries = [ctypes.CDLL(path) for path in paths]
    except OSError:
        return None
    calls = next(((getattr(lib, get), getattr(lib, set_)) for lib in libraries
                  for get, set_ in _BLAS_THREAD_CALLS if hasattr(lib, get) and hasattr(lib, set_)),
                 None)
    if calls is not None:
        calls[0].argtypes, calls[0].restype = (), ctypes.c_int
        calls[1].argtypes, calls[1].restype = (ctypes.c_int,), None
    return calls


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with one BLAS thread, then restore the caller's count."""
    calls = _blas_thread_calls()
    if calls is None:
        yield
        return
    get, set_ = calls
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_in_worker = False      # set in every worker process this module forks
_forked = 0             # worker processes this process has forked


def forked_workers() -> int:
    """How many worker processes (sweep members, train helpers) this process has forked."""
    return _forked


def _worker_started() -> None:
    """Start-up of every worker process this module forks.

    The worker dies with its parent (Linux), leaves at once if the parent
    died before that took hold, ends on SIGTERM, ignores Ctrl-C (which
    reaches the whole process group; the parent ends its workers itself),
    runs one BLAS thread and forks no train helpers of its own.
    """
    import multiprocessing
    global _in_worker

    prctl = getattr(ctypes.CDLL(None), "prctl", None)
    if prctl is not None:
        prctl.argtypes, prctl.restype = (ctypes.c_int, ctypes.c_ulong), ctypes.c_int
        pr_set_pdeathsig = 1
        prctl(pr_set_pdeathsig, signal.SIGKILL)
    if os.getppid() != multiprocessing.parent_process().pid:
        os._exit(1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGTERM, signal.SIGINT})
    calls = _blas_thread_calls()    # cached by the parent before it forked
    if calls is not None:
        calls[1](1)
    _in_worker = True


def _fork_workers(workers: list, target, arg_tuples: list, duplex: bool) -> list:
    """Fork a worker running target(*args, end) for each of `arg_tuples`; return the pipe ends.

    Each worker is appended to `workers` and gets one end of its own pipe
    (`duplex` or one-way, worker to caller); the caller's ends come back in
    order. The worker's end is closed here, so a worker's death reads as
    EOF. SIGTERM and SIGINT are held while forking: one handled inside
    fork's at-fork callbacks would be reported there and lost.
    """
    import multiprocessing      # here, so that importing the package does not pay for it
    global _forked

    context = multiprocessing.get_context("fork")
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGTERM, signal.SIGINT})
    ends = []
    try:
        for args in arg_tuples:
            mine, theirs = context.Pipe(duplex)
            ends.append(mine)
            with theirs:
                worker = context.Process(target=target, args=(*args, theirs))
                worker.start()
            workers.append(worker)
            _forked += 1
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
    return ends


def _end_workers(workers: list) -> None:
    """Kill, reap and close each of `workers`, emptying the list; safe to repeat."""
    while workers:
        workers[-1].kill()      # a no-op for a worker already reaped
        workers[-1].join()
        workers.pop().close()


def _sweep_worker(data: TrainingData, cfg: TrainConfig, sender) -> None:
    """Train `cfg` in a forked worker; send its point, or its error, to `sender`."""
    _worker_started()
    try:
        model, converter = build_models(data.mixes.shape[1], cfg)
        model, converter, _ = train(model, converter, data, cfg)
        ev = evaluate(model, converter, data, cfg)
        sender.send(TradeoffPoint(cfg.beta, ev.fuel_nmae, ev.health_nmae))
    except Exception as exc:
        sender.send(exc)


def _wave_sizes(runs: int, cpus: int) -> list[int]:
    """Sizes of the waves in which to start `runs` equal runs on `cpus` CPUs.

    All at once if they fit; otherwise waves of `cpus` and a last one of
    `cpus` plus the remainder r, so no CPU idles while a run is left.
    Time-shared, that takes (q + r/cpus) run times, q = runs // cpus, never
    more than the ceil(runs/cpus) of a static share of the runs.
    """
    if runs <= cpus:
        return [runs]
    q, r = divmod(runs, cpus)
    return [cpus] * (q - 1) + [cpus + r]


def beta_sweep(data: TrainingData, betas: list[float], cfg: TrainConfig) -> list[TradeoffPoint]:
    """Independent training runs across beta on identical splits and seeds.

    Each sorted run trains in its own forked worker (one BLAS thread, no
    train helpers) and sends its point or error down its own pipe. Workers
    start in waves of `_wave_sizes(runs, n)`, n the usable CPUs (1 if
    numpy's OpenBLAS cannot be pinned); each wave is read in beta order and
    reaped before the next forks. An error is raised here as it was raised
    there, and a worker that dies raises GridHealthError naming its beta.
    On any exception, Ctrl-C included, the workers are killed.
    """
    betas = sorted(betas)
    repeated = next((a for a, b in zip(betas, betas[1:]) if a == b), None)
    if repeated is not None:
        raise GridHealthError(f"beta {repeated} is listed more than once")
    runs = [replace(cfg, beta=b) for b in betas]   # a bad beta fails before any training
    # also fills the cache that the forked workers read
    cpus = _usable_cpus() if _blas_thread_calls() else 1
    points, workers = [], []
    try:
        for size in _wave_sizes(len(runs), cpus):
            wave = runs[len(points):len(points) + size]
            receivers = _fork_workers(workers, _sweep_worker, [(data, run) for run in wave],
                                      duplex=False)
            for run, receiver in zip(wave, receivers):
                try:
                    points.append(receiver.recv())
                except EOFError:
                    raise GridHealthError("a sweep worker process ended abruptly"
                                          f" while training beta={run.beta}") from None
                if isinstance(points[-1], BaseException):
                    raise points[-1]
            _end_workers(workers)
        return points
    finally:
        _end_workers(workers)


# -- checkpointing -------------------------------------------------------------

CHECKPOINT_FORMAT = "gridhealth-checkpoint-v2"
_DTYPE = "<f8"
# the header of each network: its constructor's arguments, stored as its attributes
_MODEL_FIELDS = ("architecture", "n_fuels", "window", "embed_dim", "heads", "encoder_layers",
                 "decoder_layers", "ff_dim", "dropout", "seed")
_CONVERTER_FIELDS = ("n_fuels", "hidden", "seed")


def _encode(a: np.ndarray) -> dict:
    """One parameter as its dtype tag, shape and base64 of its C-order bytes."""
    raw = a.astype(_DTYPE, copy=False).tobytes()
    return {"dtype": _DTYPE, "shape": list(a.shape),
            "data": base64.b64encode(raw).decode("ascii")}


def save_checkpoint(path: str | Path, model: ForecastModel,
                    converter: HealthConverterNet) -> None:
    """Write both networks to a self-describing JSON container.

    The header is plain JSON; each parameter is stored as little-endian
    float64 bytes in base64, so a save and load round trip is exact.
    """
    payload = {
        "format": CHECKPOINT_FORMAT,
        "model": {k: getattr(model, k) for k in _MODEL_FIELDS},
        "converter": {k: getattr(converter, k) for k in _CONVERTER_FIELDS},
        "params": {k: _encode(v.data) for k, v in model.params.items()},
        "converter_params": {k: _encode(v.data) for k, v in converter.params.items()},
    }
    Path(path).write_text(json.dumps(payload, sort_keys=True))


def _decode(where: str, entry, shape: tuple) -> np.ndarray:
    """The array `_encode` stored in `entry`, checked to hold `shape` finite floats."""
    if not isinstance(entry, dict) or sorted(entry) != ["data", "dtype", "shape"]:
        raise CorruptCheckpoint(f"{where} must be an object with keys 'data', 'dtype', 'shape'")
    if entry["dtype"] != _DTYPE:
        raise CorruptCheckpoint(f"{where} has dtype {entry['dtype']!r}, expected {_DTYPE!r}")
    if entry["shape"] != list(shape):
        raise CorruptCheckpoint(f"{where} has shape {entry['shape']!r}, expected {list(shape)}")
    try:
        raw = base64.b64decode(entry["data"], validate=True)
    except (TypeError, ValueError) as exc:
        raise CorruptCheckpoint(f"{where} is not valid base64 ({exc})") from exc
    if len(raw) != math.prod(shape) * 8:
        raise CorruptCheckpoint(f"{where} holds {len(raw)} bytes, expected "
                                f"{math.prod(shape) * 8}")
    # astype copies, so the optimizer can update the array in place
    value = np.frombuffer(raw, dtype=_DTYPE).astype(np.float64).reshape(shape)
    if not np.isfinite(value).all():
        raise CorruptCheckpoint(f"{where} holds a non-finite value")
    return value


def _restore_params(path: str | Path, section: str, stored, params: dict[str, Tensor]) -> None:
    """Set each of `params` from the array of the same name and shape under `section`."""
    if not isinstance(stored, dict):
        raise CorruptCheckpoint(f"{path}: key {section!r} must map parameter names to arrays")
    unmatched = sorted(set(params) ^ set(stored))
    if unmatched:
        problem = "lacks" if unmatched[0] in params else "has unknown"
        raise CorruptCheckpoint(f"{path}: {section} {problem} parameter {unmatched[0]!r}")
    for name, tensor in params.items():
        tensor.data = _decode(f"{path}: {section} parameter {name!r}", stored[name],
                              tensor.data.shape)


def load_checkpoint(path: str | Path) -> tuple[ForecastModel, HealthConverterNet]:
    """Rebuild both networks from `save_checkpoint` output.

    Every parameter must be present under its exact name, dtype tag and
    shape, with exactly its byte count of finite values, and the converter
    must take the model's `n_fuels`; anything else raises CorruptCheckpoint
    naming the path and the key. Files of any other format, earlier
    versions included, are rejected.
    """
    try:
        payload = json.loads(Path(path).read_text())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CorruptCheckpoint(f"{path}: not a JSON checkpoint ({exc})") from exc
    if not isinstance(payload, dict) or payload.get("format") != CHECKPOINT_FORMAT:
        raise CorruptCheckpoint(f"{path}: key 'format' is not {CHECKPOINT_FORMAT!r}")
    try:
        model = ForecastModel(**{k: payload["model"][k] for k in _MODEL_FIELDS})
        converter = HealthConverterNet(**{k: payload["converter"][k] for k in _CONVERTER_FIELDS})
    except KeyError as exc:
        raise CorruptCheckpoint(f"{path}: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise CorruptCheckpoint(f"{path}: bad network description ({exc})") from exc
    if converter.n_fuels != model.n_fuels:
        raise CorruptCheckpoint(f"{path}: converter key 'n_fuels' is {converter.n_fuels!r},"
                                f" the model's is {model.n_fuels!r}")
    _restore_params(path, "params", payload.get("params"), model.params)
    _restore_params(path, "converter_params", payload.get("converter_params"), converter.params)
    return model, converter
