"""Fuel-mix forecasting with a health-weighted composite objective.

Two architectures share one interface: a small attention encoder-decoder
(embedding, one encoder and one decoder block, four attention heads) that
ends in a normalized-exponential map, and a linear baseline: one affine map
from the history's shares to the forecast's, fitted in closed form by ridge
regression, clipped at 0 and renormalized. Every emitted row is a
probability vector over fuels.

The composite objective weighs fuel-mix error against the error of the
monetized health impacts predicted from the forecast mix by a 3-layer
perceptron converter; `beta` near 1 is mix-driven, smaller `beta` is
health-driven. Training is plain SGD and fully deterministic given a seed.

`train` shares each batch's micro-batches among helper processes forked
for the call and adds their gradients in the order one process would;
each window's dropout masks depend on the batch alone, not on how it is
split. `beta_sweep` trains each member in a worker process of its own.
`workers` starts, links and ends both kinds of process.
"""

from __future__ import annotations

import base64
import itertools
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import autodiff, workers
from .autodiff import SGD, Tensor
from .errors import (
    BetaOutOfRange,
    CorruptCheckpoint,
    DivergedLoss,
    GridHealthError,
    InsufficientData,
    InvalidParams,
    ShapeMismatch,
    ShortHistory,
    ZeroNormalizer,
)
from .health import HealthSeries
from .ingest import FuelMixSeries, json_number, json_object

BETA_MAX = 0.998

ATTENTION = "attention_encoder_decoder"
LINEAR_BASELINE = "linear_baseline"

# the linear baseline's ridge penalty per training window
_RIDGE = 1e-3
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


def _skip(rng: np.random.Generator, draws: int) -> None:
    """Advance `rng` past `draws` doubles, keeping its buffered 32-bit draw.

    `advance` clears that buffer, which a later bounded integer draw (the
    next epoch's permutation) would otherwise have used.
    """
    if draws:
        bits = rng.bit_generator
        kept = bits.state
        bits.advance(draws)
        state = bits.state
        state["has_uint32"], state["uinteger"] = kept["has_uint32"], kept["uinteger"]
        bits.state = state


class _MaskRows:
    """The dropout keep-masks of windows a..b-1 of a batch of `windows` windows.

    A forward over the whole batch draws each mask from the batch's start
    `state` in forward order, one double per element of a PCG64 stream: a
    per-window mask of s elements per window takes windows·s draws, the
    rows of window i from draw offset + i·s on, and a mask the batch shares
    (`shared`: leading axis 1) takes s. Each mask of this micro-batch is
    drawn with `gen` from `state` advanced to where its rows begin, so every
    window sees the values a full-batch forward gives it, however the batch
    is split. `per_window` and `shared` count the draws of one forward.
    """

    def __init__(self, gen: np.random.Generator, state: dict, windows: int, a: int):
        self.gen, self.state, self.windows, self.a = gen, state, windows, a
        self.per_window = self.shared = 0

    def keep(self, shape, p: float, shared: bool) -> np.ndarray:
        size = math.prod(shape[1:])
        offset = self.windows * self.per_window + self.shared
        if shared:
            self.shared += size
        else:
            offset += self.a * size
            self.per_window += size
        self.gen.bit_generator.state = self.state
        self.gen.bit_generator.advance(offset)
        return self.gen.random(shape) >= p


def _dropout_mask(shape, p: float, training: bool, rng: np.random.Generator | _MaskRows | None,
                  shared: bool = False) -> np.ndarray | None:
    """Inverted-dropout mask of `shape`, or None when dropout is off.

    `shared` marks a mask of leading axis 1 that every window of the batch
    uses; a plain generator draws it like any other.
    """
    if not training or p <= 0.0 or rng is None:
        return None
    keep = rng.keep(shape, p, shared) if isinstance(rng, _MaskRows) else rng.random(shape) >= p
    return keep * (1 / (1 - p))


def _dropout(x: Tensor, p: float, training: bool, rng: np.random.Generator | _MaskRows | None,
             shared: bool = False) -> Tensor:
    mask = _dropout_mask(x.shape, p, training, rng, shared)
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
        if architecture == ATTENTION:
            # without a decoder block the forecast would ignore the history
            _check_sizes(1, decoder_layers=decoder_layers)
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
            self._init_linear()

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

    def _init_linear(self):
        # no gradient: `train` fits the map in closed form; unfitted, it forecasts a uniform mix
        tf = self.window * self.n_fuels
        self.params["lin_w"] = Tensor(np.zeros((tf, tf)))
        self.params["lin_b"] = Tensor(np.full(tf, 1.0 / self.n_fuels))

    def _fit_linear(self, hist: np.ndarray, target: np.ndarray) -> None:
        """Set `lin_w` to the ridge fit W of the `target` windows on the `hist` windows.

        Solves (XcᵀXc + λ·n·I) W = XcᵀYc on the n centred windows and sets `lin_b`
        to ȳ − x̄W. The intercept is not penalized, so each forecast hour sums to 1.
        """
        x, y = hist.reshape(len(hist), -1), target.reshape(len(target), -1)
        x_mean, y_mean = x.mean(axis=0), y.mean(axis=0)
        xc = x - x_mean
        w = np.linalg.solve(xc.T @ xc + _RIDGE * len(x) * np.eye(x.shape[1]),
                            xc.T @ (y - y_mean))
        self.params["lin_w"].data, self.params["lin_b"].data = w, y_mean - x_mean @ w

    # -- forward -------------------------------------------------------------

    def _mha(self, prefix, stage, q_in, k_in, v_in, training, rng, shared=False):
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
        mask = _dropout_mask(weights_shape, self.dropout, training, rng, shared)
        ctx = q.attention(k, v, 1.0 / math.sqrt(dk), mask)
        b, _, t, _ = ctx.shape
        ctx = ctx.transpose(0, 2, 1, 3).reshape(b, t, d)
        return ctx.linear(p[f"{prefix}_{stage}_wo"], p[f"{prefix}_{stage}_bo"])

    def _sublayer(self, prefix, stage, x, out, training, rng, shared=False):
        p = self.params
        mixed = x + _dropout(out, self.dropout, training, rng, shared)
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
        b, t, f = x.shape
        flat = x.data.reshape(b, t * f) @ self.params["lin_w"].data + self.params["lin_b"].data
        out = np.maximum(flat, 0.0).reshape(b, t, f)
        return Tensor(out / out.sum(axis=-1, keepdims=True))

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

        # until the first cross stage, the decoder runs on the batch-independent
        # query alone, so its masks are shared by the whole batch
        q = p["dec_query"].reshape(1, self.window, self.embed_dim)
        for i in range(self.decoder_layers):
            pre, shared = f"dec{i}", i == 0
            q = self._sublayer(pre, "self", q,
                               self._mha(pre, "self", q, q, q, training, rng, shared),
                               training, rng, shared)
            q = self._sublayer(pre, "cross", q,
                               self._mha(pre, "cross", q, memory, memory, training, rng),
                               training, rng)
            q = self._ff(pre, q, training, rng)

        logits = q.linear(p["out_w"], p["out_b"])
        return logits.softmax(axis=-1)


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


def _boundary(n_hours: int, test_fraction: float) -> int:
    """The first held-out row: the test span is the last int(n_hours * test_fraction) hours."""
    return n_hours - int(n_hours * test_fraction)


def split_windows(n_hours: int, cfg: TrainConfig) -> WindowSplit:
    """Carve train/val window start indices, time ordered.

    Train/val windows (history plus target, 2T hours) live entirely inside
    the leading (1 - test_fraction) span; validation is the final
    val_fraction of those windows.
    """
    starts = list(range(0, _boundary(n_hours, cfg.test_fraction) - 2 * cfg.window + 1))
    n_val = int(len(starts) * cfg.val_fraction)
    return WindowSplit(train=starts[: len(starts) - n_val], val=starts[len(starts) - n_val:])


def origins(n_hours: int, window: int, test_fraction: float) -> list[int]:
    """Start rows of the held-out forecasts, in time order.

    Their targets tile the test span in non-overlapping windows of `window`
    hours from the boundary on; a history may reach back across it. Raises
    InsufficientData when the span holds no complete window.
    """
    boundary = _boundary(n_hours, test_fraction)
    starts = [q - window for q in range(boundary, n_hours - window + 1, window) if q >= window]
    if not starts:
        raise InsufficientData(f"test split of {n_hours - boundary} hours holds no complete"
                               f" {window}-hour forecast window")
    return starts


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


def _near_equal(n: int, k: int) -> list[tuple[int, int]]:
    """`k` contiguous (lo, hi) ranges over 0..n-1, sizes within one of each other, larger first."""
    q, r = divmod(n, k)
    bounds = [i * q + min(i, r) for i in range(k + 1)]
    return list(zip(bounds, bounds[1:]))


def _micro_batches(windows: int, window: int) -> list[tuple[int, int]]:
    """Near-equal contiguous (lo, hi) ranges of a batch of `windows` windows, larger first.

    Each range holds at most `_MICRO_ROWS // window` windows, or one where
    that is fewer.
    """
    return _near_equal(windows, -(-windows // max(1, _MICRO_ROWS // window)))


def _shares(parts: list[tuple[int, int]], processes: int) -> list[list[tuple[int, int]]]:
    """The micro-batches `parts` of one batch as contiguous near-equal shares, larger first.

    One share per process, or per micro-batch where there are fewer.
    """
    return [parts[lo:hi] for lo, hi in _near_equal(len(parts), min(processes, len(parts)))]


class _TrainRun:
    """One `train` call as each of its processes holds it.

    The caller and its forked helpers start from the same parameters and the
    same `rng`, and every process draws the same permutation per epoch. Each
    draws its own share's rows of a batch's dropout masks from the batch's
    start state (`_MaskRows`), then advances `rng` past the whole batch's
    draws, as many as its first forward counted. So they agree on each
    batch's windows and masks without sending anything but float64 rows.
    """

    def __init__(self, model: ForecastModel, converter: HealthConverterNet, data: TrainingData,
                 cfg: TrainConfig, split: WindowSplit, processes: int):
        self.model, self.converter, self.cfg, self.split = model, converter, cfg, split
        self.processes = processes
        self.rng = np.random.default_rng(cfg.seed)
        self.masks = np.random.default_rng(0)   # its state is set before each draw
        self.draws = (0, 0)     # a forward's mask draws per window and shared
        # a linear baseline's map is fitted, not stepped: SGD takes what requires a gradient
        self.optimizer = SGD({**{f"m.{k}": v for k, v in model.params.items() if v.requires_grad},
                              **{f"c.{k}": v for k, v in converter.params.items()}},
                             lr=cfg.step_size)
        self.train_arrays = _gather(data, split.train, cfg.window)
        self.val_arrays = _gather(data, split.val, cfg.window) if split.val else None
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
        """(window indices, shares, generator state at its start) of each batch of one epoch.

        When the next batch is asked for, or the loop ends, `rng` is advanced
        past the batch's mask draws. Every process has a share of an epoch's
        first batch, the largest, so its first forward has counted them.
        """
        order = self.rng.permutation(len(self.split.train))
        for lo in range(0, len(order), self.cfg.batch_size):
            idx = order[lo:lo + self.cfg.batch_size]
            yield idx, self.shares(len(idx)), self.rng.bit_generator.state
            per_window, shared = self.draws
            _skip(self.rng, len(idx) * per_window + shared)

    def micro_loss(self, idx: np.ndarray, a: int, b: int, state: dict) -> Tensor:
        """The loss of the batch's windows idx[a:b], weighted by their share of the batch."""
        rows = _MaskRows(self.masks, state, len(idx), a)
        hist, target, impact = (x[idx[a:b]] for x in self.train_arrays)
        loss = _batch_loss(self.model, self.converter, hist, target, impact, self.cfg.beta,
                           training=True, rng=rows)
        self.draws = rows.per_window, rows.shared
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

    def share_rows(self, idx: np.ndarray, share: list[tuple[int, int]], state: dict, rows):
        """Run the micro-batches `share` of the batch `idx`, yielding one of `rows` for each.

        A row holds the micro-batch's flat leaf gradient, then its weighted
        loss. A non-finite loss ends the share: its row is yielded before
        any backward, with no gradient.
        """
        for (a, b), row in zip(share, rows):
            self.optimizer.zero_grad()
            loss = self.micro_loss(idx, a, b, state)
            row[-1] = float(loss.data)
            if not math.isfinite(row[-1]):
                yield row
                return
            loss.backward()
            for (lo, hi), p in zip(self.spans, self.optimizer.params.values()):
                row[lo:hi] = p.grad.reshape(-1)
            yield row

    def received(self, link, count: int):
        """Each of the next `count` rows a helper sends down `link`, read into `row`."""
        for _ in range(count):
            link.recv_bytes_into(self.row)
            yield self.row

    def step_by_total(self) -> None:
        """The optimizer step for the summed gradient in `total`."""
        for grad, p in zip(self.grads, self.optimizer.params.values()):
            p.grad = grad
        self.optimizer.step()

    def epoch(self, epoch: int, links: list) -> dict:
        """One epoch in the caller, with a link to each helper; returns its history row.

        The caller folds the rows of its own share, then each helper's, into
        `total` in micro-batch order. A parameter gets one gradient per
        backward, so that adds what leaf accumulation in one process adds.
        """
        losses = []
        for idx, shares, state in self.batches():
            rows = itertools.chain(
                self.share_rows(idx, shares[0], state, itertools.repeat(self.row)),
                *(self.received(link, len(share)) for link, share in zip(links, shares[1:])))
            value = 0.0
            self.total.fill(-0.0)       # -0.0 + x is x, for x = -0.0 too
            for row in rows:
                if not math.isfinite(row[-1]):
                    raise DivergedLoss(f"non-finite loss at epoch {epoch}")
                self.total += row[:-1]
                value += float(row[-1])
            for link in links:
                link.send_bytes(self.total)
            self.step_by_total()
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

    Runs its share of a batch into rows of its own, then sends them, so
    that it works while the caller runs the first share; takes the step
    whose summed gradient the caller sends back.
    """
    for _ in range(run.cfg.epochs):
        for idx, shares, state in run.batches():
            if rank < len(shares):
                rows = np.empty((len(shares[rank]), run.row.size))
                for row in list(run.share_rows(idx, shares[rank], state, rows)):
                    link.send_bytes(row)
            link.recv_bytes_into(run.total)
            run.step_by_total()
        if run.split.val:
            shares = run.shares(len(run.split.val))
            if rank < len(shares):
                link.send_bytes(np.array(run.val_parts(shares[rank])))


# a diverging run overflows; the finite checks on its losses report it, with no
# numpy warning before the named error
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def train(model: ForecastModel, converter: HealthConverterNet, data: TrainingData,
          cfg: TrainConfig) -> tuple[ForecastModel, HealthConverterNet, list[dict]]:
    """SGD training of the forecaster and converter, end to end.

    The health term's gradient flows through the converter into the mix
    predictor, so both learn jointly; a linear baseline's map is fitted in
    closed form first, and SGD trains its converter alone. Returns the
    models plus a per-epoch history of mean train loss and validation loss.

    Each batch runs forward and backward in `_micro_batches`, each loss
    weighted by its share of the batch, and their gradients are summed for
    its one optimizer step; `_MaskRows` gives every window the dropout
    masks a full-batch step would. Validation runs in the same chunks.
    Memory is one micro-batch's graph, so it barely grows with the batch.

    The micro-batches of each batch, and of validation, are split into
    `_shares` over `workers.capacity()` processes, at most one per
    micro-batch of the largest batch: the caller runs the first share and
    helpers forked for the call the others. The caller sums the gradients
    in micro-batch order and every process runs one BLAS thread, so the
    result does not depend on the number of CPUs. A helper that dies
    raises GridHealthError naming the epoch; on any exception the helpers
    are killed.
    """
    split = split_windows(len(data), cfg)
    if not split.train:
        raise InsufficientData(f"train split of {_boundary(len(data), cfg.test_fraction)} hours"
                               f" holds no complete {2 * cfg.window}-hour training window")

    workers.retain_freed_heap()
    largest = _micro_batches(min(cfg.batch_size, len(split.train)), cfg.window)
    processes = min(workers.capacity(), len(largest)) if cfg.epochs else 1
    run = _TrainRun(model, converter, data, cfg, split, processes)
    history = []
    with workers.one_blas_thread():
        if model.architecture == LINEAR_BASELINE:     # before the helpers fork, who inherit it
            model._fit_linear(*run.train_arrays[:2])
        with workers.forked(_train_helper, [(run, rank) for rank in range(1, processes)]) as links:
            for epoch in range(cfg.epochs):
                try:
                    history.append(run.epoch(epoch, links))
                except (EOFError, ConnectionError):
                    raise GridHealthError("a train helper process ended abruptly at epoch"
                                          f" {epoch}") from None
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
def forecast_at(model: ForecastModel, converter: HealthConverterNet, mixes: np.ndarray, starts):
    """The forecast of the `model.window` hours after each history mixes[s:s + model.window].

    Returns (pred_mixes, pred_impacts, rows): per-hour rows, start by start,
    and the row of `mixes` each one forecasts, to index truths and stamps by;
    a row may lie past the end of `mixes`. Dropout is off, so the forecast
    is a deterministic function of the parameters and the histories.
    """
    t = model.window
    history = _window_rows(starts, t)
    outside = history[(history[:, 0] < 0) | (history[:, -1] >= len(mixes))]
    if len(outside):
        raise ShortHistory(f"the forecast from row {outside[0, 0]} needs history rows"
                           f" {outside[0, 0]}..{outside[0, -1]}; mixes has {len(mixes)} rows")
    with autodiff.no_grad():
        pred = model.forward_tensor(Tensor(mixes[history]), training=False)
    pred_mixes = pred.data.reshape(-1, model.n_fuels)
    return pred_mixes, converter.predict(pred_mixes), (history + t).ravel()


def evaluate(model: ForecastModel, converter: HealthConverterNet, data: TrainingData,
             cfg: TrainConfig) -> Evaluation:
    """Held-out-test NMAE of mixes and impacts, forecast from `origins`."""
    pred_mixes, pred_impacts, rows = forecast_at(
        model, converter, data.mixes, origins(len(data), model.window, cfg.test_fraction))
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


def _sweep_worker(data: TrainingData, cfg: TrainConfig, link) -> None:
    """Train `cfg` in a forked worker; send its point, or its error, down `link`."""
    try:
        model, converter = build_models(data.mixes.shape[1], cfg)
        model, converter, _ = train(model, converter, data, cfg)
        ev = evaluate(model, converter, data, cfg)
        link.send(TradeoffPoint(cfg.beta, ev.fuel_nmae, ev.health_nmae))
    except Exception as exc:
        link.send(exc)


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

    Each sorted run trains in its own forked worker (no train helpers)
    and sends its point or error down its link. Workers start in waves of
    `_wave_sizes(runs, workers.capacity())`; each wave is read in beta
    order and ended before the next forks. An error is raised here as it
    was raised there, and a worker that dies raises GridHealthError naming
    its beta.
    """
    betas = sorted(betas)
    repeated = next((a for a, b in zip(betas, betas[1:]) if a == b), None)
    if repeated is not None:
        raise GridHealthError(f"beta {repeated} is listed more than once")
    runs = [replace(cfg, beta=b) for b in betas]   # a bad beta fails before any training
    origins(len(data), cfg.window, cfg.test_fraction)   # so does a test span with no window
    points = []
    for size in _wave_sizes(len(runs), workers.capacity()):
        wave = runs[len(points):len(points) + size]
        with workers.forked(_sweep_worker, [(data, run) for run in wave]) as links:
            for run, link in zip(wave, links):
                try:
                    points.append(link.recv())
                except EOFError:
                    raise GridHealthError("a sweep worker process ended abruptly"
                                          f" while training beta={run.beta}") from None
                if isinstance(points[-1], BaseException):
                    raise points[-1]
    return points


# -- checkpointing -------------------------------------------------------------

CHECKPOINT_FORMAT = "gridhealth-checkpoint-v4"
_DTYPE = "<f8"
# each network's header: its constructor's arguments but n_fuels, stored as its attributes,
# with the JSON kind each must have (str is left to the constructor's own check)
_MODEL_FIELDS = {"architecture": str, "window": int, "embed_dim": int, "heads": int,
                 "encoder_layers": int, "decoder_layers": int, "ff_dim": int, "dropout": float,
                 "seed": int}
_CONVERTER_FIELDS = {"hidden": int, "seed": int}
_TOP_KEYS = ("format", "fuels", "model", "converter", "params", "converter_params")


def _encode(a: np.ndarray) -> dict:
    """One parameter as its dtype tag, shape and base64 of its C-order bytes."""
    raw = a.astype(_DTYPE, copy=False).tobytes()
    return {"dtype": _DTYPE, "shape": list(a.shape),
            "data": base64.b64encode(raw).decode("ascii")}


def save_checkpoint(path: str | Path, model: ForecastModel, converter: HealthConverterNet,
                    fuels: tuple[str, ...]) -> None:
    """Write both networks and the names of their `fuels`, in order, to a JSON container.

    The header is plain JSON; each parameter is stored as little-endian
    float64 bytes in base64, so a save and load round trip is exact. A
    name count other than both networks' `n_fuels` raises ShapeMismatch.
    """
    if not len(fuels) == model.n_fuels == converter.n_fuels:
        raise ShapeMismatch(f"{len(fuels)} fuel names for a model of {model.n_fuels} fuels "
                            f"and a converter of {converter.n_fuels}")
    payload = {
        "format": CHECKPOINT_FORMAT,
        "fuels": list(fuels),
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


def _header(path: str | Path, payload: dict, section: str, fields: dict) -> dict:
    """The network arguments under `section`: exactly `fields`, numbers as `json_number` reads."""
    where = f"{path}: {section}"
    spec = json_object(where, payload[section], fields)
    return {k: spec[k] if kind is str else json_number(where, spec, k, kind)
            for k, kind in fields.items()}


def load_checkpoint(path: str | Path) -> tuple[ForecastModel, HealthConverterNet,
                                               tuple[str, ...]]:
    """Rebuild both networks from `save_checkpoint` output, with their fuel names.

    The file and each network header must hold exactly their keys
    (`json_object`), each header number a JSON number of its kind
    (`json_number`: `"heads": true` is not an integer), `fuels` a nonempty
    list of distinct strings, and every parameter must be present under its
    exact name, dtype tag and shape, with exactly its byte count of finite
    values; anything else raises CorruptCheckpoint naming the path and the
    key. Files of any other format, earlier versions included, are rejected.
    """
    try:
        payload = json.loads(Path(path).read_text())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CorruptCheckpoint(f"{path}: not a JSON checkpoint ({exc})") from exc
    if not isinstance(payload, dict) or payload.get("format") != CHECKPOINT_FORMAT:
        raise CorruptCheckpoint(f"{path}: key 'format' is not {CHECKPOINT_FORMAT!r}")
    try:
        json_object(path, payload, _TOP_KEYS)
        model_args = _header(path, payload, "model", _MODEL_FIELDS)
        converter_args = _header(path, payload, "converter", _CONVERTER_FIELDS)
    except InvalidParams as exc:
        raise CorruptCheckpoint(str(exc)) from exc
    fuels = payload["fuels"]
    if not (isinstance(fuels, list) and fuels and all(isinstance(f, str) for f in fuels)
            and len(set(fuels)) == len(fuels)):
        raise CorruptCheckpoint(f"{path}: key 'fuels' is not a nonempty list of distinct names")
    try:
        model = ForecastModel(n_fuels=len(fuels), **model_args)
        converter = HealthConverterNet(len(fuels), **converter_args)
    except ValueError as exc:
        raise CorruptCheckpoint(f"{path}: bad network description ({exc})") from exc
    _restore_params(path, "params", payload["params"], model.params)
    _restore_params(path, "converter_params", payload["converter_params"], converter.params)
    return model, converter, tuple(fuels)
