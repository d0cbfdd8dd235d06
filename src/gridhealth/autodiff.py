"""Minimal reverse-mode automatic differentiation over numpy arrays.

A `Tensor` wraps an ndarray and remembers how it was produced; calling
`backward()` on a scalar output walks the recorded graph in reverse
topological order and accumulates gradients into every tensor created
with `requires_grad=True`. The walk frees the graph as it goes, so each
graph supports one `backward()`. The operations are those the forecaster,
health converter, dispersion layer and training loss run, plus `@` and
`layer_norm`, which no model calls: the tests build the unfused composites
of `linear` and `layer_norm_affine` from them. An operation nothing runs
is not kept; a model that needs one adds it with its gradient check. The
forecaster's hot composites (`linear`, `gelu`, `layer_norm_affine`,
`attention`) are single nodes with hand-written backward passes.

All data is float64. Gradients of broadcast operands are summed back to
the operand's shape, so biases and per-feature scales behave like their
full-rank counterparts.
"""

from __future__ import annotations

import math
import threading

import numpy as np

from .errors import GraphReleased, NonFiniteValue


class _GradMode(threading.local):
    enabled = True      # per thread: `no_grad` in one thread leaves the others recording


_grad_mode = _GradMode()

_GELU_C = math.sqrt(2.0 / math.pi)


def _released(g):
    """Marks a node whose backward already ran and whose graph is freed."""
    raise GraphReleased("this graph was freed by an earlier backward()")


class no_grad:
    """Context manager that disables graph construction (inference mode) in this thread."""

    def __enter__(self):
        self._prev = _grad_mode.enabled
        _grad_mode.enabled = False
        return self

    def __exit__(self, *exc):
        _grad_mode.enabled = self._prev
        return False


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` over the axes numpy broadcasting added or expanded."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A node in the computation graph: values, optional grad, provenance."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    # -- graph bookkeeping --------------------------------------------------

    @staticmethod
    def _make(data, parents, backward):
        track = _grad_mode.enabled and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=track)
        if track:
            out._parents = parents
            out._backward = backward
        return out

    def _accumulate(self, g: np.ndarray):
        # the first contribution is stored borrowed (no copy); each later one
        # makes a fresh sum, so an aliased buffer is never mutated
        self.grad = g if self.grad is None else self.grad + g

    def backward(self):
        """Backpropagate from this scalar; accumulates into `.grad` fields.

        Each interior node is released once its own backward has run: it
        drops its parents, its closure and its `.grad`, so activations are
        freed as the walk proceeds. Leaf gradients are kept. A second
        backward through a released node raises `GraphReleased`.
        """
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar output")
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            if node._backward is _released:
                raise GraphReleased("backward() through a graph an earlier backward() freed")
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))
        self._accumulate(np.ones_like(self.data))
        while topo:
            node = topo.pop()
            if node._backward is None:
                continue
            if node.grad is not None:
                node._backward(node.grad)
            node._parents = ()
            node._backward = _released
            node.zero_grad()

    def zero_grad(self):
        self.grad = None

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    def __add__(self, other):
        other = self._coerce(other)
        a, b = self, other

        def back(g):
            if a.requires_grad:
                a._accumulate(_unbroadcast(g, a.data.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(g, b.data.shape))

        return Tensor._make(a.data + b.data, (a, b), back)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        a, b = self, other

        def back(g):
            if a.requires_grad:
                a._accumulate(_unbroadcast(g, a.data.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(-g, b.data.shape))

        return Tensor._make(a.data - b.data, (a, b), back)

    def __mul__(self, other):
        other = self._coerce(other)
        a, b = self, other
        ad, bd = a.data, b.data

        def back(g):
            if a.requires_grad:
                a._accumulate(_unbroadcast(g * bd, ad.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(g * ad, bd.shape))

        return Tensor._make(ad * bd, (a, b), back)

    __rmul__ = __mul__

    def __matmul__(self, other):
        other = self._coerce(other)
        a, b = self, other
        ad, bd = a.data, b.data

        if ad.ndim > 2 and bd.ndim == 2:
            # stacked @ weight: collapse to one large GEMM in both passes
            lead = ad.shape[:-1]
            a2 = ad.reshape(-1, ad.shape[-1])
            out = (a2 @ bd).reshape(*lead, bd.shape[-1])

            def back(g):
                g2 = g.reshape(-1, bd.shape[-1])
                if a.requires_grad:
                    a._accumulate((g2 @ bd.T).reshape(ad.shape))
                if b.requires_grad:
                    b._accumulate(a2.T @ g2)

            return Tensor._make(out, (a, b), back)

        def back(g):
            if a.requires_grad:
                a._accumulate(_unbroadcast(g @ bd.swapaxes(-1, -2), ad.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(ad.swapaxes(-1, -2) @ g, bd.shape))

        return Tensor._make(ad @ bd, (a, b), back)

    # -- shape ops -----------------------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        a = self
        orig = a.data.shape

        def back(g):
            a._accumulate(g.reshape(orig))

        return Tensor._make(a.data.reshape(shape), (a,), back)

    def transpose(self, *axes):
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        a = self
        inverse = tuple(np.argsort(axes))

        def back(g):
            a._accumulate(g.transpose(inverse))

        return Tensor._make(a.data.transpose(axes), (a,), back)

    # -- reductions ----------------------------------------------------------

    def sum(self, axis=None):
        a = self
        shape = a.data.shape

        def back(g):
            if axis is not None:
                g = np.expand_dims(g, axis)
            a._accumulate(np.broadcast_to(g, shape).copy())

        return Tensor._make(a.data.sum(axis=axis), (a,), back)

    def mean(self):
        """Mean over the whole array."""
        a = self
        shape = a.data.shape

        def back(g):
            a._accumulate(np.broadcast_to(g, shape) / a.data.size)

        return Tensor._make(a.data.mean(), (a,), back)

    # -- elementwise nonlinearities -------------------------------------------

    def tanh(self):
        a = self
        out_data = np.tanh(a.data)

        def back(g):
            a._accumulate(g * (1.0 - out_data * out_data))

        return Tensor._make(out_data, (a,), back)

    def softplus(self):
        a = self
        ad = a.data

        def back(g):
            a._accumulate(g / (1.0 + np.exp(-ad)))

        return Tensor._make(np.logaddexp(0.0, ad), (a,), back)

    def softmax(self, axis=-1):
        a = self
        shifted = a.data - a.data.max(axis=axis, keepdims=True)
        e = np.exp(shifted)
        out_data = e / e.sum(axis=axis, keepdims=True)

        def back(g):
            dot = (g * out_data).sum(axis=axis, keepdims=True)
            a._accumulate(out_data * (g - dot))

        return Tensor._make(out_data, (a,), back)

    def layer_norm(self, eps: float = 1e-5):
        """Normalize the last axis to zero mean, unit variance."""
        a = self
        mu = a.data.mean(axis=-1, keepdims=True)
        var = a.data.var(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt(var + eps)
        y = (a.data - mu) * inv

        def back(g):
            gy = (g * y).mean(axis=-1, keepdims=True)
            gm = g.mean(axis=-1, keepdims=True)
            a._accumulate(inv * (g - gm - y * gy))

        return Tensor._make(y, (a,), back)

    # -- fused nodes ---------------------------------------------------------
    # Each forward performs the same float operations as the composite it
    # replaces, so values are bit-identical; the backward passes keep only
    # what they need instead of every intermediate.

    def linear(self, w: "Tensor", b: "Tensor | None" = None) -> "Tensor":
        """`self @ w + b` for a 2-D weight `w` and an optional bias row `b`."""
        x = self
        xd, wd = x.data, w.data
        x2 = xd.reshape(-1, xd.shape[-1])
        out = x2 @ wd
        if b is not None:
            out += b.data

        def back(g):
            g2 = g.reshape(-1, wd.shape[-1])
            if x.requires_grad:
                x._accumulate((g2 @ wd.T).reshape(xd.shape))
            if w.requires_grad:
                w._accumulate(x2.T @ g2)
            if b is not None and b.requires_grad:
                b._accumulate(_unbroadcast(g, b.data.shape))

        parents = (x, w) if b is None else (x, w, b)
        return Tensor._make(out.reshape(*xd.shape[:-1], wd.shape[-1]), parents, back)

    def gelu(self):
        """Tanh-form GELU: x/2 * (1 + tanh(sqrt(2/pi) * (x + 0.044715 x^3)))."""
        a = self
        xd = a.data
        th = xd * xd
        th *= xd
        th *= 0.044715
        th += xd
        th *= _GELU_C
        np.tanh(th, out=th)
        out = xd * 0.5
        out *= th + 1.0

        def back(g):
            dx = xd * xd
            dx *= 3.0 * 0.044715
            dx += 1.0
            dx *= _GELU_C
            dx *= 1.0 - th * th
            dx *= xd
            dx += th
            dx += 1.0
            dx *= 0.5
            dx *= g
            a._accumulate(dx)

        return Tensor._make(out, (a,), back)

    def layer_norm_affine(self, gain: "Tensor", bias: "Tensor", eps: float = 1e-5):
        """`layer_norm(eps) * gain + bias` over the last axis."""
        a = self
        gd = gain.data
        mu = a.data.mean(axis=-1, keepdims=True)
        var = a.data.var(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt(var + eps)
        y = a.data - mu
        y *= inv
        out = y * gd
        out += bias.data

        def back(g):
            if gain.requires_grad:
                gain._accumulate(_unbroadcast(g * y, gd.shape))
            if bias.requires_grad:
                bias._accumulate(_unbroadcast(g, bias.data.shape))
            if a.requires_grad:
                gy = g * gd
                gyy = (gy * y).mean(axis=-1, keepdims=True)
                gm = gy.mean(axis=-1, keepdims=True)
                a._accumulate(inv * (gy - gm - y * gyy))

        return Tensor._make(out, (a, gain, bias), back)

    def attention(self, k: "Tensor", v: "Tensor", scale: float, mask=None) -> "Tensor":
        """Scaled dot-product attention `softmax(self @ k^T * scale) @ v`.

        `mask`, if given, multiplies the attention weights (inverted
        dropout) and has their broadcast shape. Leading axes broadcast, so
        a batch-1 query attends over batch-B keys and its gradient is
        summed back over B.
        """
        q = self
        qd, kd, vd = q.data, k.data, v.data
        kt = kd.swapaxes(-1, -2)
        p = qd @ kt
        p *= scale
        p -= p.max(axis=-1, keepdims=True)
        np.exp(p, out=p)
        p /= p.sum(axis=-1, keepdims=True)
        out = (p if mask is None else p * mask) @ vd

        def back(g):
            w = p if mask is None else p * mask
            if v.requires_grad:
                v._accumulate(_unbroadcast(w.swapaxes(-1, -2) @ g, vd.shape))
            gw = g @ vd.swapaxes(-1, -2)
            if mask is not None:
                gw *= mask
            gs = p * (gw - (gw * p).sum(axis=-1, keepdims=True))
            gs *= scale
            if q.requires_grad:
                q._accumulate(_unbroadcast(gs @ kd, qd.shape))
            if k.requires_grad:
                k._accumulate(_unbroadcast(qd.swapaxes(-1, -2) @ gs, kt.shape).swapaxes(-1, -2))

        return Tensor._make(out, (q, k, v), back)


def parameter(shape, rng: np.random.Generator, scale: float | None = None) -> Tensor:
    """A trainable tensor of `shape`, drawn uniform in [-scale, scale].

    Without `scale`, the draw is Glorot-uniform over the last two axes.
    """
    shape = tuple(shape)
    if scale is None:
        fan_in = shape[-2] if len(shape) >= 2 else shape[-1]
        scale = np.sqrt(6.0 / (fan_in + shape[-1]))
    return Tensor(rng.uniform(-scale, scale, size=shape), requires_grad=True)


def grad_check(f, x: Tensor, eps: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    `f` maps the tensor `x` (perturbed in place) to a scalar Tensor. The
    relative error at each coordinate is
    |analytic - numeric| / max(|analytic|, |numeric|, 1e-12).
    """
    was = x.requires_grad
    x.requires_grad = True
    x.zero_grad()
    out = f(x)
    if out.data.size != 1:
        raise ValueError("grad_check target must be scalar")
    if not np.isfinite(out.data).all():
        raise NonFiniteValue("objective is not finite at x")
    out.backward()
    analytic = (x.grad if x.grad is not None else np.zeros_like(x.data)).copy()

    flat = x.data.reshape(-1)
    numeric = np.zeros_like(flat)
    with no_grad():
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            f_plus = float(f(x).data)
            flat[i] = orig - eps
            f_minus = float(f(x).data)
            flat[i] = orig
            if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                raise NonFiniteValue(f"objective not finite at perturbed coordinate {i}")
            numeric[i] = (f_plus - f_minus) / (2.0 * eps)
    numeric = numeric.reshape(x.data.shape)
    x.requires_grad = was
    x.zero_grad()

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-12)
    return float((np.abs(analytic - numeric) / denom).max())


class SGD:
    """Plain stochastic gradient descent over a parameter dict."""

    def __init__(self, params: dict[str, Tensor], lr: float):
        self.params = params
        self.lr = lr

    def zero_grad(self):
        for p in self.params.values():
            p.zero_grad()

    def step(self):
        for p in self.params.values():
            if p.grad is not None:
                p.data -= self.lr * p.grad


class Adam:
    """Adam optimizer; used where plain SGD conditions poorly."""

    def __init__(self, params: dict[str, Tensor], lr: float,
                 betas=(0.9, 0.999), eps: float = 1e-8):
        self.params = params
        self.lr = lr
        self.b1, self.b2 = betas
        self.eps = eps
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def zero_grad(self):
        for p in self.params.values():
            p.zero_grad()

    def step(self):
        self.t += 1
        for k, p in self.params.items():
            if p.grad is None:
                continue
            self.m[k] = self.b1 * self.m[k] + (1 - self.b1) * p.grad
            self.v[k] = self.b2 * self.v[k] + (1 - self.b2) * p.grad ** 2
            mhat = self.m[k] / (1 - self.b1 ** self.t)
            vhat = self.v[k] / (1 - self.b2 ** self.t)
            p.data -= self.lr * mhat / (np.sqrt(vhat) + self.eps)
