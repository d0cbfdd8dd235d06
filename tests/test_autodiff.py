"""Gradient engine: every differentiable op checks against central differences."""

import math
import weakref

import numpy as np
import pytest

from gridhealth.autodiff import SGD, Adam, Tensor, grad_check, no_grad
from gridhealth.errors import GraphReleased, NonFiniteValue

rng = np.random.default_rng(42)

W42 = Tensor(rng.normal(size=(4, 2)))
P34 = Tensor(rng.normal(size=(3, 4)))
A4 = Tensor(rng.normal(size=(2, 3, 4, 5)))

OPS = [
    ("add", lambda t: (t + P34).sum(), (3, 4)),
    ("radd_scalar", lambda t: (2.5 + t).sum(), (3, 4)),
    ("sub", lambda t: ((t - P34) * (t - P34)).sum(), (3, 4)),
    ("rsub", lambda t: ((1.0 - t) * (1.0 - t)).sum(), (3, 4)),
    ("neg", lambda t: ((-t) * P34).sum(), (3, 4)),
    ("mul", lambda t: (t * P34).sum(), (3, 4)),
    ("div", lambda t: (P34 / (t * t + 1.5)).sum(), (3, 4)),
    ("pow_int", lambda t: (t ** 3.0).sum(), (6,)),
    ("pow_frac", lambda t: ((t * t + 1.0) ** 0.6).sum(), (6,)),
    ("matmul_2d", lambda t: ((t @ W42) ** 2.0).sum(), (3, 4)),
    ("matmul_3d_2d", lambda t: ((t @ W42) ** 2.0).sum(), (5, 3, 4)),
    ("matmul_4d_4d", lambda t: ((A4 @ t) ** 2.0).sum(), (2, 3, 5, 6)),
    ("exp", lambda t: (t * 0.3).exp().sum(), (6,)),
    ("log", lambda t: (t * t + 1.2).log().sum(), (6,)),
    ("sqrt", lambda t: (t * t + 0.5).sqrt().sum(), (6,)),
    ("tanh", lambda t: t.tanh().sum(), (6,)),
    ("softplus", lambda t: t.softplus().sum(), (6,)),
    ("softmax", lambda t: (t.softmax(-1) * P34).sum(), (3, 4)),
    ("layer_norm", lambda t: (t.layer_norm() * P34).sum(), (3, 4)),
    ("sum_axis", lambda t: (t.sum(axis=1) ** 2.0).sum(), (3, 4)),
    ("sum_axes", lambda t: (t.sum(axis=(0, 1)) ** 2.0).sum(), (2, 3, 4)),
    ("mean_axis", lambda t: (t.mean(axis=0) ** 2.0).sum(), (3, 4)),
    ("mean_all", lambda t: (t * t).mean(), (3, 4)),
    ("reshape", lambda t: (t.reshape(2, 6) @ Tensor(rng.normal(size=(6, 1)) * 0 + 0.7)).sum(), (3, 4)),
    ("transpose", lambda t: ((t.transpose(1, 0) @ P34) ** 2.0).sum(), (3, 4)),
    ("broadcast_bias", lambda t: ((P34 + t) ** 2.0).sum(), (4,)),
]

# Operands of the fused nodes; their own generator leaves the draws above as they were.
frng = np.random.default_rng(11)
X234 = Tensor(frng.normal(size=(2, 3, 4)))
W45 = Tensor(frng.normal(size=(4, 5)))
B5 = Tensor(frng.normal(size=(5,)))
R235 = Tensor(frng.normal(size=(2, 3, 5)))
G4 = Tensor(frng.normal(size=(4,)))
B4 = Tensor(frng.normal(size=(4,)))
R234 = Tensor(frng.normal(size=(2, 3, 4)))
Q = Tensor(frng.normal(size=(3, 2, 4, 5)))       # (batch, heads, queries, dk)
K = Tensor(frng.normal(size=(3, 2, 6, 5)))       # (batch, heads, keys, dk)
V = Tensor(frng.normal(size=(3, 2, 6, 5)))
Q1 = Tensor(frng.normal(size=(1, 2, 4, 5)))      # one query batch against three key batches
MASK = (frng.random((3, 2, 4, 6)) >= 0.3) * (1 / (1 - 0.3))
R_ATT = Tensor(frng.normal(size=(3, 2, 4, 5)))
SCALE = 1.0 / math.sqrt(5)

OPS += [
    ("linear_x", lambda t: (t.linear(W45, B5) * R235).sum(), (2, 3, 4)),
    ("linear_w", lambda t: (X234.linear(t, B5) ** 2.0).sum(), (4, 5)),
    ("linear_b", lambda t: (X234.linear(W45, t) ** 2.0).sum(), (5,)),
    ("linear_2d", lambda t: (t.linear(W45, B5) ** 2.0).sum(), (3, 4)),
    ("gelu", lambda t: (t.gelu() * P34).sum(), (3, 4)),
    ("layer_norm_affine_x", lambda t: (t.layer_norm_affine(G4, B4) * R234).sum(), (2, 3, 4)),
    ("layer_norm_affine_gain",
     lambda t: (X234.layer_norm_affine(t, B4) * R234).sum(), (4,)),
    ("layer_norm_affine_bias",
     lambda t: (X234.layer_norm_affine(G4, t) ** 2.0).sum(), (4,)),
    ("attention_q", lambda t: (t.attention(K, V, SCALE) * R_ATT).sum(), (3, 2, 4, 5)),
    ("attention_k", lambda t: (Q.attention(t, V, SCALE) * R_ATT).sum(), (3, 2, 6, 5)),
    ("attention_v", lambda t: (Q.attention(K, t, SCALE) * R_ATT).sum(), (3, 2, 6, 5)),
    ("attention_masked_q",
     lambda t: (t.attention(K, V, SCALE, MASK) * R_ATT).sum(), (3, 2, 4, 5)),
    ("attention_masked_k",
     lambda t: (Q.attention(t, V, SCALE, MASK) * R_ATT).sum(), (3, 2, 6, 5)),
    ("attention_masked_v",
     lambda t: (Q.attention(K, t, SCALE, MASK) * R_ATT).sum(), (3, 2, 6, 5)),
    ("attention_batch1_q",
     lambda t: (t.attention(K, V, SCALE, MASK) * R_ATT).sum(), (1, 2, 4, 5)),
    ("attention_batch1_k",
     lambda t: (Q1.attention(t, V, SCALE, MASK) * R_ATT).sum(), (3, 2, 6, 5)),
    ("linear_nobias_x", lambda t: (t.linear(W45) * R235).sum(), (2, 3, 4)),
    ("linear_nobias_w", lambda t: (X234.linear(t) ** 2.0).sum(), (4, 5)),
    ("linear_nobias_2d", lambda t: (t.linear(W45) ** 2.0).sum(), (3, 4)),
]


@pytest.mark.parametrize("name,f,shape", OPS, ids=[o[0] for o in OPS])
def test_op_gradients(name, f, shape):
    x = rng.normal(size=shape)
    assert grad_check(f, Tensor(x)) < 1e-4


def test_grad_check_quadratic_hand_values():
    # f(x) = sum x^2 at (1, 2): analytic gradient (2, 4)
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    out = (x * x).sum()
    out.backward()
    np.testing.assert_allclose(x.grad, [2.0, 4.0], rtol=1e-12)
    assert grad_check(lambda t: (t * t).sum(), Tensor([1.0, 2.0])) < 1e-6


def test_grad_check_constant_function():
    c = Tensor(np.array(3.0))
    assert grad_check(lambda t: (t * 0.0).sum() + c.sum(), Tensor([1.0, -2.0])) < 1e-12


def test_shared_subgraph_accumulation():
    # q = (x + y) * (x + 1): dq/dx = (x + y) + (x + 1), dq/dy = x + 1
    x = Tensor(np.array(2.0), requires_grad=True)
    y = Tensor(np.array(-4.0), requires_grad=True)
    q = (x + y) * (x + 1.0)
    q.backward()
    assert q.data == -6.0
    assert x.grad == 1.0
    assert y.grad == 3.0


def test_same_tensor_both_operands():
    x = Tensor(np.array([3.0]), requires_grad=True)
    (x * x).sum().backward()
    assert x.grad[0] == 6.0


def test_broadcast_backward_shapes():
    b = Tensor(np.zeros(4), requires_grad=True)
    big = Tensor(np.ones((5, 4)))
    (big + b).sum().backward()
    np.testing.assert_array_equal(b.grad, np.full(4, 5.0))


def test_backward_requires_scalar():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ValueError):
        (x * 2.0).backward()


def test_no_grad_blocks_graph():
    x = Tensor(np.ones(3), requires_grad=True)
    with no_grad():
        y = (x * 2.0).sum()
    assert y._backward is None and not y.requires_grad


def test_grad_check_rejects_nonfinite():
    with np.errstate(invalid="ignore"):
        with pytest.raises(NonFiniteValue):
            grad_check(lambda t: t.log().sum(), Tensor([-1.0]))


def test_sgd_step_and_zero_grad():
    p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    opt = SGD({"p": p}, lr=0.1)
    (p * p).sum().backward()
    opt.step()
    np.testing.assert_allclose(p.data, [1.0 - 0.1 * 2.0, 2.0 - 0.1 * 4.0])
    opt.zero_grad()
    assert p.grad is None


def test_adam_zero_gradient_no_movement():
    p = Tensor(np.array([1.0]), requires_grad=True)
    opt = Adam({"p": p}, lr=0.5)
    (p * 0.0).sum().backward()
    opt.step()
    assert p.data[0] == 1.0


def _gelu_composite(x):
    inner = (x + x * x * x * 0.044715) * math.sqrt(2.0 / math.pi)
    return x * 0.5 * (inner.tanh() + 1.0)


def _attention_composite(q, k, v, scale, mask=None):
    weights = ((q @ k.transpose(0, 1, 3, 2)) * scale).softmax(axis=-1)
    if mask is not None:
        weights = weights * Tensor(mask)
    return weights @ v


MASK_644 = (frng.random((6, 4, 24, 24)) >= 0.1) * (1 / (1 - 0.1))

FUSED = [
    ("linear_3d", lambda x, w, b: x.linear(w, b), lambda x, w, b: x @ w + b,
     [(16, 24, 8), (8, 12), (12,)]),
    ("linear_2d", lambda x, w, b: x.linear(w, b), lambda x, w, b: x @ w + b,
     [(40, 8), (8, 12), (12,)]),
    ("linear_nobias", lambda x, w: x.linear(w), lambda x, w: x @ w, [(16, 24, 8), (8, 12)]),
    ("gelu", lambda x: x.gelu(), _gelu_composite, [(16, 24, 8)]),
    ("layer_norm_affine", lambda x, g, b: x.layer_norm_affine(g, b),
     lambda x, g, b: x.layer_norm() * g + b, [(16, 24, 8), (8,), (8,)]),
    ("attention", lambda q, k, v: q.attention(k, v, 0.5),
     lambda q, k, v: _attention_composite(q, k, v, 0.5),
     [(6, 4, 24, 16), (6, 4, 24, 16), (6, 4, 24, 16)]),
    ("attention_masked", lambda q, k, v: q.attention(k, v, 0.25, MASK_644),
     lambda q, k, v: _attention_composite(q, k, v, 0.25, MASK_644),
     [(6, 4, 24, 16), (6, 4, 24, 16), (6, 4, 24, 16)]),
    ("attention_batch1_query", lambda q, k, v: q.attention(k, v, 0.25, MASK_644),
     lambda q, k, v: _attention_composite(q, k, v, 0.25, MASK_644),
     [(1, 4, 24, 16), (6, 4, 24, 16), (6, 4, 24, 16)]),
]


@pytest.mark.parametrize("name,fused,composite,shapes", FUSED, ids=[f[0] for f in FUSED])
def test_fused_matches_composite(name, fused, composite, shapes):
    # forward values are bit-identical; only the backward summation order may differ
    local = np.random.default_rng(5)
    arrays = [local.normal(size=s) for s in shapes]

    def run(build):
        inputs = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        out = build(*inputs)
        upstream = np.random.default_rng(6).normal(size=out.shape)
        (out * Tensor(upstream)).sum().backward()
        return out.data, [t.grad for t in inputs]

    out_f, grad_f = run(fused)
    out_c, grad_c = run(composite)
    np.testing.assert_array_equal(out_f, out_c)
    for gf, gc in zip(grad_f, grad_c):
        assert gf.shape == gc.shape
        np.testing.assert_allclose(gf, gc, rtol=1e-12, atol=0)


def test_backward_releases_graph_and_keeps_leaf_grads():
    x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    hidden = x * 3.0
    probe = weakref.ref(hidden.data)
    loss = (hidden * hidden).sum()
    del hidden
    assert probe() is not None          # the graph still holds the activation
    loss.backward()
    assert probe() is None              # freed by backward, not by the caller
    np.testing.assert_array_equal(x.grad, 18.0 * x.data)
    assert loss.grad is None and loss._parents == ()
    with pytest.raises(GraphReleased):
        loss.backward()
    np.testing.assert_array_equal(x.grad, 18.0 * x.data)


def test_backward_through_freed_subgraph_raises():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    shared = x * 2.0
    first, second = shared.sum(), (shared * shared).sum()
    first.backward()
    np.testing.assert_array_equal(x.grad, [2.0, 2.0])
    with pytest.raises(GraphReleased):
        second.backward()
    np.testing.assert_array_equal(x.grad, [2.0, 2.0])

