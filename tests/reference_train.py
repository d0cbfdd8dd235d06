"""Full-batch reference for `forecaster.train`.

`train_full_batch` is the training loop as it was before micro-batches:
each SGD batch runs one forward over all its windows, drawing its dropout
masks straight from the generator, and one backward; validation is one
forward over every validation window. The equivalence tests in
test_forecaster.py run it beside `train`, which must give `==` parameters
where a batch fits one micro-batch and agree to rounding elsewhere. Like
`train`, it runs with one BLAS thread.
"""

from __future__ import annotations

import math

import numpy as np

from gridhealth import autodiff
from gridhealth.autodiff import SGD
from gridhealth.errors import DivergedLoss
from gridhealth.forecaster import _batch_loss, _gather, split_windows
from gridhealth.workers import one_blas_thread


def train_full_batch(model, converter, data, cfg):
    """`train` with one forward and one backward per batch; returns what `train` returns."""
    with one_blas_thread():
        return _train_full_batch(model, converter, data, cfg)


def _train_full_batch(model, converter, data, cfg):
    split = split_windows(len(data), cfg)
    rng = np.random.default_rng(cfg.seed)
    optimizer = SGD({**{f"m.{k}": v for k, v in model.params.items()},
                     **{f"c.{k}": v for k, v in converter.params.items()}},
                    lr=cfg.step_size)
    t = cfg.window
    train_hist, train_target, train_impact = _gather(data, split.train, t)
    if split.val:
        val_hist, val_target, val_impact = _gather(data, split.val, t)

    history = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(split.train))
        losses = []
        for lo in range(0, len(order), cfg.batch_size):
            idx = order[lo:lo + cfg.batch_size]
            loss = _batch_loss(model, converter, train_hist[idx], train_target[idx],
                               train_impact[idx], cfg.beta, training=True, rng=rng)
            value = float(loss.data)
            if not math.isfinite(value):
                raise DivergedLoss(f"non-finite loss at epoch {epoch}")
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
            losses.append(value)
        if split.val:
            with autodiff.no_grad():
                val_loss = float(_batch_loss(model, converter, val_hist, val_target,
                                             val_impact, cfg.beta).data)
        else:
            val_loss = float(np.mean(losses))
        history.append({"epoch": epoch, "train_loss": float(np.mean(losses)),
                        "val_loss": val_loss})
    return model, converter, history
