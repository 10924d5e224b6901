"""Tape ops that only the tests use: trainable leaves, the matmul, scale,
transpose, row-gather, shape, batched-matmul and softmax ops of the
padded-attention and composition oracles and the numerics tests, and the
attention op as it was before its in-place kernel."""

import math
from typing import Sequence

import numpy as np

from smoe.errors import ShapeError
from smoe.numerics import Tensor, record_op


def parameter(data) -> Tensor:
    """A trainable leaf tensor of `data`."""
    return Tensor(data, requires_grad=True)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """y = a @ b for 2-D a and b. Backward: da = g @ b^T, db = a^T @ g."""
    ad, bd = a.data, b.data
    if ad.ndim != 2 or bd.ndim != 2 or ad.shape[1] != bd.shape[0]:
        raise ShapeError(f"matmul needs 2-D operands with matching inner dims: "
                         f"{ad.shape} x {bd.shape}")
    out = Tensor(ad @ bd, requires_grad=a.requires_grad or b.requires_grad)

    def grad_fn(g: np.ndarray):
        return [(a, g @ bd.T), (b, ad.T @ g)]

    return record_op(out, grad_fn)


def scale(a: Tensor, factor: float) -> Tensor:
    out = Tensor(a.data * factor, requires_grad=a.requires_grad)

    def grad_fn(g: np.ndarray):
        return [(a, g * factor)]

    return record_op(out, grad_fn)


def transpose2d(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeError(f"transpose2d needs a matrix, got {a.data.shape}")
    out = Tensor(a.data.T, requires_grad=a.requires_grad)

    def grad_fn(g: np.ndarray):
        return [(a, g.T)]

    return record_op(out, grad_fn)


def gather_add_at(table: Tensor, ids: Sequence[int]) -> Tensor:
    """Row gather out[i] = table[ids[i]] whose backward scatter-adds g with
    np.add.at: the embedding op before the decoder entry took in its scale
    and positions, and the encoder dispatch's gather before gather_rows."""
    idx = np.asarray(ids, dtype=np.intp)
    out = Tensor(table.data[idx], requires_grad=table.requires_grad)

    def grad_fn(g: np.ndarray):
        gt = np.zeros_like(table.data)
        np.add.at(gt, idx, g)
        return [(table, gt)]

    return record_op(out, grad_fn)


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    out = Tensor(a.data.reshape(shape), requires_grad=a.requires_grad)
    orig = a.data.shape

    def grad_fn(g: np.ndarray):
        return [(a, g.reshape(orig))]

    return record_op(out, grad_fn)


def permute(a: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    out = Tensor(a.data.transpose(axes), requires_grad=a.requires_grad)
    inverse = tuple(np.argsort(axes))

    def grad_fn(g: np.ndarray):
        return [(a, g.transpose(inverse))]

    return record_op(out, grad_fn)


def bmm(a: Tensor, b: Tensor) -> Tensor:
    """Batched matrix product of [n x i x j] and [n x j x k] stacks.
    Backward: da = g @ b^T, db = a^T @ g, per batch entry."""
    ad, bd = a.data, b.data
    if ad.ndim != 3 or bd.ndim != 3 or ad.shape[0] != bd.shape[0] or ad.shape[2] != bd.shape[1]:
        raise ShapeError(f"batched matmul dims disagree: {ad.shape} x {bd.shape}")
    out = Tensor(ad @ bd, requires_grad=a.requires_grad or b.requires_grad)

    def grad_fn(g: np.ndarray):
        return [(a, g @ bd.transpose(0, 2, 1)), (b, ad.transpose(0, 2, 1) @ g)]

    return record_op(out, grad_fn)


def softmax_last(a: Tensor) -> Tensor:
    """Stable softmax over the last axis."""
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(y, requires_grad=a.requires_grad)

    def grad_fn(g: np.ndarray):
        dot = (g * y).sum(axis=-1, keepdims=True)
        return [(a, y * (g - dot))]

    return record_op(out, grad_fn)


def attention_by_gathers(q: Tensor, k: Tensor, v: Tensor, n_heads: int, q_lengths: Sequence[int],
                         k_lengths: Sequence[int], causal: bool = False) -> Tensor:
    """The attention tape op as it was before its kernel became
    `numerics.attention_rows`: per (t_q, t_k) group, row gathers by index
    array, a softmax into fresh arrays and merged-head gradients scattered
    back by index. Lengths are taken as valid."""
    (n_q, d), n_k, dh = q.data.shape, k.data.shape[0], q.data.shape[1] // n_heads

    def heads(a):
        n, t, _ = a.shape
        return a.reshape(n, t, n_heads, dh).transpose(0, 2, 1, 3)

    def merge(a):
        n, h, t, _ = a.shape
        return a.transpose(0, 2, 1, 3).reshape(n * t, h * dh)

    groups: dict = {}
    for i, lengths in enumerate(zip(q_lengths, k_lengths)):
        groups.setdefault(lengths, []).append(i)
    q_off, k_off = np.cumsum([0, *q_lengths]), np.cumsum([0, *k_lengths])
    out, saved = np.empty((n_q, d)), []
    for (t_q, t_k), group in groups.items():
        qr = (q_off[group][:, None] + np.arange(t_q)).ravel()
        kr = (k_off[group][:, None] + np.arange(t_k)).ravel()
        qg, kg, vg = (a.data[r].reshape(len(group), -1, d) for a, r in ((q, qr), (k, kr), (v, kr)))
        scores = (heads(qg) @ heads(kg).swapaxes(-1, -2)) * (1.0 / math.sqrt(dh))
        if causal and t_q > 1:
            scores = np.where(np.tri(t_q, t_k, t_k - t_q, dtype=bool), scores, -np.inf)
        probs = np.exp(scores - scores.max(axis=-1, keepdims=True))
        probs /= probs.sum(axis=-1, keepdims=True)
        out[qr] = merge(probs @ heads(vg))
        saved.append((qr, kr, qg, kg, vg, probs))

    def grad_fn(g: np.ndarray):
        dq, dk, dv = np.empty((n_q, d)), np.empty((n_k, d)), np.empty((n_k, d))
        for qr, kr, qg, kg, vg, probs in saved:
            gh = heads(g[qr].reshape(qg.shape))
            dp = gh @ heads(vg).swapaxes(-1, -2)
            ds = probs * (dp - (dp * probs).sum(axis=-1, keepdims=True)) / math.sqrt(dh)
            dq[qr] = merge(ds @ heads(kg))
            dk[kr] = merge(ds.swapaxes(-1, -2) @ heads(qg))
            dv[kr] = merge(probs.swapaxes(-1, -2) @ gh)
        return [(q, dq), (k, dk), (v, dv)]

    return record_op(Tensor(out, requires_grad=True), grad_fn)
