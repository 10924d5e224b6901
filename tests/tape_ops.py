"""Tape ops that only the tests use: trainable leaves, and the shape,
batched-matmul and softmax ops of the padded-attention oracle and the
numerics tests."""

from typing import Sequence

import numpy as np

from smoe.errors import ShapeError
from smoe.numerics import Tensor, record_op


def parameter(data) -> Tensor:
    """A trainable leaf tensor of `data`."""
    return Tensor(data, requires_grad=True)


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
