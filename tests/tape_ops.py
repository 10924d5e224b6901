"""Tape ops that only the tests use: trainable leaves, and the shape and
softmax ops of the padded-attention oracle and the numerics tests."""

from typing import Sequence

import numpy as np

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
