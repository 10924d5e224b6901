"""Transformer building blocks: feedforward, attention, norms, positions.

All blocks are pure functions over parameter dataclasses and [rows x d]
stacks; state (dropout RNG, train/eval mode) is passed in explicitly so the
same parameters can be shared across callers without hidden coupling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, ShapeError
from .numerics import (
    Tensor,
    add,
    attention,
    constant,
    dropout,
    layer_norm,
    linear,
    mul,
    relu,
    silu,
)

ACTIVATIONS = {"silu": silu, "relu": relu}
LN_EPSILON = 1e-6


def init_parameters(params: Sequence[tuple[str, Tensor]], rng: np.random.Generator) -> None:
    """Random init in place, drawing in table order. Each matrix is drawn
    from N(0, 1/fan_in) (LeCun et al. 1998), fan_in its first dim, or its
    width for the `embed` table; each `...gain` vector is set to 1 and
    every other vector to 0. A draw is bitwise what rng.normal(0.0, std,
    shape) returns, which computes 0.0 + std * z (so -0.0 comes out 0.0)."""
    for name, t in params:
        if t.data.ndim == 2:
            rng.standard_normal(out=t.data)
            t.data *= 1.0 / math.sqrt(t.shape[1] if name == "embed" else t.shape[0])
            t.data += 0.0
        else:
            t.data.fill(1.0 if name.endswith("gain") else 0.0)


@dataclass
class FFNParams:
    """One feedforward block; also the shape of a single expert.

    w_gate is present iff the block is GLU-gated:
      glu on:  (act(x @ w_in + b_in) * (x @ w_gate + b_gate)) @ w_out + b_out
      glu off:  act(x @ w_in + b_in) @ w_out + b_out
    """

    w_in: Tensor
    b_in: Tensor
    w_out: Tensor
    b_out: Tensor
    w_gate: Tensor | None = None
    b_gate: Tensor | None = None

    def __post_init__(self):
        d_model, d_ff = self.w_in.shape
        if self.w_out.shape != (d_ff, d_model):
            raise ShapeError(
                f"w_out shape {self.w_out.shape} inconsistent with w_in {self.w_in.shape}"
            )
        if self.b_in.shape != (d_ff,) or self.b_out.shape != (d_model,):
            raise ShapeError("FFN bias shapes inconsistent with weights")
        if (self.w_gate is None) != (self.b_gate is None):
            raise ShapeError("w_gate and b_gate must be given together")
        if self.w_gate is not None and self.w_gate.shape != (d_model, d_ff):
            raise ShapeError(f"w_gate shape {self.w_gate.shape} != {(d_model, d_ff)}")

    @property
    def glu(self) -> bool:
        return self.w_gate is not None

    @property
    def d_model(self) -> int:
        return self.w_in.shape[0]

    @property
    def d_ff(self) -> int:
        return self.w_in.shape[1]


def ffn_shapes(d_model: int, d_ff: int, glu: bool) -> list[tuple[str, tuple[int, ...]]]:
    """Names and shapes of one FFN block's tensors, in arena order."""
    gate = [("w_gate", (d_model, d_ff)), ("b_gate", (d_ff,))] if glu else []
    return [("w_in", (d_model, d_ff)), ("b_in", (d_ff,)),
            ("w_out", (d_ff, d_model)), ("b_out", (d_model,)), *gate]


def ffn_forward(p: FFNParams, x: Tensor, activation: str = "silu") -> Tensor:
    """Apply one feedforward block to x [t x d_model]."""
    if x.shape[-1] != p.d_model:
        raise ShapeError(f"input dim {x.shape} does not match d_model {p.d_model}")
    h = ACTIVATIONS[activation](linear(x, p.w_in, p.b_in))
    if p.glu:
        h = mul(h, linear(x, p.w_gate, p.b_gate))
    return linear(h, p.w_out, p.b_out)


@dataclass
class AttentionParams:
    w_q: Tensor
    b_q: Tensor
    w_k: Tensor
    b_k: Tensor
    w_v: Tensor
    b_v: Tensor
    w_o: Tensor
    b_o: Tensor
    n_heads: int

    def __post_init__(self):
        d = self.w_q.shape[0]
        for name in ("w_q", "w_k", "w_v", "w_o"):
            if getattr(self, name).shape != (d, d):
                raise ShapeError(f"{name} must be square [{d} x {d}]")
        if d % self.n_heads != 0:
            raise ConfigError(f"d_model {d} not divisible by n_heads {self.n_heads}")


def attention_shapes(d_model: int) -> list[tuple[str, tuple[int, ...]]]:
    """Names and shapes of one attention block's tensors, in arena order."""
    return [(f"{kind}_{proj}", (d_model, d_model) if kind == "w" else (d_model,))
            for proj in "qkvo" for kind in "wb"]


def attention_forward(
    p: AttentionParams,
    q_in: Tensor,
    k_in: Tensor,
    v_in: Tensor,
    q_lengths: Sequence[int] | None = None,
    k_lengths: Sequence[int] | None = None,
    causal: bool = False,
) -> Tensor:
    """Scaled dot-product multi-head attention: the q/k/v projections, one
    fused attention node and the output projection.

    Inputs are packed row stacks: sample i's q_lengths[i] query rows read
    only its own k_lengths[i] key/value rows, and None lengths mean one
    sample of all rows. causal keeps query j of a sample from keys after
    t_k - t_q + j (see numerics.attend). Mismatched widths or row counts
    raise ShapeError.
    """
    ctx = attention(
        linear(q_in, p.w_q, p.b_q), linear(k_in, p.w_k, p.b_k), linear(v_in, p.w_v, p.b_v),
        p.n_heads, q_lengths, k_lengths, causal,
    )
    return linear(ctx, p.w_o, p.b_o)


def sinusoidal_positions(t: int, d_model: int) -> Tensor:
    """Fixed sine/cosine position codes: channel 2i uses sin(p / 10000^(2i/d)),
    channel 2i+1 the matching cos."""
    if t <= 0 or d_model <= 0:
        raise ConfigError(f"positions need positive dims, got t={t}, d_model={d_model}")
    if d_model % 2 != 0:
        raise ConfigError(f"sinusoidal positions need even d_model, got {d_model}")
    pos = np.arange(t, dtype=np.float64)[:, None]
    i = np.arange(d_model // 2, dtype=np.float64)[None, :]
    angles = pos / np.power(10000.0, 2.0 * i / d_model)
    out = np.zeros((t, d_model))
    out[:, 0::2] = np.sin(angles)
    out[:, 1::2] = np.cos(angles)
    return constant(out)


@dataclass
class LayerNormParams:
    gain: Tensor
    bias: Tensor


def layer_norm_shapes(d_model: int) -> list[tuple[str, tuple[int, ...]]]:
    return [("gain", (d_model,)), ("bias", (d_model,))]


def layer_norm_params(p: LayerNormParams, x: Tensor) -> Tensor:
    return layer_norm(x, p.gain, p.bias, LN_EPSILON)


def pre_norm_residual(
    block,
    ln: LayerNormParams,
    x: Tensor,
    dropout_rate: float = 0.0,
    rng: np.random.Generator | None = None,
    training: bool = False,
) -> Tensor:
    """x + dropout(block(layernorm(x))); dropout only in training mode."""
    out = block(layer_norm_params(ln, x))
    if training and dropout_rate > 0.0:
        if rng is None:
            raise ConfigError("training-mode dropout needs an RNG")
        out = dropout(out, dropout_rate, rng, training=True)
    return add(x, out)
