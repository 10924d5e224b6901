"""Transformer building blocks: feedforward, attention, norms, positions.

All blocks are pure functions over parameter dataclasses; state (dropout
RNG, train/eval mode) is passed in explicitly so the same parameters can be
shared across callers without hidden coupling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError
from .numerics import (
    Tensor,
    add,
    constant,
    dropout,
    layer_norm,
    matmul,
    mul,
    parameter_arena,
    permute,
    relu,
    reshape,
    scale,
    silu,
    softmax_last,
)

ACTIVATIONS = {"silu": silu, "relu": relu}

MASK_OFF = -1e30  # large enough that exp() underflows to exact 0.0


def fill_normal(t: Tensor, std: float, rng: np.random.Generator) -> None:
    """Draw t's values in place; bitwise what rng.normal(0.0, std, t.shape)
    returns, which computes 0.0 + std * z (so a -0.0 comes out as 0.0)."""
    rng.standard_normal(out=t.data)
    t.data *= std
    t.data += 0.0


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

    def tensors(self) -> list[tuple[str, Tensor]]:
        shapes = ffn_shapes(self.d_model, self.d_ff, self.glu)
        return [(name, getattr(self, name)) for name, _ in shapes]

    def fill(self, rng: np.random.Generator) -> None:
        """Random init in place. The draws go w_in, w_out, then w_gate: the
        order the weights are pinned to, not the tensors() order."""
        fill_normal(self.w_in, 1.0 / math.sqrt(self.d_model), rng)
        fill_normal(self.w_out, 1.0 / math.sqrt(self.d_ff), rng)
        self.b_in.data.fill(0.0)
        self.b_out.data.fill(0.0)
        if self.glu:
            fill_normal(self.w_gate, 1.0 / math.sqrt(self.d_model), rng)
            self.b_gate.data.fill(0.0)

    @staticmethod
    def init(d_model: int, d_ff: int, glu: bool, rng: np.random.Generator) -> "FFNParams":
        _, params = parameter_arena(ffn_shapes(d_model, d_ff, glu))
        p = FFNParams(**dict(params))
        p.fill(rng)
        return p


def ffn_shapes(d_model: int, d_ff: int, glu: bool) -> list[tuple[str, tuple[int, ...]]]:
    """Names and shapes of one FFN block's tensors, in tensors() order."""
    gate = [("w_gate", (d_model, d_ff)), ("b_gate", (d_ff,))] if glu else []
    return [("w_in", (d_model, d_ff)), ("b_in", (d_ff,)), *gate,
            ("w_out", (d_ff, d_model)), ("b_out", (d_model,))]


def ffn_param_count(d_model: int, d_ff: int, glu: bool) -> int:
    """Exact parameter count of one FFN block; the accounting module's unit."""
    matrices = 3 if glu else 2
    biases = (2 * d_ff if glu else d_ff) + d_model
    return matrices * d_model * d_ff + biases


def ffn_forward(p: FFNParams, x: Tensor, activation: str = "silu") -> Tensor:
    """Apply one feedforward block to x [t x d_model]."""
    if x.shape[-1] != p.d_model:
        raise ShapeError(f"input dim {x.shape} does not match d_model {p.d_model}")
    act = ACTIVATIONS[activation]
    h = act(add(matmul(x, p.w_in), p.b_in))
    if p.glu:
        g = add(matmul(x, p.w_gate), p.b_gate)
        h = mul(h, g)
    return add(matmul(h, p.w_out), p.b_out)


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

    @property
    def d_model(self) -> int:
        return self.w_q.shape[0]

    def tensors(self) -> list[tuple[str, Tensor]]:
        return [(name, getattr(self, name)) for name, _ in attention_shapes(self.d_model)]

    def fill(self, rng: np.random.Generator) -> None:
        """Random init in place: w_q, w_k, w_v, w_o drawn in that order, biases 0."""
        for name, shape in attention_shapes(self.d_model):
            if len(shape) == 2:
                fill_normal(getattr(self, name), 1.0 / math.sqrt(self.d_model), rng)
            else:
                getattr(self, name).data.fill(0.0)

    @staticmethod
    def init(d_model: int, n_heads: int, rng: np.random.Generator) -> "AttentionParams":
        _, params = parameter_arena(attention_shapes(d_model))
        p = AttentionParams(**dict(params), n_heads=n_heads)
        p.fill(rng)
        return p


def attention_shapes(d_model: int) -> list[tuple[str, tuple[int, ...]]]:
    """Names and shapes of one attention block's tensors, in tensors() order."""
    return [(f"{kind}_{proj}", (d_model, d_model) if kind == "w" else (d_model,))
            for proj in "qkvo" for kind in "wb"]


def attention_param_count(d_model: int) -> int:
    return 4 * (d_model * d_model + d_model)


def _split_heads(x: Tensor, batch: int, n_heads: int) -> Tensor:
    """[batch*t x d] -> [batch*h x t x d/h]."""
    rows, d = x.shape
    heads = reshape(x, (batch, rows // batch, n_heads, d // n_heads))
    return reshape(permute(heads, (0, 2, 1, 3)), (batch * n_heads, rows // batch, d // n_heads))


def attention_probs(
    p: AttentionParams,
    q_in: Tensor,
    k_in: Tensor,
    mask: np.ndarray | None = None,
    batch: int = 1,
) -> Tensor:
    """Per-head attention probabilities [batch*h x t_q x t_k].

    q_in and k_in hold `batch` samples of t_q and t_k rows each, sample by
    sample. mask is a boolean array, True where attention is allowed:
    [t_q x t_k] for every sample, or [batch x t_q x t_k] / [batch x 1 x t_k]
    per sample. Disallowed logits are pushed to MASK_OFF so their softmax
    weight is an exact 0.0 and each row remains a distribution over allowed
    keys only.
    """
    t_q, t_k = q_in.shape[0] // batch, k_in.shape[0] // batch
    if batch * t_q != q_in.shape[0] or batch * t_k != k_in.shape[0]:
        raise ShapeError(f"inputs {q_in.shape}/{k_in.shape} do not split into {batch} samples")
    if mask is not None and mask.shape not in ((t_q, t_k), (batch, t_q, t_k), (batch, 1, t_k)):
        raise ShapeError(f"mask shape {mask.shape} does not cover ({batch}, {t_q}, {t_k})")
    q = _split_heads(add(matmul(q_in, p.w_q), p.b_q), batch, p.n_heads)
    k = _split_heads(add(matmul(k_in, p.w_k), p.b_k), batch, p.n_heads)
    dh = p.d_model // p.n_heads
    logits = scale(matmul(q, permute(k, (0, 2, 1))), 1.0 / math.sqrt(dh))
    if mask is not None:
        bias = np.where(mask, 0.0, MASK_OFF)
        if bias.ndim == 3:  # per sample: one copy per head, in _split_heads order
            bias = np.repeat(np.broadcast_to(bias, (batch, t_q, t_k)), p.n_heads, axis=0)
        logits = add(logits, constant(bias))
    return softmax_last(logits)


def attention_forward(
    p: AttentionParams,
    q_in: Tensor,
    k_in: Tensor,
    v_in: Tensor,
    mask: np.ndarray | None = None,
    batch: int = 1,
) -> Tensor:
    """Scaled dot-product multi-head attention: attention_probs weighting
    the projected values, heads merged and projected out. Inputs are
    [batch*t x d] row stacks; see attention_probs for the mask."""
    d = p.d_model
    if q_in.shape[-1] != d or k_in.shape[-1] != d or v_in.shape[-1] != d:
        raise ShapeError("attention inputs must have width d_model")
    if v_in.shape[0] != k_in.shape[0]:
        raise ShapeError(f"key/value lengths differ: {k_in.shape} vs {v_in.shape}")
    weights = attention_probs(p, q_in, k_in, mask, batch)
    v = _split_heads(add(matmul(v_in, p.w_v), p.b_v), batch, p.n_heads)
    ctx = matmul(weights, v)  # [batch*h x t_q x dh]
    t_q = q_in.shape[0] // batch
    merged = permute(reshape(ctx, (batch, p.n_heads, t_q, d // p.n_heads)), (0, 2, 1, 3))
    return add(matmul(reshape(merged, (q_in.shape[0], d)), p.w_o), p.b_o)


def causal_mask(t: int) -> np.ndarray:
    """Lower-triangular allowance: position i attends to keys 0..i."""
    return np.tril(np.ones((t, t), dtype=bool))


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
    epsilon: float = 1e-6

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ConfigError(f"layernorm epsilon must be positive, got {self.epsilon}")

    def tensors(self) -> list[tuple[str, Tensor]]:
        return [("gain", self.gain), ("bias", self.bias)]

    def fill(self, rng: np.random.Generator | None = None) -> None:
        """Identity init in place: gain 1, bias 0. Draws nothing."""
        self.gain.data.fill(1.0)
        self.bias.data.fill(0.0)

    @staticmethod
    def init(d_model: int) -> "LayerNormParams":
        _, params = parameter_arena(layer_norm_shapes(d_model))
        p = LayerNormParams(**dict(params))
        p.fill()
        return p


def layer_norm_shapes(d_model: int) -> list[tuple[str, tuple[int, ...]]]:
    return [("gain", (d_model,)), ("bias", (d_model,))]


def layer_norm_params(p: LayerNormParams, x: Tensor) -> Tensor:
    return layer_norm(x, p.gain, p.bias, p.epsilon)


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
