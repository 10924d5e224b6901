"""Transformer building blocks: feedforward, attention, norms, positions.

All blocks are pure functions over parameter dataclasses and [rows x d]
stacks. A block drops out exactly when its caller passes an RNG and a
positive rate (a Model does so in training mode only), so the same
parameters can be shared across callers without hidden coupling.
`ffn_forward` and `attention_sublayer` are each one tape node with a
hand-written backward: the FFN block, and the whole pre-norm attention
sublayer that `pre_norm_residual` over `attention_forward` composes from
seven nodes, bitwise the same.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, ShapeError
from .numerics import (
    Tensor, active_tape, add, affine_rows, attention, attention_rows, attention_rows_backward,
    dropout, ffn_rows, layer_norm, linear, normalize, normalize_backward, record_op,
)


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

    def tensors(self) -> list[Tensor | None]:
        """w_in, b_in, w_out, b_out, w_gate, b_gate: `numerics.ffn_rows` order."""
        return [self.w_in, self.b_in, self.w_out, self.b_out, self.w_gate, self.b_gate]


def ffn_shapes(d_model: int, d_ff: int, glu: bool) -> list[tuple[str, tuple[int, ...]]]:
    """Names and shapes of one FFN block's tensors, in arena order."""
    gate = [("w_gate", (d_model, d_ff)), ("b_gate", (d_ff,))] if glu else []
    return [("w_in", (d_model, d_ff)), ("b_in", (d_ff,)),
            ("w_out", (d_ff, d_model)), ("b_out", (d_model,)), *gate]


def ffn_forward(p: FFNParams, x: Tensor, activation: str = "silu") -> Tensor:
    """Apply one feedforward block to x [t x d_model] as one tape node over
    `numerics.ffn_rows`. Backward, for the output gradient g: dhg = g w_out^T;
    under GLU dgate = dhg * h and dh = dhg * gate, else dh = dhg; da = dh *
    act'(a); dx = dgate w_gate^T + da w_in^T. Each weight gets its input^T
    times its output's gradient and each bias that gradient's column sums."""
    if x.shape[-1] != p.d_model:
        raise ShapeError(f"input dim {x.shape} does not match d_model {p.d_model}")
    tensors = p.tensors()
    needs = any(t is not None and t.requires_grad for t in [x, *tensors])
    arrays = [None if t is None else t.data for t in tensors]
    out, saved = ffn_rows(x.data, *arrays, activation, needs and active_tape() is not None)

    def grad_fn(g: np.ndarray):
        a, sig, h, gate, hg = saved
        dh = g @ p.w_out.data.T
        grads = [(p.w_out, hg.T @ g), (p.b_out, g.sum(axis=0))]
        if gate is not None:
            dgate, dh = dh * h, dh * gate
            grads += [(p.w_gate, x.data.T @ dgate), (p.b_gate, dgate.sum(axis=0))]
        da = dh * (a > 0.0) if sig is None else dh * sig * (1.0 + a * (1.0 - sig))
        grads += [(p.w_in, x.data.T @ da), (p.b_in, da.sum(axis=0))]
        if x.requires_grad:
            dx = da @ p.w_in.data.T
            grads.append((x, dx if gate is None else dgate @ p.w_gate.data.T + dx))
        return grads

    return record_op(Tensor(out, requires_grad=needs), grad_fn)


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


_POSITIONS: dict[int, np.ndarray] = {}  # d_model -> its longest table so far


def sinusoidal_positions(t: int, d_model: int) -> np.ndarray:
    """Fixed sine/cosine position codes: channel 2i uses sin(p / 10000^(2i/d)),
    channel 2i+1 the matching cos. Each length reads a read-only slice of
    one table per d_model, rebuilt only when a longer one is asked for."""
    if t <= 0 or d_model <= 0:
        raise ConfigError(f"positions need positive dims, got t={t}, d_model={d_model}")
    if d_model % 2 != 0:
        raise ConfigError(f"sinusoidal positions need even d_model, got {d_model}")
    table = _POSITIONS.get(d_model)
    if table is None or len(table) < t:
        pos = np.arange(t, dtype=np.float64)[:, None]
        angles = pos / np.power(10000.0, 2.0 * np.arange(d_model // 2, dtype=np.float64) / d_model)
        table = _POSITIONS[d_model] = np.stack([np.sin(angles), np.cos(angles)], -1).reshape(t, -1)
        table.flags.writeable = False
    return table[:t]


@dataclass
class LayerNormParams:
    gain: Tensor
    bias: Tensor


def layer_norm_shapes(d_model: int) -> list[tuple[str, tuple[int, ...]]]:
    return [("gain", (d_model,)), ("bias", (d_model,))]


def layer_norm_params(p: LayerNormParams, x: Tensor) -> Tensor:
    return layer_norm(x, p.gain, p.bias)


def pre_norm_residual(
    block,
    ln: LayerNormParams,
    x: Tensor,
    dropout_rate: float = 0.0,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """x + dropout(block(layernorm(x))); dropout only when given an rng."""
    return add(x, dropout(block(layer_norm_params(ln, x)), dropout_rate, rng))


def attention_sublayer(
    p: AttentionParams,
    ln: LayerNormParams,
    x: Tensor,
    memory: Tensor | None = None,
    q_lengths: Sequence[int] | None = None,
    k_lengths: Sequence[int] | None = None,
    causal: bool = False,
    dropout_rate: float = 0.0,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """The pre-norm attention sublayer x + dropout(attention_forward(p, h,
    kv, kv, q_lengths, k_lengths, causal)) for h = layernorm(x) and kv =
    memory (cross-attention) or h (self-attention, memory None), as one tape
    node over `normalize` and `attention_rows`.

    It computes bitwise what that pre_norm_residual composition computes,
    forward and backward: the dropout mask is drawn after the output
    projection at its shape, and the backward keeps the composition's
    summation order. h's gradient is dv W_v^T + dk W_k^T + dq W_q^T in that
    order (only dq W_q^T under cross-attention, where memory gets dv W_v^T
    and dk W_k^T as two entries), and x gets g + the layer norm's dx.
    """
    d = ln.gain.shape[0]
    if x.data.ndim != 2 or x.shape[1] != d or (memory is not None and memory.shape[-1] != d):
        raise ShapeError(f"attention sublayer inputs {x.shape}/"
                         f"{None if memory is None else memory.shape} do not fit d_model {d}")
    leaves = [x, ln.gain, ln.bias, p.w_q, p.b_q, p.w_k, p.b_k, p.w_v, p.b_v, p.w_o, p.b_o]
    needs = any(t.requires_grad for t in leaves) or (memory is not None and memory.requires_grad)
    h, xhat, inv_std = normalize(x.data, ln.gain.data, ln.bias.data)
    kv = h if memory is None else memory.data
    ctx, saved = attention_rows(
        affine_rows(h, p.w_q.data, p.b_q.data), affine_rows(kv, p.w_k.data, p.b_k.data),
        affine_rows(kv, p.w_v.data, p.b_v.data),
        p.n_heads, q_lengths, k_lengths, causal, needs and active_tape() is not None,
    )
    out = affine_rows(ctx, p.w_o.data, p.b_o.data)
    mask = None
    if rng is not None and dropout_rate > 0.0:
        mask = (rng.random(out.shape) >= dropout_rate) / (1.0 - dropout_rate)
        out *= mask
    out += x.data

    def grad_fn(g: np.ndarray):
        go = g if mask is None else g * mask
        dq, dk, dv = attention_rows_backward(go @ p.w_o.data.T, saved, p.n_heads, kv.shape[0])
        grads = [(p.w_o, ctx.T @ go), (p.b_o, go.sum(axis=0)),
                 (p.w_v, kv.T @ dv), (p.b_v, dv.sum(axis=0)),
                 (p.w_k, kv.T @ dk), (p.b_k, dk.sum(axis=0)),
                 (p.w_q, h.T @ dq), (p.b_q, dq.sum(axis=0))]
        if memory is None:
            dh = dv @ p.w_v.data.T + dk @ p.w_k.data.T + dq @ p.w_q.data.T
        else:
            dh = dq @ p.w_q.data.T
            if memory.requires_grad:
                grads += [(memory, dv @ p.w_v.data.T), (memory, dk @ p.w_k.data.T)]
        dx, dgain, dbias = normalize_backward(dh, ln.gain.data, xhat, inv_std)
        return grads + [(ln.gain, dgain), (ln.bias, dbias), (x, g + dx)]

    return record_op(Tensor(out, requires_grad=needs), grad_fn)
