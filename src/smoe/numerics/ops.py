"""Differentiable operations over Tensors.

Every op computes its value with numpy, then registers a backward rule on
the active tape when any input requires grad. Broadcasting is restricted to
trailing-shape alignment (bias adds); the narrow surface keeps every
backward rule short enough to audit by hand.
`linear` and `attention` are fused: each is one tape node with a
hand-written backward in place of a chain of the elementary ops. The
array kernels compute on plain arrays with no tape: `attention_rows`
(length checks, grouping by (t_q, t_k), `attend` per group) with
`attention_rows_backward`, `normalize` with `normalize_backward`,
`ffn_rows`, `affine_rows` and `matmul_columns`. The tape ops,
`nn.ffn_forward` and `nn.attention_sublayer` wrap them, and greedy decode
calls them directly.

The forward kernels `ffn_rows`, `affine_rows`, `matmul_columns` and
`attention_rows` (over heads) cut their work by `halves.split_parts`, which
reads only the operands' shapes, and run the parts through
`halves.map_halves`: a large product runs on two cores, each part writing
its slice of one preallocated output, bitwise what one part computes; a
small one runs as one part on the calling thread. Only these kernels' own
numpy calls run on the helper thread. Backward kernels run on the calling
thread.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ..errors import ConfigError, ShapeError
from ..halves import GRAIN, map_halves, split_parts
from .tensor import Tensor, active_tape, record_op

LN_EPSILON = 1e-6  # added to the variance in every layer norm


def constant(data) -> Tensor:
    return Tensor(data, requires_grad=False)


def _needs_grad(*tensors: Tensor) -> bool:
    return any(t.requires_grad for t in tensors)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """y = a @ b for 2-D a and b. Backward: da = g @ b^T, db = a^T @ g."""
    ad, bd = a.data, b.data
    if ad.ndim != 2 or bd.ndim != 2 or ad.shape[1] != bd.shape[0]:
        raise ShapeError(f"matmul needs 2-D operands with matching inner dims: "
                         f"{ad.shape} x {bd.shape}")
    out = Tensor(ad @ bd, requires_grad=_needs_grad(a, b))

    def grad_fn(g: np.ndarray):
        return [(a, g @ bd.T), (b, ad.T @ g)]

    return record_op(out, grad_fn)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """y = x @ w + b for x [rows x d_in], w [d_in x d_out], b [d_out].
    Backward: dw = x^T @ g, db = g summed over rows, dx = g @ w^T if needed."""
    xd, wd = x.data, w.data
    if xd.ndim != 2 or wd.ndim != 2 or xd.shape[1] != wd.shape[0] or b.data.shape != wd.shape[1:]:
        raise ShapeError(f"linear shapes disagree: {xd.shape} x {wd.shape} + {b.data.shape}")
    out = Tensor(xd @ wd + b.data, requires_grad=_needs_grad(x, w, b))

    def grad_fn(g: np.ndarray):
        grads = [(w, xd.T @ g), (b, g.sum(axis=0))]
        return grads + [(x, g @ wd.T)] if x.requires_grad else grads

    return record_op(out, grad_fn)


def ffn_rows(
    x: np.ndarray, w_in: np.ndarray, b_in: np.ndarray, w_out: np.ndarray, b_out: np.ndarray,
    w_gate: np.ndarray | None, b_gate: np.ndarray | None, activation: str, keep: bool = False,
) -> tuple[np.ndarray, list | None]:
    """Feedforward block on plain rows x [rows x d_model], no tape: a = x @
    w_in + b_in, h = a * sig for sig = 1 / (1 + exp(-a)) ("silu") or
    max(a, 0) ("relu"), hg = h * gate for gate = x @ w_gate + b_gate (GLU;
    hg = h when w_gate is None), out = hg @ w_out + b_out. Returns out and,
    if keep, [a, sig, h, gate, hg] for a backward (sig None for relu, gate
    None without GLU); otherwise None, each intermediate dropped once the
    next exists.

    x may also be a stack [experts x rows x d_model] over weights stacked
    [experts x ...] (a bank's experts, one per slice) or [1 x ...] (one
    block for every slice). The work is cut by `split_parts` on x's first
    axis, rows of a matrix or experts of a stack, and each part writes its
    slice of out and of the kept intermediates.
    """
    if activation not in ("silu", "relu"):
        raise ConfigError(f"unknown activation {activation!r}")
    lead, d_ff, glu = x.shape[:-1], w_in.shape[-1], w_gate is not None
    parts = split_parts(len(x), x.size * d_ff, 1 if x.ndim == 3 else GRAIN)
    weights = (w_in, b_in, w_out, b_out, w_gate, b_gate)
    # a bank's stacks are cut with x's experts; whole, they serve one part
    per_expert = len(parts) > 1 and x.ndim == 3 and len(w_in) > 1
    kept = ([np.empty(lead + (d_ff,)) if used else None
             for used in (True, activation == "silu", True, glu, glu)] if keep else None)
    out = np.empty(lead + w_out.shape[-1:])

    def run(s: slice) -> None:
        xs = x[s]
        wi, bi, wo, bo, wg, bg = ([None if w is None else w[s] for w in weights]
                                  if per_expert else weights)
        # the part's slices of the kept arrays; None makes each op allocate
        a_out, sig_out, h_out, gate_out, hg_out = (
            [None if k is None else k[s] for k in kept] if keep else [None] * 5)
        a = np.matmul(xs, wi, out=a_out)
        a += bi
        if activation == "silu":  # 1 / (1 + exp(-a)), one op at a time in place
            sig = np.negative(a, out=sig_out)
            np.exp(sig, out=sig)
            sig += 1.0
            np.divide(1.0, sig, out=sig)
            h = np.multiply(a, sig, out=h_out)
        else:
            sig, h = None, np.maximum(a, 0.0, out=h_out)
        del a, sig
        if glu:
            gate = np.matmul(xs, wg, out=gate_out)
            gate += bg
            h = np.multiply(h, gate, out=hg_out)
            del gate
        part = np.matmul(h, wo, out=out[s])
        part += bo

    map_halves(run, parts)
    if keep and not glu:
        kept[4] = kept[2]
    return out, kept


def affine_rows(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x @ w + b for plain rows x [rows x d_in], w [d_in x d_out] and b
    [d_out], no tape, cut into rows by `split_parts`."""
    out = np.empty((len(x), w.shape[1]))

    def run(s: slice) -> None:
        part = np.matmul(x[s], w, out=out[s])
        part += b

    map_halves(run, split_parts(len(x), x.size * w.shape[1]))
    return out


def matmul_columns(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """x @ w for plain x [rows x d_in] and w [d_in x d_out], no tape, cut
    into columns of w by `split_parts`: the vocabulary of a logits product."""
    out = np.empty((len(x), w.shape[1]))

    def run(s: slice) -> None:
        np.matmul(x, w[:, s], out=out[:, s])

    map_halves(run, split_parts(w.shape[1], x.size * w.shape[1]))
    return out


def _heads(a: np.ndarray, n_heads: int) -> np.ndarray:
    """[n x t x d] -> [n x h x t x d/h], a view."""
    n, t, d = a.shape
    return a.reshape(n, t, n_heads, d // n_heads).transpose(0, 2, 1, 3)


def _merge_heads(a: np.ndarray) -> np.ndarray:
    """[n x h x t x dh] -> [n*t x h*dh]."""
    n, h, t, dh = a.shape
    return a.transpose(0, 2, 1, 3).reshape(n * t, h * dh)


def attend(
    q: np.ndarray, k_t: np.ndarray, v: np.ndarray, out: np.ndarray,
    probs: np.ndarray | None = None, causal: bool = False,
) -> np.ndarray:
    """Multi-head softmax attention on head-split plain arrays (strided views
    will do), no tape, of queries q [n x h x t_q x dh] over transposed keys
    k_t [n or 1 x h x dh x t_k] and values v [n or 1 x h x t_k x dh]: writes
    the context into `out` [n x h x t_q x dh], a head-split view of the
    heads-merged context rows, and returns the probabilities [n x h x t_q x
    t_k], written into `probs` when given. Scores are scaled by 1/sqrt(dh).
    causal keeps query i on keys 0 .. t_k - t_q + i (bottom-right aligned),
    so queries appended after cached keys read no later position; masked
    probabilities are exact 0.0. The softmax runs in place in the scores
    array. Greedy decode passes slices of its head-major key/value caches.
    """
    t_q, t_k = q.shape[2], v.shape[2]
    probs = np.matmul(q, k_t, out=probs)
    probs *= 1.0 / math.sqrt(q.shape[3])
    if causal and t_q > 1:
        np.copyto(probs, -np.inf, where=~np.tri(t_q, t_k, t_k - t_q, dtype=bool))
    probs -= np.maximum.reduce(probs, -1, keepdims=True)  # ndarray.max, without its wrapper
    np.exp(probs, out=probs)
    probs /= np.add.reduce(probs, -1, keepdims=True)
    np.matmul(probs, v, out=out)
    return probs


def _sample_rows(offsets: np.ndarray, group: list[int], t: int) -> slice | np.ndarray:
    """The packed rows of the samples `group`, each t rows from its offset:
    a slice when the samples are consecutive, else an index array."""
    start = int(offsets[group[0]])
    if group[-1] - group[0] == len(group) - 1:
        return slice(start, start + len(group) * t)
    return (offsets[group][:, None] + np.arange(t)).ravel()


def attention_rows(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    n_heads: int,
    q_lengths: Sequence[int] | None = None,
    k_lengths: Sequence[int] | None = None,
    causal: bool = False,
    keep: bool = False,
) -> tuple[np.ndarray, list | None]:
    """Multi-head attention of packed samples on plain rows, no tape: the
    context [sum(q_lengths) x d] of q [sum(q_lengths) x d] over k, v
    [sum(k_lengths) x d], each stacking the samples' rows in order.

    Sample i's q_lengths[i] queries read only its own k_lengths[i] keys (see
    `attend`); None lengths mean one sample of all rows. Samples of equal
    (t_q, t_k) run as one group: no row is padding, no key is masked but
    by `causal`. Consecutive samples read and write their rows as slices.
    Returns the context and, if keep, what `attention_rows_backward` needs,
    else None. Lengths that do not split the rows into samples of positive
    length, and q/k/v shapes that do not fit n_heads, raise ShapeError.
    """
    (n_q, d), n_k = q.shape, k.shape[0]
    q_lengths = [n_q] if q_lengths is None else [int(t) for t in q_lengths]
    k_lengths = [n_k] if k_lengths is None else [int(t) for t in k_lengths]
    if (not q_lengths or len(q_lengths) != len(k_lengths) or min(q_lengths + k_lengths) <= 0
            or sum(q_lengths) != n_q or sum(k_lengths) != n_k):
        raise ShapeError(f"lengths {q_lengths}/{k_lengths} do not split {n_q}/{n_k} rows "
                         "into samples of positive length")
    if v.shape != k.shape or k.shape[1] != d or d % n_heads:
        raise ShapeError(f"q/k/v shapes {q.shape}/{k.shape}/{v.shape} do not fit {n_heads} heads")
    if causal and any(t_q > t_k for t_q, t_k in zip(q_lengths, k_lengths)):
        raise ShapeError("causal attention needs t_q <= t_k in every sample")
    groups: dict[tuple[int, int], list[int]] = {}
    for i, lengths in enumerate(zip(q_lengths, k_lengths)):
        groups.setdefault(lengths, []).append(i)
    q_off, k_off = np.cumsum([0] + q_lengths), np.cumsum([0] + k_lengths)
    out, saved = np.empty((n_q, d)), [] if keep else None
    for (t_q, t_k), group in groups.items():
        qr, kr = _sample_rows(q_off, group, t_q), _sample_rows(k_off, group, t_k)
        qg, kg, vg = (a[r].reshape(len(group), -1, d) for a, r in ((q, qr), (k, kr), (v, kr)))
        qh, kh, vh = _heads(qg, n_heads), _heads(kg, n_heads).swapaxes(-1, -2), _heads(vg, n_heads)
        in_place = isinstance(qr, slice)  # the group's context is written into out
        ctx = out[qr] if in_place else np.empty((len(group) * t_q, d))
        ctx_h, probs = _heads(ctx.reshape(qg.shape), n_heads), np.empty(qh.shape[:3] + (t_k,))
        map_halves(lambda s: attend(qh[:, s], kh[:, s], vh[:, s], ctx_h[:, s], probs[:, s], causal),
                   split_parts(n_heads, len(group) * t_q * t_k * d, 1))
        if not in_place:
            out[qr] = ctx
        if keep:
            saved.append((qr, kr, qg, kg, vg, probs))
    return out, saved


def attention_rows_backward(
    g: np.ndarray, saved: list, n_heads: int, n_k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients dq, dk, dv of `attention_rows` over n_k key rows for the
    context gradient g, from what it kept. Per group, with C the context: dV = P^T dC, dS = P *
    (dP - rowsum(P * dP)) / sqrt(dh) for dP = dC V^T, dQ = dS K, dK = dS^T
    Q. A group whose rows are a slice is written in place through head-split
    views of the gradients."""
    n_q, d = g.shape
    dq, dk, dv = np.empty((n_q, d)), np.empty((n_k, d)), np.empty((n_k, d))
    for qr, kr, qg, kg, vg, probs in saved:
        gh = _heads(g[qr].reshape(qg.shape), n_heads)
        ds = gh @ _heads(vg, n_heads).swapaxes(-1, -2)  # dP, then dS in place
        ds -= (ds * probs).sum(axis=-1, keepdims=True)
        ds *= probs
        ds /= math.sqrt(d // n_heads)
        for grad, rows, a, b in ((dq, qr, ds, _heads(kg, n_heads)),
                                 (dk, kr, ds.swapaxes(-1, -2), _heads(qg, n_heads)),
                                 (dv, kr, probs.swapaxes(-1, -2), gh)):
            if isinstance(rows, slice):  # written through a head-split view of the rows
                np.matmul(a, b, out=_heads(grad[rows].reshape(len(probs), -1, d), n_heads))
            else:
                grad[rows] = _merge_heads(a @ b)
    return dq, dk, dv


def attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    n_heads: int,
    q_lengths: Sequence[int] | None = None,
    k_lengths: Sequence[int] | None = None,
    causal: bool = False,
) -> Tensor:
    """`attention_rows` as one tape node: multi-head attention of packed
    samples, q [sum(q_lengths) x d] over k, v [sum(k_lengths) x d], with
    `attention_rows_backward` as its backward. What that needs is kept only
    while a tape records."""
    keep = active_tape() is not None and _needs_grad(q, k, v)
    out, saved = attention_rows(q.data, k.data, v.data, n_heads, q_lengths, k_lengths, causal, keep)

    def grad_fn(g: np.ndarray):
        dq, dk, dv = attention_rows_backward(g, saved, n_heads, k.data.shape[0])
        return [(q, dq), (k, dk), (v, dv)]

    return record_op(Tensor(out, requires_grad=_needs_grad(q, k, v)), grad_fn)


def _broadcast_ok(target: tuple[int, ...], small: tuple[int, ...]) -> bool:
    return len(small) <= len(target) and target[len(target) - len(small):] == small


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; b may broadcast over a's leading axes (bias add)."""
    if a.data.shape != b.data.shape and not _broadcast_ok(a.data.shape, b.data.shape):
        raise ShapeError(f"add shapes incompatible: {a.data.shape} + {b.data.shape}")
    out = Tensor(a.data + b.data, requires_grad=_needs_grad(a, b))
    lead = a.data.ndim - b.data.ndim

    def grad_fn(g: np.ndarray):
        gb = g.sum(axis=tuple(range(lead))) if lead else g
        return [(a, g), (b, gb)]

    return record_op(out, grad_fn)


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product of same-shape tensors (the GLU gate path)."""
    if a.data.shape != b.data.shape:
        raise ShapeError(f"mul shapes differ: {a.data.shape} * {b.data.shape}")
    out = Tensor(a.data * b.data, requires_grad=_needs_grad(a, b))

    def grad_fn(g: np.ndarray):
        return [(a, g * b.data), (b, g * a.data)]

    return record_op(out, grad_fn)


def scale(a: Tensor, factor: float) -> Tensor:
    out = Tensor(a.data * factor, requires_grad=a.requires_grad)

    def grad_fn(g: np.ndarray):
        return [(a, g * factor)]

    return record_op(out, grad_fn)


def sum_all(a: Tensor) -> Tensor:
    out = Tensor(a.data.sum(), requires_grad=a.requires_grad)

    def grad_fn(g: np.ndarray):
        return [(a, np.broadcast_to(g, a.data.shape).copy())]

    return record_op(out, grad_fn)


def transpose2d(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeError(f"transpose2d needs a matrix, got {a.data.shape}")
    out = Tensor(a.data.T, requires_grad=a.requires_grad)

    def grad_fn(g: np.ndarray):
        return [(a, g.T)]

    return record_op(out, grad_fn)


def normalize(
    x: np.ndarray, gain: np.ndarray, bias: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Layer norm of plain rows, no tape: y = gain * xhat + bias for
    xhat = (x - mean) / sqrt(var + LN_EPSILON) over the last axis, with the
    biased variance. Returns y, xhat and 1 / sqrt(var + LN_EPSILON)."""
    d = x.shape[-1]  # np.add.reduce is what ndarray.sum runs, without its Python wrapper
    centered = x - np.add.reduce(x, -1, keepdims=True) / d
    inv_std = 1.0 / np.sqrt(np.add.reduce(centered * centered, -1, keepdims=True) / d + LN_EPSILON)
    xhat = centered * inv_std
    return xhat * gain + bias, xhat, inv_std


def normalize_backward(
    g: np.ndarray, gain: np.ndarray, xhat: np.ndarray, inv_std: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients dx, dgain, dbias of `normalize` for the output gradient g,
    from its xhat and inv_std: with g_hat = g * gain, dx = inv_std * (g_hat
    - mean(g_hat) - xhat * mean(g_hat * xhat)), the means over the last
    axis; dgain and dbias sum g * xhat and g over the other axes."""
    d, sum_axes = g.shape[-1], tuple(range(g.ndim - 1))
    g_hat = g * gain  # each mean is what ndarray.mean computes, without its Python wrapper
    dx = inv_std * (
        g_hat
        - np.add.reduce(g_hat, -1, keepdims=True) / d
        - xhat * (np.add.reduce(g_hat * xhat, -1, keepdims=True) / d)
    )
    return dx, (g * xhat).sum(axis=sum_axes), g.sum(axis=sum_axes)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """`normalize` as a tape op: per-row normalization over the last axis,
    then affine gain/bias."""
    if gain.data.shape != (x.data.shape[-1],) or bias.data.shape != gain.data.shape:
        raise ShapeError(
            f"layer_norm affine shapes {gain.data.shape}/{bias.data.shape} "
            f"do not match feature dim {x.data.shape[-1]}"
        )
    y, xhat, inv_std = normalize(x.data, gain.data, bias.data)
    out = Tensor(y, requires_grad=_needs_grad(x, gain, bias))

    def grad_fn(g: np.ndarray):
        dx, dgain, dbias = normalize_backward(g, gain.data, xhat, inv_std)
        return [(x, dx), (gain, dgain), (bias, dbias)]

    return record_op(out, grad_fn)


def embedding(table: Tensor, ids: Sequence[int]) -> Tensor:
    """Row gather: out[i] = table[ids[i]]. Backward scatter-adds."""
    idx = np.asarray(ids, dtype=np.intp)
    if idx.ndim != 1:
        raise ShapeError("embedding ids must be a flat id list")
    if idx.size and (idx.min() < 0 or idx.max() >= table.data.shape[0]):
        raise IndexError(
            f"embedding id out of range [0, {table.data.shape[0]}): "
            f"min={idx.min()}, max={idx.max()}"
        )
    out = Tensor(table.data[idx], requires_grad=table.requires_grad)

    def grad_fn(g: np.ndarray):
        gt = np.zeros_like(table.data)
        np.add.at(gt, idx, g)
        return [(table, gt)]

    return record_op(out, grad_fn)


def scatter_rows(parts: Sequence[tuple[Tensor, np.ndarray]], n_rows: int) -> Tensor:
    """Rows placed into a zero matrix: out[rows] = part for each (part,
    rows). Row sets must be disjoint; rows in none of them stay 0.
    Backward gathers each part's rows of the gradient."""
    width = parts[0][0].data.shape[1]
    data = np.zeros((n_rows, width))
    seen = np.zeros(n_rows, dtype=bool)
    for part, rows in parts:
        if part.data.shape != (len(rows), width):
            raise ShapeError(f"part {part.data.shape} does not fit {len(rows)} rows of width {width}")
        if seen[rows].any():
            raise ShapeError("scatter_rows row sets overlap")
        seen[rows] = True
        data[rows] = part.data
    out = Tensor(data, requires_grad=_needs_grad(*(part for part, _ in parts)))

    def grad_fn(g: np.ndarray):
        return [(part, g[rows]) for part, rows in parts]

    return record_op(out, grad_fn)


def dropout(x: Tensor, rate: float, rng: np.random.Generator | None) -> Tensor:
    """Inverted dropout drawing its mask from rng; x itself if rng is None or rate is 0."""
    if rng is None or rate <= 0.0:
        return x
    keep = (rng.random(x.data.shape) >= rate) / (1.0 - rate)
    out = Tensor(x.data * keep, requires_grad=x.requires_grad)

    def grad_fn(g: np.ndarray):
        return [(x, g * keep)]

    return record_op(out, grad_fn)


def softmax_cross_entropy(
    logits: Tensor,
    targets: Sequence[int],
    ignore_id: int,
    weights: np.ndarray | None = None,
) -> Tensor:
    """Weighted negative log-softmax summed over positions whose target !=
    ignore_id; by default each such position weighs 1/K, the mean over the
    K kept positions.

    loss = sum_kept w_t * [ logsumexp(z_t) - z_t[target_t] ],
    dz_t = w_t * (softmax(z_t) - onehot_t) on kept rows, 0 elsewhere.
    Returns exact 0 when every position is ignored.
    """
    z = logits.data
    if z.ndim != 2:
        raise ShapeError(f"cross entropy expects [t x V] logits, got {z.shape}")
    tgt = np.asarray(targets, dtype=np.intp)
    if tgt.shape != (z.shape[0],):
        raise ShapeError(f"target length {tgt.shape} does not match {z.shape[0]} positions")
    kept = tgt != ignore_id
    if kept.any():
        bad = tgt[kept]
        if bad.min() < 0 or bad.max() >= z.shape[1]:
            raise IndexError(
                f"target id out of range [0, {z.shape[1]}): min={bad.min()}, max={bad.max()}"
            )
    if weights is not None and np.shape(weights) != tgt.shape:
        raise ShapeError(f"weights shape {np.shape(weights)} does not match {tgt.shape}")
    if not kept.any():
        out = Tensor(0.0, requires_grad=logits.requires_grad)

        def zero_fn(g: np.ndarray):
            return [(logits, np.zeros_like(z))]

        return record_op(out, zero_fn)
    weights = kept / kept.sum() if weights is None else np.where(kept, weights, 0.0)

    zmax = z.max(axis=-1, keepdims=True)
    ex = np.exp(z - zmax)
    lse = np.log(ex.sum(axis=-1)) + zmax[:, 0]
    rows = np.arange(z.shape[0])
    nll = lse - z[rows, tgt.clip(0, z.shape[1] - 1)]
    loss_val = float(nll[kept] @ weights[kept])
    out = Tensor(loss_val, requires_grad=logits.requires_grad)

    def grad_fn(g: np.ndarray):
        gz = ex / ex.sum(axis=-1, keepdims=True)  # a new array: ex is read again on a replay
        gz[rows[kept], tgt[kept]] -= 1.0
        gz *= (weights * float(g))[:, None]
        return [(logits, gz)]

    return record_op(out, grad_fn)
