import math

import numpy as np
import pytest

from smoe.errors import ConfigError, ShapeError
from smoe.nn import (
    AttentionParams,
    FFNParams,
    LayerNormParams,
    attention_forward,
    attention_shapes,
    attention_sublayer,
    ffn_forward,
    ffn_shapes,
    layer_norm_params,
    layer_norm_shapes,
    pre_norm_residual,
    sinusoidal_positions,
)
from smoe.numerics import (
    Tape, Tensor, backward, constant, grad_check, linear, mul, record_op, sum_all,
)

from blocks import build_block, composed_attention_sublayer
from tape_ops import parameter


def make_ffn(d_model, d_ff, glu, seed=0):
    return build_block(FFNParams, ffn_shapes(d_model, d_ff, glu), np.random.default_rng(seed))


def make_attention(d_model, n_heads, rng):
    return build_block(AttentionParams, attention_shapes(d_model), rng, n_heads=n_heads)[0]


def make_norm(d_model):
    return build_block(LayerNormParams, layer_norm_shapes(d_model))[0]


def test_ffn_zero_weights_zero_output():
    p = FFNParams(
        w_in=parameter(np.zeros((4, 8))),
        b_in=parameter(np.zeros(8)),
        w_out=parameter(np.zeros((8, 4))),
        b_out=parameter(np.zeros(4)),
    )
    out = ffn_forward(p, constant(np.random.default_rng(0).normal(size=(3, 4))))
    assert np.array_equal(out.data, np.zeros((3, 4)))


def test_ffn_scalar_chain_1x1():
    # glu off, 1x1 weights: out = silu(x*w_in + b_in)*w_out + b_out
    p = FFNParams(
        w_in=parameter([[2.0]]),
        b_in=parameter([0.5]),
        w_out=parameter([[3.0]]),
        b_out=parameter([-1.0]),
    )
    x = 0.7
    pre = x * 2.0 + 0.5
    hidden = pre / (1.0 + math.exp(-pre))
    expected = hidden * 3.0 - 1.0
    out = ffn_forward(p, constant([[x]]))
    assert out.data[0, 0] == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("glu", [False, True])
def test_ffn_matches_straight_line_oracle(glu):
    rng = np.random.default_rng(3)
    p, _ = make_ffn(6, 10, glu, seed=1)
    x = rng.normal(size=(4, 6))

    def np_silu(a):
        return a / (1.0 + np.exp(-a))

    h = np_silu(x @ p.w_in.data + p.b_in.data)
    if glu:
        h = h * (x @ p.w_gate.data + p.b_gate.data)
    expected = h @ p.w_out.data + p.b_out.data
    out = ffn_forward(p, constant(x))
    np.testing.assert_allclose(out.data, expected, rtol=1e-13)


@pytest.mark.parametrize("glu", [False, True])
def test_ffn_param_count_matches_enumeration(glu):
    _, params = make_ffn(6, 10, glu)
    matrices, biases = (3, 2 * 10 + 6) if glu else (2, 10 + 6)
    assert sum(t.size for _, t in params) == matrices * 6 * 10 + biases


def projected_values(p, x):
    """Each row of x as the attention block outputs it when that row is
    the only key it reads: its value projection, projected out."""
    return (x @ p.w_v.data + p.b_v.data) @ p.w_o.data + p.b_o.data


def test_attention_zero_qk_uniform_weights():
    # equal scores: every query reads the mean of the projected values
    rng = np.random.default_rng(5)
    p = make_attention(8, 1, rng)
    p.w_q.data[:] = 0.0
    p.b_q.data[:] = 0.0
    p.w_k.data[:] = 0.0
    p.b_k.data[:] = 0.0
    x = rng.normal(size=(5, 8))
    out = attention_forward(p, constant(x), constant(x), constant(x)).data
    mean_value = projected_values(p, x).mean(axis=0)
    np.testing.assert_allclose(out, np.tile(mean_value, (5, 1)), atol=1e-12)


def test_attention_causal_first_position_self_only():
    rng = np.random.default_rng(6)
    p = make_attention(8, 2, rng)
    x = rng.normal(size=(4, 8))
    out = attention_forward(p, constant(x), constant(x), constant(x), causal=True).data
    np.testing.assert_allclose(out[0], projected_values(p, x[:1])[0], atol=1e-12)
    for t in range(1, 4):  # changing positions t.. leaves the outputs before t unchanged
        changed = x.copy()
        changed[t:] = rng.normal(size=(4 - t, 8))
        got = attention_forward(
            p, constant(changed), constant(changed), constant(changed), causal=True
        ).data
        assert np.array_equal(got[:t], out[:t]), t
        assert not np.allclose(got[t:], out[t:])


def test_attention_reads_only_its_own_sample():
    # three packed samples, the first and last of equal lengths: each
    # sample's output is its own attention, untouched by rows of the others
    rng = np.random.default_rng(7)
    p = make_attention(12, 3, rng)
    q_lengths, k_lengths = [2, 3, 2], [4, 1, 4]
    q = rng.normal(size=(7, 12))
    kv = rng.normal(size=(9, 12))
    q_off, k_off = np.cumsum([0] + q_lengths), np.cumsum([0] + k_lengths)
    out = attention_forward(p, constant(q), constant(kv), constant(kv), q_lengths, k_lengths).data
    for i in range(3):
        qs, ks = slice(q_off[i], q_off[i + 1]), slice(k_off[i], k_off[i + 1])
        alone = attention_forward(p, constant(q[qs]), constant(kv[ks]), constant(kv[ks])).data
        np.testing.assert_allclose(out[qs], alone, rtol=1e-12, atol=1e-14)
        others = kv.copy()
        others[: k_off[i]] += 1.0  # keys before sample i's,
        others[k_off[i + 1] :] -= 1.0  # and past its k_lengths[i]
        got = attention_forward(p, constant(q), constant(others), constant(others),
                                q_lengths, k_lengths).data
        assert np.array_equal(got[qs], out[qs]), i
        assert not np.allclose(np.delete(got, np.s_[qs], axis=0), np.delete(out, np.s_[qs], axis=0))
    one_key = projected_values(p, kv[4:5])  # sample 1 has one key: every query reads its value
    np.testing.assert_allclose(out[q_off[1] : q_off[2]], np.tile(one_key, (3, 1)), atol=1e-12)


def test_attention_grad_check():
    rng = np.random.default_rng(8)
    p, params = build_block(AttentionParams, attention_shapes(6), rng, n_heads=2)
    x = constant(rng.normal(size=(4, 6)))
    probe = constant(rng.normal(size=(4, 6)))

    def f():
        return sum_all(mul(attention_forward(p, x, x, x, causal=True), probe))

    report = grad_check(f, params, tolerance=1e-4)
    assert report.passed, report.summary()


def test_sinusoidal_positions_closed_form():
    pe = sinusoidal_positions(4, 6)
    np.testing.assert_allclose(pe[0], [0, 1, 0, 1, 0, 1], atol=1e-15)
    assert pe[1, 0] == pytest.approx(math.sin(1.0), abs=1e-12)
    assert pe[1, 1] == pytest.approx(math.cos(1.0), abs=1e-12)
    assert np.all(pe <= 1.0) and np.all(pe >= -1.0)
    with pytest.raises(ConfigError):
        sinusoidal_positions(4, 7)


def test_positions_are_read_only_slices_of_one_table():
    def closed_form(t, d):  # the per-length table built before the memo
        angles = np.arange(t, dtype=np.float64)[:, None] / np.power(
            10000.0, 2.0 * np.arange(d // 2, dtype=np.float64)[None, :] / d)
        out = np.zeros((t, d))
        out[:, 0::2], out[:, 1::2] = np.sin(angles), np.cos(angles)
        return out

    d = 10  # no other test asks for this width
    long, short = sinusoidal_positions(37, d), sinusoidal_positions(5, d)
    assert np.array_equal(long, closed_form(37, d)) and np.array_equal(short, closed_form(5, d))
    assert short.base is long.base and np.shares_memory(short, long)
    with pytest.raises(ValueError, match="read-only"):
        short[0, 0] = 1.0
    longer = sinusoidal_positions(64, d)  # a longer length rebuilds the table
    assert np.array_equal(longer, closed_form(64, d)) and not longer.flags.writeable
    assert np.shares_memory(sinusoidal_positions(37, d), longer)


def test_pre_norm_residual_identity_block():
    rng = np.random.default_rng(9)
    x = constant(rng.normal(size=(3, 8)))
    ln = make_norm(8)

    def zero_block(h: Tensor) -> Tensor:
        return constant(np.zeros(h.shape))

    out = pre_norm_residual(zero_block, ln, x)
    np.testing.assert_array_equal(out.data, x.data)


def test_pre_norm_layernorm_statistics():
    rng = np.random.default_rng(10)
    x = constant(rng.normal(size=(5, 16)) * 4 + 2)
    ln = make_norm(16)
    normed = layer_norm_params(ln, x)
    np.testing.assert_allclose(normed.data.mean(axis=-1), np.zeros(5), atol=1e-12)
    np.testing.assert_allclose(normed.data.var(axis=-1), np.ones(5), rtol=1e-3)


def test_pre_norm_eval_mode_deterministic():
    rng = np.random.default_rng(11)
    ffn, _ = make_ffn(8, 16, True, seed=2)
    ln = make_norm(8)
    x = constant(rng.normal(size=(3, 8)))
    a = pre_norm_residual(lambda h: ffn_forward(ffn, h), ln, x, dropout_rate=0.5)
    b = pre_norm_residual(lambda h: ffn_forward(ffn, h), ln, x, dropout_rate=0.5)
    assert np.array_equal(a.data, b.data)


@pytest.mark.parametrize("glu", [False, True])
def test_ffn_block_grad_check(glu):
    rng = np.random.default_rng(12)
    p, params = make_ffn(8, 12, glu, seed=3)
    x = constant(rng.normal(size=(3, 8)))
    probe = constant(rng.normal(size=(3, 8)))

    def f():
        return sum_all(mul(ffn_forward(p, x), probe))

    report = grad_check(f, params, tolerance=1e-4)
    assert report.passed, report.summary()


# -- the fused feedforward node against the composition it replaced ---------------


def activation_node(a: Tensor, activation: str) -> Tensor:
    """The silu or relu tape op as it was before the fused node: silu(a) = a
    * sig, d/da = sig * (1 + a * (1 - sig)); relu(a) = max(a, 0)."""
    if activation == "silu":
        sig = 1.0 / (1.0 + np.exp(-a.data))
        out, slope = a.data * sig, lambda g: g * sig * (1.0 + a.data * (1.0 - sig))
    else:
        out, slope = np.maximum(a.data, 0.0), lambda g: g * (a.data > 0.0)
    return record_op(Tensor(out, requires_grad=a.requires_grad), lambda g: [(a, slope(g))])


def five_node_ffn(p: FFNParams, x: Tensor, activation: str) -> Tensor:
    """The feedforward block as three `linear`, the activation and the GLU `mul`."""
    h = activation_node(linear(x, p.w_in, p.b_in), activation)
    if p.glu:
        h = mul(h, linear(x, p.w_gate, p.b_gate))
    return linear(h, p.w_out, p.b_out)


@pytest.mark.parametrize("rows", [1, 7])
@pytest.mark.parametrize("activation", ["silu", "relu"])
@pytest.mark.parametrize("glu", [False, True])
def test_fused_ffn_matches_five_node_composition(glu, activation, rows):
    rng = np.random.default_rng(13)
    p, params = make_ffn(6, 10, glu, seed=4)
    x = parameter(rng.normal(size=(rows, 6)))
    probe = constant(rng.normal(size=(rows, 6)))
    leaves = [x, *(t for _, t in params)]
    runs = []
    for forward in (ffn_forward, five_node_ffn):
        for t in leaves:
            t.zero_grad()
        with Tape() as tape:
            out = forward(p, x, activation)
            n_nodes = len(tape)
            loss = sum_all(mul(out, probe))
        backward(loss, tape)
        runs.append((out.data, n_nodes, [t.grad for t in leaves]))
    (got, got_nodes, got_grads), (want, want_nodes, want_grads) = runs
    assert np.array_equal(got, want)
    assert (got_nodes, want_nodes) == (1, 5 if glu else 3)
    for g, w in zip(got_grads, want_grads):
        np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("glu", [False, True])
def test_fused_ffn_relu_grad_check(glu):
    rng = np.random.default_rng(14)
    p, params = make_ffn(8, 12, glu, seed=5)
    x = parameter(rng.normal(size=(3, 8)))
    probe = constant(rng.normal(size=(3, 8)))

    def f():
        return sum_all(mul(ffn_forward(p, x, "relu"), probe))

    report = grad_check(f, [("x", x), *params], tolerance=1e-4)
    assert report.passed, report.summary()


# -- the fused attention sublayer against the composition it replaced --------------


SUBLAYER_CASES = {  # (layers, q_lengths, k_lengths, causal, cross-attention)
    "encoder-self-mixed-lengths": (1, [5, 3, 5, 1, 3, 3], None, False, False),
    "decoder-causal-padded": (1, [6, 6, 6], None, True, False),
    "cross-two-layers": (2, [4, 4, 4], [7, 2, 5], False, True),
}


def sublayer_blocks(n_layers, d, rng):
    """n_layers (attention, layer norm) pairs and all their tensors; the
    norms get random gains and biases so neither is the identity."""
    blocks, tensors = [], []
    for _ in range(n_layers):
        attn, attn_params = build_block(AttentionParams, attention_shapes(d), rng, n_heads=4)
        ln, ln_params = build_block(LayerNormParams, layer_norm_shapes(d))
        for _, t in ln_params:
            t.data[...] = rng.normal(size=t.shape)
        blocks.append((attn, ln))
        tensors += [t for _, t in attn_params + ln_params]
    return blocks, tensors


@pytest.mark.parametrize("rate", [0.0, 0.15])
@pytest.mark.parametrize("case", list(SUBLAYER_CASES))
def test_fused_attention_sublayer_matches_seven_node_composition(case, rate):
    n_layers, q_lengths, k_lengths, causal, cross = SUBLAYER_CASES[case]
    d, rng = 24, np.random.default_rng(19)
    blocks, tensors = sublayer_blocks(n_layers, d, rng)
    x = parameter(rng.normal(size=(sum(q_lengths), d)))
    if causal:  # each sample's last two positions hold one padding row
        x.data.reshape(len(q_lengths), -1, d)[:, -2:] = x.data[0]
    memory = parameter(rng.normal(size=(sum(k_lengths), d))) if cross else None
    probe = constant(rng.normal(size=x.shape))
    leaves = [x, *tensors] + ([memory] if cross else [])
    runs = []
    for sublayer in (attention_sublayer, composed_attention_sublayer):
        for t in leaves:
            t.zero_grad()
        dropout_rng = np.random.default_rng(23)
        with Tape() as tape:
            h = x
            for p, ln in blocks:
                h = sublayer(p, ln, h, memory, q_lengths, k_lengths or q_lengths, causal,
                             rate, dropout_rng)
            n_nodes = len(tape)
            loss = sum_all(mul(h, probe))
        backward(loss, tape)
        runs.append((h.data, n_nodes, [t.grad for t in leaves]))
    (got, got_nodes, got_grads), (want, want_nodes, want_grads) = runs
    assert (got_nodes, want_nodes) == (n_layers, n_layers * (8 if rate else 7))
    assert np.array_equal(got, want)
    for g, w in zip(got_grads, want_grads, strict=True):
        assert g is not None and np.array_equal(g, w)


@pytest.mark.parametrize("case", list(SUBLAYER_CASES))
def test_fused_attention_sublayer_grad_check(case):
    n_layers, q_lengths, k_lengths, causal, cross = SUBLAYER_CASES[case]
    d, rng = 8, np.random.default_rng(20)
    blocks, tensors = sublayer_blocks(n_layers, d, rng)
    x = parameter(rng.normal(size=(sum(q_lengths), d)))
    memory = parameter(rng.normal(size=(sum(k_lengths), d))) if cross else None
    probe = constant(rng.normal(size=x.shape))

    def f():
        h = x
        for p, ln in blocks:
            h = attention_sublayer(p, ln, h, memory, q_lengths, k_lengths or q_lengths, causal)
        return sum_all(mul(h, probe))

    named = [("x", x), *((f"t{i}", t) for i, t in enumerate(tensors))]
    report = grad_check(f, named + ([("memory", memory)] if cross else []), step=1e-6,
                        max_coords_per_param=6, rng=np.random.default_rng(0))
    assert report.passed, report.summary()


def test_fused_attention_sublayer_rejects_bad_inputs():
    rng = np.random.default_rng(21)
    [(p, ln)], _ = sublayer_blocks(1, 8, rng)
    x = constant(rng.normal(size=(4, 8)))
    with pytest.raises(ShapeError):
        attention_sublayer(p, ln, constant(np.zeros((4, 6))))
    with pytest.raises(ShapeError):
        attention_sublayer(p, ln, x, constant(np.zeros((3, 6))))
    with pytest.raises(ShapeError):
        attention_sublayer(p, ln, x, q_lengths=[], k_lengths=[])
