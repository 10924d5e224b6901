import math

import numpy as np
import pytest

from smoe.errors import ConfigError
from smoe.nn import (
    AttentionParams,
    FFNParams,
    LayerNormParams,
    attention_forward,
    attention_probs,
    causal_mask,
    ffn_forward,
    ffn_param_count,
    layer_norm_params,
    pre_norm_residual,
    sinusoidal_positions,
)
from smoe.numerics import Tensor, constant, grad_check, parameter, sum_all


def make_ffn(d_model, d_ff, glu, seed=0):
    return FFNParams.init(d_model, d_ff, glu, np.random.default_rng(seed))


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
    p = make_ffn(6, 10, glu, seed=1)
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
    p = make_ffn(6, 10, glu)
    total = sum(t.size for _, t in p.tensors())
    assert total == ffn_param_count(6, 10, glu)


def test_attention_zero_qk_uniform_weights():
    rng = np.random.default_rng(5)
    p = AttentionParams.init(8, 1, rng)
    p.w_q.data[:] = 0.0
    p.b_q.data[:] = 0.0
    p.w_k.data[:] = 0.0
    p.b_k.data[:] = 0.0
    x = constant(rng.normal(size=(5, 8)))
    w = attention_probs(p, x, x).data
    np.testing.assert_allclose(w, np.full((1, 5, 5), 1.0 / 5.0), atol=1e-12)


def test_attention_causal_first_position_self_only():
    rng = np.random.default_rng(6)
    p = AttentionParams.init(8, 2, rng)
    x = constant(rng.normal(size=(3, 8)))
    w = attention_probs(p, x, x, mask=causal_mask(3)).data
    np.testing.assert_allclose(w[:, 0, 0], np.ones(2), atol=1e-15)
    assert np.all(w[:, 0, 1:] == 0.0)


def test_attention_rows_are_distributions():
    rng = np.random.default_rng(7)
    p = AttentionParams.init(12, 3, rng)
    q = constant(rng.normal(size=(4, 12)))
    kv = constant(rng.normal(size=(6, 12)))
    mask = rng.random((4, 6)) > 0.3
    mask[:, 0] = True  # keep every row satisfiable
    w = attention_probs(p, q, kv, mask=mask).data
    np.testing.assert_allclose(w.sum(axis=-1), np.ones((3, 4)), atol=1e-10)
    assert np.all(w >= 0.0)
    assert np.all(w[:, ~mask] == 0.0)


def test_attention_grad_check():
    rng = np.random.default_rng(8)
    p = AttentionParams.init(6, 2, rng)
    x = constant(rng.normal(size=(4, 6)))
    probe = constant(rng.normal(size=(4, 6)))

    def f():
        from smoe.numerics import mul

        return sum_all(mul(attention_forward(p, x, x, x, mask=causal_mask(4)), probe))

    report = grad_check(f, [(n, t) for n, t in p.tensors()], tolerance=1e-4)
    assert report.passed, report.summary()


def test_sinusoidal_positions_closed_form():
    pe = sinusoidal_positions(4, 6).data
    np.testing.assert_allclose(pe[0], [0, 1, 0, 1, 0, 1], atol=1e-15)
    assert pe[1, 0] == pytest.approx(math.sin(1.0), abs=1e-12)
    assert pe[1, 1] == pytest.approx(math.cos(1.0), abs=1e-12)
    assert np.all(pe <= 1.0) and np.all(pe >= -1.0)
    with pytest.raises(ConfigError):
        sinusoidal_positions(4, 7)


def test_pre_norm_residual_identity_block():
    rng = np.random.default_rng(9)
    x = constant(rng.normal(size=(3, 8)))
    ln = LayerNormParams.init(8)

    def zero_block(h: Tensor) -> Tensor:
        return constant(np.zeros(h.shape))

    out = pre_norm_residual(zero_block, ln, x)
    np.testing.assert_array_equal(out.data, x.data)


def test_pre_norm_layernorm_statistics():
    rng = np.random.default_rng(10)
    x = constant(rng.normal(size=(5, 16)) * 4 + 2)
    ln = LayerNormParams.init(16)
    normed = layer_norm_params(ln, x)
    np.testing.assert_allclose(normed.data.mean(axis=-1), np.zeros(5), atol=1e-12)
    np.testing.assert_allclose(normed.data.var(axis=-1), np.ones(5), rtol=1e-3)


def test_pre_norm_eval_mode_deterministic():
    rng = np.random.default_rng(11)
    ffn = make_ffn(8, 16, True, seed=2)
    ln = LayerNormParams.init(8)
    x = constant(rng.normal(size=(3, 8)))
    a = pre_norm_residual(lambda h: ffn_forward(ffn, h), ln, x, dropout_rate=0.5, training=False)
    b = pre_norm_residual(lambda h: ffn_forward(ffn, h), ln, x, dropout_rate=0.5, training=False)
    assert np.array_equal(a.data, b.data)


@pytest.mark.parametrize("glu", [False, True])
def test_ffn_block_grad_check(glu):
    rng = np.random.default_rng(12)
    p = make_ffn(8, 12, glu, seed=3)
    x = constant(rng.normal(size=(3, 8)))
    probe = constant(rng.normal(size=(3, 8)))

    def f():
        from smoe.numerics import mul

        return sum_all(mul(ffn_forward(p, x), probe))

    report = grad_check(f, p.tensors(), tolerance=1e-4)
    assert report.passed, report.summary()
