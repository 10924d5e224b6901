import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import smoe.halves
from smoe.errors import ContractError, ShapeError
from smoe.halves import SPLIT_MIN_MACS, split_parts
from smoe.nn import FFNParams, ffn_forward
from smoe.numerics import (
    Tape,
    add,
    affine_rows,
    attention,
    attention_rows,
    backward,
    constant,
    dropout,
    embedding,
    ffn_rows,
    gather_rows,
    grad_check,
    layer_norm,
    linear,
    matmul_columns,
    mul,
    normalize,
    scatter_rows,
    softmax_cross_entropy,
    sum_all,
)

from splits import one_part_then_split
from tape_ops import (
    attention_by_gathers, bmm, gather_add_at, matmul, parameter, permute, reshape, scale,
    softmax_last,
)


def test_matmul_identity():
    eye = constant(np.eye(2))
    m = constant([[1.0, 2.0], [3.0, 4.0]])
    out = matmul(eye, m)
    assert np.array_equal(out.data, m.data)


def test_matmul_row_times_column():
    a = constant([[1.0, 2.0]])
    b = constant([[3.0], [4.0]])
    assert matmul(a, b).data[0, 0] == 11.0


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
        matmul(constant(np.zeros((2, 3))), constant(np.zeros((2, 3))))


def test_matmul_grad_of_sum_is_ones_times_b_transpose():
    rng = np.random.default_rng(7)
    a = parameter(rng.normal(size=(3, 4)))
    b = parameter(rng.normal(size=(4, 2)))
    tape = Tape()
    with tape:
        loss = sum_all(matmul(a, b))
    backward(loss, tape)
    expected = np.ones((3, 2)) @ b.data.T
    np.testing.assert_allclose(a.grad, expected, rtol=1e-12)

    report = grad_check(lambda: sum_all(matmul(a, b)), [("a", a), ("b", b)], step=1e-6)
    assert report.passed and report.max_rel_err < 1e-6


def test_cross_entropy_uniform_logits():
    logits = parameter(np.zeros((3, 4)))
    loss = softmax_cross_entropy(logits, [0, 1, 2], ignore_id=-1)
    assert loss.data == pytest.approx(np.log(4.0), abs=1e-12)


def test_cross_entropy_saturated_logits():
    z = np.zeros((2, 5))
    z[0, 3] = 20.0
    z[1, 1] = 20.0
    loss = softmax_cross_entropy(constant(z), [3, 1], ignore_id=-1)
    assert loss.data < 1e-6


def test_cross_entropy_matches_per_position_logsumexp():
    rng = np.random.default_rng(11)
    z = rng.normal(size=(5, 7))
    targets = [3, 0, 6, 2, 5]
    # independent per-position oracle
    expected = 0.0
    for t in range(5):
        row = z[t]
        expected += np.log(np.exp(row).sum()) - row[targets[t]]
    expected /= 5
    loss = softmax_cross_entropy(constant(z), targets, ignore_id=-1)
    assert loss.data == pytest.approx(expected, rel=1e-12)


def test_cross_entropy_ignores_and_empty():
    z = np.random.default_rng(0).normal(size=(3, 4))
    all_ignored = softmax_cross_entropy(constant(z), [9, 9, 9], ignore_id=9)
    assert all_ignored.data == 0.0
    with pytest.raises(IndexError):
        softmax_cross_entropy(constant(z), [0, 4, 1], ignore_id=-1)


def test_cross_entropy_gradient_vs_fd():
    rng = np.random.default_rng(3)
    logits = parameter(rng.normal(size=(4, 6)))
    targets = [5, 0, 0, 3]
    report = grad_check(
        lambda: softmax_cross_entropy(logits, targets, ignore_id=0),
        [("logits", logits)],
        step=1e-5,
        tolerance=1e-7,
    )
    assert report.passed


def test_backward_sum_gives_ones():
    w = parameter(np.random.default_rng(1).normal(size=(2, 3)))
    tape = Tape()
    with tape:
        loss = sum_all(w)
    backward(loss, tape)
    assert np.array_equal(w.grad, np.ones((2, 3)))


def test_backward_sum_of_squares():
    w = parameter(np.random.default_rng(2).normal(size=(4,)))
    tape = Tape()
    with tape:
        loss = sum_all(mul(w, w))
    backward(loss, tape)
    np.testing.assert_allclose(w.grad, 2.0 * w.data, rtol=1e-15)


def test_backward_needs_scalar():
    w = parameter(np.ones((2, 2)))
    tape = Tape()
    with tape:
        y = mul(w, w)
    with pytest.raises(ContractError):
        backward(y, tape)


def test_backward_two_layer_net_vs_fd():
    # a feedforward block (3 -> 5 -> 3, silu, no GLU) under cross entropy
    rng = np.random.default_rng(5)
    w1 = parameter(rng.normal(size=(3, 5)) * 0.5)
    b1 = parameter(rng.normal(size=(5,)) * 0.1)
    w2 = parameter(rng.normal(size=(5, 3)) * 0.5)
    b2 = parameter(rng.normal(size=(3,)) * 0.1)
    x = constant(rng.normal(size=(4, 3)))
    p = FFNParams(w_in=w1, b_in=b1, w_out=w2, b_out=b2)

    def f():
        return softmax_cross_entropy(ffn_forward(p, x), [0, 1, 2, 1], ignore_id=-1)

    report = grad_check(
        f, [("w1", w1), ("b1", b1), ("w2", w2), ("b2", b2)], step=1e-5, tolerance=1e-4
    )
    assert report.passed, report.summary()


def test_unreached_parameters_keep_no_grad():
    used = parameter(np.ones((2, 2)))
    unused = parameter(np.ones((2, 2)))
    tape = Tape()
    with tape:
        side = mul(unused, unused)  # computed but not on the loss path
        loss = sum_all(mul(used, used))
    backward(loss, tape)
    assert used.grad is not None
    assert unused.grad is None
    assert side.grad is None


def test_grad_accumulates_across_backward_calls():
    w = parameter(np.ones((3,)))
    for _ in range(2):
        tape = Tape()
        with tape:
            loss = sum_all(w)
        backward(loss, tape)
    assert np.array_equal(w.grad, 2.0 * np.ones((3,)))


def test_determinism_same_seed_bitwise():
    def run():
        rng = np.random.default_rng(42)
        p = FFNParams(*(parameter(rng.normal(size=shape)) for shape in
                        ((4, 6), (6,), (6, 4), (4,), (4, 6), (6,))))
        x = constant(rng.normal(size=(2, 4)))
        tape = Tape()
        with tape:
            loss = sum_all(ffn_forward(p, x))
        backward(loss, tape)
        return loss.data.copy(), [t.grad.copy() for t in p.tensors()]

    l1, g1 = run()
    l2, g2 = run()
    assert l1 == l2
    assert all(np.array_equal(a, b) for a, b in zip(g1, g2))


def test_softmax_rows_sum_to_one_and_grad():
    rng = np.random.default_rng(9)
    z = parameter(rng.normal(size=(3, 6)))
    y = softmax_last(z)
    np.testing.assert_allclose(y.data.sum(axis=-1), np.ones(3), atol=1e-12)

    def f():
        return sum_all(mul(softmax_last(z), constant(rng2.normal(size=(3, 6)))))

    rng2 = np.random.default_rng(10)
    fixed = constant(np.random.default_rng(10).normal(size=(3, 6)))

    def f2():
        return sum_all(mul(softmax_last(z), fixed))

    report = grad_check(f2, [("z", z)], tolerance=1e-7)
    assert report.passed


def test_layer_norm_statistics_and_grad():
    rng = np.random.default_rng(12)
    x = parameter(rng.normal(size=(5, 8)) * 3 + 1)
    gain = parameter(np.ones(8))
    bias = parameter(np.zeros(8))
    y = layer_norm(x, gain, bias)
    np.testing.assert_allclose(y.data.mean(axis=-1), np.zeros(5), atol=1e-10)
    np.testing.assert_allclose(y.data.var(axis=-1), np.ones(5), rtol=1e-4)

    probe = constant(rng.normal(size=(5, 8)))

    def f():
        return sum_all(mul(layer_norm(x, gain, bias), probe))

    report = grad_check(f, [("x", x), ("gain", gain), ("bias", bias)], tolerance=1e-6)
    assert report.passed, report.summary()


def test_embedding_gather_and_scatter_grad():
    table = parameter(np.arange(12, dtype=np.float64).reshape(4, 3))
    extra = np.full((3, 3), 0.5)
    out = embedding(table, [2, 0, 2], 2.0, extra)
    np.testing.assert_array_equal(out.data, table.data[[2, 0, 2]] * 2.0 + 0.5)
    tape = Tape()
    with tape:
        loss = sum_all(embedding(table, [2, 0, 2], 2.0, extra))
    backward(loss, tape)
    expected = np.zeros((4, 3))
    expected[2] = 4.0  # appears twice, times the factor
    expected[0] = 2.0
    np.testing.assert_array_equal(table.grad, expected)
    with pytest.raises(IndexError):
        embedding(table, [4], 2.0, np.zeros((1, 3)))


def test_gather_rows_backward_is_the_scatter_add_of_distinct_rows():
    """The encoder dispatch's gather writes g + 0.0 where a gather by
    np.add.at scatter-adds g onto zeros: the same bits, a -0.0 gradient
    included."""
    rng = np.random.default_rng(21)
    x = parameter(rng.normal(size=(6, 3)))
    rows = np.array([4, 0, 2])
    g = rng.normal(size=(3, 3))
    g[0, 1] = g[2, 0] = -0.0
    runs = []
    for gather in (gather_rows, gather_add_at):
        x.zero_grad()
        with Tape() as tape:
            out = gather(x, rows)
            loss = sum_all(mul(out, constant(g)))
        backward(loss, tape)
        runs.append((out.data, x.grad))
    for got, want in zip(*runs):
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert np.signbit(runs[0][1]).sum() == np.signbit(g).sum() - 2  # each -0.0 became +0.0


def test_entry_ops_add_their_extra_rows_last_and_reject_another_shape():
    rng = np.random.default_rng(22)
    x, w, b = constant(rng.normal(size=(2, 3))), parameter(rng.normal(size=(3, 4))), parameter(
        rng.normal(size=4))
    table, extra = parameter(rng.normal(size=(5, 4))), rng.normal(size=(2, 4))
    assert np.array_equal(linear(x, w, b, extra).data, add(linear(x, w, b), constant(extra)).data)
    assert np.array_equal(embedding(table, [3, 3], 2.0, extra).data,
                          add(scale(gather_add_at(table, [3, 3]), 2.0), constant(extra)).data)
    with pytest.raises(ShapeError, match="extra"):
        linear(x, w, b, np.zeros((2, 3)))
    with pytest.raises(ShapeError, match="extra"):
        embedding(table, [1, 2], 2.0, np.zeros((3, 4)))


def test_reshape_permute_roundtrip_grads():
    rng = np.random.default_rng(13)
    x = parameter(rng.normal(size=(2, 3, 4)))
    probe = constant(rng.normal(size=(4, 3, 2)))

    def f():
        return sum_all(mul(permute(x, (2, 1, 0)), probe))

    report = grad_check(f, [("x", x)], tolerance=1e-8)
    assert report.passed

    y = reshape(x, (6, 4))
    assert y.data.shape == (6, 4)


def test_batched_matmul_matches_loop():
    rng = np.random.default_rng(14)
    a = rng.normal(size=(3, 2, 5))
    b = rng.normal(size=(3, 5, 4))
    out = bmm(constant(a), constant(b))
    for i in range(3):
        np.testing.assert_allclose(out.data[i], a[i] @ b[i], rtol=1e-14)

    ap, bp = parameter(a), parameter(b)
    report = grad_check(
        lambda: sum_all(bmm(ap, bp)), [("a", ap), ("b", bp)], tolerance=1e-7
    )
    assert report.passed


def test_linear_matches_matmul_add_and_grad_check():
    rng = np.random.default_rng(14)
    x, w, b = (parameter(rng.normal(size=shape)) for shape in ((5, 3), (3, 4), (4,)))
    assert np.array_equal(linear(x, w, b).data, add(matmul(x, w), b).data)
    probe = constant(rng.normal(size=(5, 4)))
    report = grad_check(lambda: sum_all(mul(linear(x, w, b), probe)),
                        [("x", x), ("w", w), ("b", b)], step=1e-6)
    assert report.passed, report.summary()
    with pytest.raises(ShapeError):
        linear(x, w, parameter(np.zeros(3)))


ATTENTION_CASES = {  # (q_lengths, k_lengths, causal, self-attention)
    "ragged-self": ([3, 1, 3, 2], [3, 1, 3, 2], False, True),
    "causal": ([2, 1, 3], [3, 1, 3], True, False),  # bottom-right aligned where t_q < t_k
    "cross": ([2, 2, 1], [4, 1, 4], False, False),
    "single": (None, None, False, False),
}


@pytest.mark.parametrize("case", list(ATTENTION_CASES))
def test_attention_grad_check(case):
    q_lengths, k_lengths, causal, self_attention = ATTENTION_CASES[case]
    rng = np.random.default_rng(15)
    n_q = 3 if q_lengths is None else sum(q_lengths)
    n_k = 5 if k_lengths is None else sum(k_lengths)
    q = parameter(rng.normal(size=(n_q, 4)))
    k = q if self_attention else parameter(rng.normal(size=(n_k, 4)))
    v = parameter(rng.normal(size=(n_k, 4)))
    probe = constant(rng.normal(size=(n_q, 4)))
    report = grad_check(
        lambda: sum_all(mul(attention(q, k, v, 2, q_lengths, k_lengths, causal), probe)),
        [("q", q), ("k", k), ("v", v)] if k is not q else [("q", q), ("v", v)], step=1e-6,
    )
    assert report.passed, report.summary()


def test_causal_attention_is_bottom_right_aligned():
    # the last t_q queries over all t_k keys read what they read in the
    # full causal self-attention: queries appended after cached keys
    rng = np.random.default_rng(16)
    x = constant(rng.normal(size=(5, 4)))
    full = attention(x, x, x, 2, causal=True).data
    for t_q in (1, 2, 4):
        tail = attention(constant(x.data[-t_q:]), x, x, 2, causal=True).data
        np.testing.assert_allclose(tail, full[-t_q:], rtol=1e-13, atol=1e-15)


@pytest.mark.parametrize("q_lengths, k_lengths, causal", [
    ([2, 2], [3, 3], False),  # query lengths sum to 4 of 5 rows
    ([2, 3], [3, 2], False),  # key lengths sum to 5 of 6 rows
    ([5, 0], [3, 3], False),  # an empty sample
    ([6, -1], [3, 3], False),  # a negative length
    ([5], [3, 3], False),  # counts differ
    ([2, 3], [4, 2], True),  # causal with t_q > t_k
    ([], [], False),  # no samples
])
def test_attention_rejects_malformed_lengths(q_lengths, k_lengths, causal):
    q, kv = constant(np.zeros((5, 4))), constant(np.zeros((6, 4)))
    with pytest.raises(ShapeError):
        attention(q, kv, kv, 2, q_lengths, k_lengths, causal)


@pytest.mark.parametrize("q_lengths, k_lengths, causal", [
    ([3, 1, 3, 2, 3], [3, 1, 3, 2, 3], False),  # groups of one sample and of scattered samples
    ([4, 4, 4], [4, 4, 4], True),  # one group of every row: a padded decoder batch
    ([2, 2, 1, 2], [5, 3, 6, 3], False),  # cross-attention, consecutive and scattered groups
    ([2, 1, 3], [3, 1, 3], True),  # causal with t_q < t_k
])
def test_attention_matches_the_gathering_op_bitwise(q_lengths, k_lengths, causal):
    # the in-place softmax, the slice reads and the in-place head-split
    # gradient writes compute bitwise what index gathers and fresh arrays did;
    # 6-wide heads, so the 1/sqrt(dh) scaling is inexact
    rng = np.random.default_rng(17)
    q = parameter(rng.normal(size=(sum(q_lengths), 12)))
    k, v = (parameter(rng.normal(size=(sum(k_lengths), 12))) for _ in range(2))
    probe = constant(rng.normal(size=q.shape))
    runs = []
    for op in (attention, attention_by_gathers):
        for t in (q, k, v):
            t.zero_grad()
        with Tape() as tape:
            out = op(q, k, v, 2, q_lengths, k_lengths, causal)
            loss = sum_all(mul(out, probe))
        backward(loss, tape)
        runs.append([out.data, q.grad, k.grad, v.grad])
    for got, want in zip(*runs):
        assert np.array_equal(got, want)


def test_layer_norm_backward_matches_the_mean_expression_bitwise():
    rng = np.random.default_rng(18)
    x, gain, bias = (parameter(rng.normal(size=shape)) for shape in ((2, 7, 12), (12,), (12,)))
    g = rng.normal(size=x.shape)
    with Tape() as tape:
        out = layer_norm(x, gain, bias)
        loss = sum_all(mul(out, constant(g)))
    backward(loss, tape)
    centered = x.data - x.data.mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt((centered * centered).mean(axis=-1, keepdims=True) + 1e-6)
    xhat = centered * inv_std
    g_hat = g * gain.data
    want = inv_std * (g_hat - g_hat.mean(axis=-1, keepdims=True)
                      - xhat * (g_hat * xhat).mean(axis=-1, keepdims=True))
    assert np.array_equal(x.grad, want)
    assert np.array_equal(gain.grad, (g * xhat).sum(axis=(0, 1)))
    assert np.array_equal(bias.grad, g.sum(axis=(0, 1)))


def _row_wise_normalize(x, gain, bias):
    """`normalize`'s expression for any number of rows, statistics as arrays."""
    d = x.shape[-1]
    centered = x - np.add.reduce(x, -1, keepdims=True) / d
    inv_std = 1.0 / np.sqrt(np.add.reduce(centered * centered, -1, keepdims=True) / d + 1e-6)
    xhat = centered * inv_std
    return xhat * gain + bias, xhat, inv_std


@settings(max_examples=300, deadline=None)
@given(d=st.sampled_from([2, 8, 16, 32, 64, 512, 2048]), seed=st.integers(0, 2**32 - 1),
       scale=st.integers(-8, 8), offset=st.one_of(st.none(), st.integers(-8, 8)),
       constant_row=st.booleans(), layout=st.sampled_from(["row", "last of [1 x t x d]",
                                                           "every other column"]))
def test_one_row_layer_norm_is_the_row_wise_expression_bitwise(
        d, seed, scale, offset, constant_row, layout):
    # the one-row path takes its statistics as Python floats; y, xhat and
    # inv_std must be bitwise (sign of zero included) those of the row-wise
    # expression, for contiguous rows and for one-row strided views
    rng = np.random.default_rng(seed)
    value = (np.full(d, rng.normal()) if constant_row else rng.normal(size=d)) * 10.0**scale
    if offset is not None:
        value += rng.uniform(-1.0, 1.0) * 10.0**offset
    if layout == "row":
        x = value[None]
    elif layout == "last of [1 x t x d]":
        t = int(rng.integers(1, 5))
        x = np.concatenate([rng.normal(size=(t - 1) * d), value]).reshape(1, t, d)[:, -1]
    else:
        x = np.stack([value, rng.normal(size=d)], axis=-1).reshape(1, 2 * d)[:, ::2]
    assert x.shape == (1, d) and np.array_equal(x[0], value)
    gain, bias = rng.normal(size=d), rng.normal(size=d)
    for got, want in zip(normalize(x, gain, bias), _row_wise_normalize(x, gain, bias)):
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


def test_dropout_train_eval_behavior():
    x = constant(np.ones((100, 50)))
    rng = np.random.default_rng(21)
    out = dropout(x, 0.3, rng)
    frac_zero = float((out.data == 0.0).mean())
    assert abs(frac_zero - 0.3) < 0.05
    kept = out.data[out.data != 0.0]
    np.testing.assert_allclose(kept, 1.0 / 0.7, rtol=1e-12)
    state = rng.bit_generator.state  # no rng, or rate 0, is the identity and draws nothing
    assert dropout(x, 0.3, None) is x and dropout(x, 0.0, rng) is x
    assert rng.bit_generator.state == state


def test_grad_check_trivial_and_scale():
    # zeros + power-of-two step keep the central difference exact in binary
    w = parameter(np.zeros(6))
    report = grad_check(lambda: sum_all(w), [("w", w)], step=2.0**-11, tolerance=0.0)
    assert report.passed and report.max_rel_err == 0.0
    w2 = parameter(np.random.default_rng(1).normal(size=(6,)))
    report2 = grad_check(lambda: sum_all(scale(w2, 2.5)), [("w2", w2)], tolerance=1e-9)
    assert report2.passed


def test_row_gather_scatter_grad_check():
    """The encoder's expert dispatch: rows gathered per group, each group
    through its own weights, scattered back; rows in no group stay 0."""
    rng = np.random.default_rng(12)
    x = parameter(rng.normal(size=(7, 4)))
    weights = [parameter(rng.normal(size=(4, 4))) for _ in range(2)]
    groups = [np.array([0, 3, 4]), np.array([6, 1])]  # rows 2 and 5 are padding
    probe = constant(rng.normal(size=(7, 4)))

    def dispatched():
        parts = [(matmul(gather_rows(x, rows), w), rows) for rows, w in zip(groups, weights)]
        return scatter_rows(parts, 7)

    out = dispatched().data
    for rows, w in zip(groups, weights):
        np.testing.assert_array_equal(out[rows], x.data[rows] @ w.data)
    assert np.all(out[[2, 5]] == 0.0)
    params = [("x", x), ("w0", weights[0]), ("w1", weights[1])]
    report = grad_check(lambda: sum_all(mul(dispatched(), probe)), params, step=1e-6)
    assert report.passed and report.max_rel_err < 1e-6, report.summary()
    assert np.all(x.grad[[2, 5]] == 0.0)


def test_scatter_rows_rejects_overlap_and_misfit():
    part = constant(np.ones((2, 3)))
    with pytest.raises(ShapeError, match="overlap"):
        scatter_rows([(part, np.array([0, 1])), (part, np.array([1, 2]))], 4)
    with pytest.raises(ShapeError, match="does not fit"):
        scatter_rows([(part, np.array([0, 1, 2]))], 4)


def _backward_storing_every_grad(loss, tape):
    """The rule before leaf-only storage: every tensor that received a
    gradient gets .grad, intermediate tensors included."""
    grads = {id(loss): np.ones((), dtype=np.float64)}
    holders = {id(loss): loss}
    for node in reversed(tape.nodes):
        out_grad = grads.get(id(node.output))
        if out_grad is None:
            continue
        for tensor, grad in node.grad_fn(out_grad):
            if not tensor.requires_grad:
                continue
            key = id(tensor)
            if key in grads:
                grads[key] = grads[key] + grad
            else:
                grads[key] = grad
                holders[key] = tensor
    for key, grad in grads.items():
        tensor = holders[key]
        if tensor.grad is None:
            tensor.grad = np.array(grad, dtype=np.float64, copy=True)
        else:
            tensor.grad = tensor.grad + grad


def test_backward_stores_grad_on_leaves_only():
    from smoe.data import SyntheticTaskSpec, make_paired_dataset
    from smoe.model import Model, ModelConfig
    from smoe.moe import Task
    from smoe.seqio import Vocabulary
    from smoe.train import Batch, batch_loss

    vocab = Vocabulary()
    items = make_paired_dataset(4, seed=1, task_spec=SyntheticTaskSpec.default(), vocab=vocab,
                                nb_fraction=0.5)
    model = Model(ModelConfig(n_enc_layers=1, n_dec_layers=1, d_model=16, d_ff=16, n_heads=2,
                              vocab_size=vocab.size, dropout=0.0, enc_smoe=True, dec_smoe=True))
    batch = Batch.build([it for it in items if it.task is Task.ASR])
    params = model.named_parameters()
    tape = Tape()
    with tape:
        loss = batch_loss(model, batch)
    inner = [node.output for node in tape.nodes]

    _backward_storing_every_grad(loss, tape)
    assert all(t.grad is not None for t in inner)  # the old rule wrote them all
    want = {n: None if t.grad is None else t.grad.copy() for n, t in params}
    for t in inner + [t for _, t in params]:
        t.grad = None

    backward(loss, tape)
    assert all(t.grad is None for t in inner)
    for n, t in params:
        assert (t.grad is None) == (want[n] is None), n
        if t.grad is not None:
            assert np.array_equal(t.grad, want[n]), n
    assert any(t.grad is None for _, t in params)  # the unrouted expert


# -- the forward's products in two parts: bitwise what one part computes -----


@pytest.mark.parametrize("n, grain", [(16, 8), (17, 8), (23, 8), (24, 8), (296, 8), (297, 8),
                                      (40000, 8), (2, 1), (3, 1), (8, 1)])
def test_split_parts_cuts_on_a_multiple_of_the_grain_near_the_middle(n, grain):
    lower, upper = split_parts(n, SPLIT_MIN_MACS, grain)
    assert (lower.start, lower.stop, upper.start, upper.stop) == (0, lower.stop, lower.stop, n)
    assert lower.stop % grain == 0 and min(lower.stop, n - lower.stop) >= grain
    assert abs(n - 2 * lower.stop) <= grain


@pytest.mark.parametrize("n, macs, grain", [(15, 10**9, 8), (1, 10**9, 1),
                                            (10**6, SPLIT_MIN_MACS - 1, 8)])
def test_split_parts_keeps_small_work_in_one_part(n, macs, grain):
    assert split_parts(n, macs, grain) == [slice(0, n)]


def assert_split_bitwise(runs):
    """The two runs of one_part_then_split: the one-part run started no
    thread, the split run did, and every array of their results is equal."""
    (one, one_threads), (two, two_threads) = runs
    assert one_threads == 0 and two_threads > 0
    flat = [(a, b) for a, b in zip(one, two) if a is not None or b is not None]
    assert all(np.array_equal(a, b) for a, b in flat)


def ffn_weights(rng, d, d_ff, glu, stack=()):
    shapes = [(*stack, d, d_ff), (*stack, *(1,) * bool(stack), d_ff), (*stack, d_ff, d),
              (*stack, *(1,) * bool(stack), d)]
    shapes += [shapes[0], shapes[1]] if glu else []
    return [rng.normal(size=s) for s in shapes] + [None] * (0 if glu else 2)


# Each case's products reach SPLIT_MIN_MACS, so the rule's own split runs.
# With 512-wide rows, a part of fewer than ~30 rows would run on OpenBLAS's
# small-matrix path and differ from the whole in the last bit.


@pytest.mark.parametrize("rows", [296, 297])
def test_affine_rows_in_two_parts_is_bitwise_one_part(rows, monkeypatch):
    rng = np.random.default_rng(rows)
    x, w, b = rng.normal(size=(rows, 512)), rng.normal(size=(512, 64)), rng.normal(size=64)
    runs = one_part_then_split(monkeypatch, lambda: [affine_rows(x, w, b)])
    assert_split_bitwise(runs)
    assert np.array_equal(runs[0][0][0], x @ w + b)


@pytest.mark.parametrize("rows", [296, 297])
@pytest.mark.parametrize("activation, glu", [("silu", True), ("relu", False)])
@pytest.mark.parametrize("keep", [False, True])
def test_ffn_rows_in_two_parts_is_bitwise_one_part(rows, activation, glu, keep, monkeypatch):
    rng = np.random.default_rng(rows)
    x, weights = rng.normal(size=(rows, 512)), ffn_weights(rng, 512, 64, glu)

    def run():
        out, kept = ffn_rows(x, *weights, activation, keep)
        return [out, *(kept or [])]

    runs = one_part_then_split(monkeypatch, run)
    assert_split_bitwise(runs)
    assert len(runs[1][0]) == (6 if keep else 1)


@pytest.mark.parametrize("shared", [False, True], ids=["bank", "shared"])
def test_ffn_rows_of_a_two_expert_stack_in_two_parts_is_bitwise_one_part(shared, monkeypatch):
    # greedy decode's feedforward: each row's positions through its expert
    # of a stacked bank, or both rows through one block stacked [1 x ...]
    rng = np.random.default_rng(2)
    x = rng.normal(size=(2, 40, 256))
    weights = ffn_weights(rng, 256, 256, True, (1 if shared else 2,))
    runs = one_part_then_split(monkeypatch, lambda: [ffn_rows(x, *weights, "silu")[0]])
    assert_split_bitwise(runs)
    for k in range(2):
        one = [w if len(w) == 1 else w[k : k + 1] for w in weights]
        assert np.array_equal(runs[1][0][0][k : k + 1], ffn_rows(x[k : k + 1], *one, "silu")[0])


@pytest.mark.parametrize("q_lengths, k_lengths, causal", [
    ([296], [296], False), ([297], [297], True), ([150, 150], [150, 150], False),
    ([148, 148], [297, 296], False), ([9, 296], [9, 297], True),
])
def test_attention_rows_in_two_parts_is_bitwise_one_part(q_lengths, k_lengths, causal,
                                                         monkeypatch):
    rng = np.random.default_rng(sum(q_lengths))
    q = rng.normal(size=(sum(q_lengths), 128))
    k, v = (rng.normal(size=(sum(k_lengths), 128)) for _ in range(2))

    def run():
        ctx, saved = attention_rows(q, k, v, 8, q_lengths, k_lengths, causal, keep=True)
        return [ctx, *(group[-1] for group in saved)]

    assert_split_bitwise(one_part_then_split(monkeypatch, run))


@pytest.mark.parametrize("rows", [1, 2])
def test_matmul_columns_in_two_parts_is_bitwise_one_part(rows, monkeypatch):
    # the vocabulary logits of greedy decode, against a transposed table; a
    # cut off a multiple of 4 columns moves the last bit on OpenBLAS
    rng = np.random.default_rng(rows)
    y, table = rng.normal(size=(rows, 512)), rng.normal(size=(8000, 512))
    runs = one_part_then_split(monkeypatch, lambda: [matmul_columns(y, table.T)])
    assert_split_bitwise(runs)
    assert np.array_equal(runs[0][0][0], y @ table.T)


def test_concurrent_split_products_under_a_short_switch_interval_keep_their_own_results():
    # four callers, each splitting its products over a helper: eight threads
    # on fewer cores, switching often, each part writing its slice of its
    # caller's output
    rng = np.random.default_rng(4)
    x, w, b = rng.normal(size=(64, 512)), rng.normal(size=(512, 160)), rng.normal(size=160)
    weights = ffn_weights(rng, 512, 160, True)
    assert len(split_parts(64, x.size * 160)) == 2  # both kernels split
    want = [affine_rows(x * k, w, b) for k in range(4)], [
        ffn_rows(x * k, *weights, "silu")[0] for k in range(4)]
    outs, interval = {}, sys.getswitchinterval()

    def caller(k):
        outs[k] = [(affine_rows(x * k, w, b), ffn_rows(x * k, *weights, "silu")[0])
                   for _ in range(10)]

    callers = [threading.Thread(target=caller, args=(k,)) for k in range(4)]
    sys.setswitchinterval(1e-6)
    try:
        for t in callers:
            t.start()
        for t in callers:
            t.join(10.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert all(np.array_equal(a, want[0][k]) and np.array_equal(f, want[1][k])
               for k in range(4) for a, f in outs[k])


class FailingUpperPart(np.ndarray):
    """Rows whose upper part, the one the helper thread maps, cannot be read."""

    def __getitem__(self, index):
        if isinstance(index, slice) and index.start:
            self.error = ValueError(f"rows {index.start}:{index.stop}")
            raise self.error
        return super().__getitem__(index)


def test_an_error_in_the_helpers_part_reaches_the_caller_as_the_same_object(monkeypatch):
    monkeypatch.setattr(smoe.halves, "SPLIT_MIN_MACS", 0)
    threads = threading.active_count()
    x = np.ones((32, 8)).view(FailingUpperPart)
    with pytest.raises(ValueError) as info:
        affine_rows(x, np.ones((8, 4)), np.zeros(4))
    assert info.value is x.error and str(info.value) == "rows 16:32"
    assert threading.active_count() == threads
