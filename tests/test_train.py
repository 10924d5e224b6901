import ctypes
import hashlib
import math
import platform
import resource
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import smoe
from smoe.data import ALPHABET, SyntheticTaskSpec, make_paired_dataset, render_symbols
from smoe.errors import ConfigError, ContractError, NumericError
from smoe.model import Model, ModelConfig
from smoe.moe import Bandwidth, Task, gate_decoder, gate_encoder
from smoe.nn import layer_norm_params, pre_norm_residual, sinusoidal_positions
from smoe.numerics import (
    Tape, Tensor, add, backward, constant, embedding, matmul, scale, softmax_cross_entropy,
    transpose2d,
)
from smoe.seqio import GuidingToken, Vocabulary
from smoe.signal import fbank
from smoe.train import (
    SGD,
    Adam,
    Batch,
    TrainConfig,
    batch_loss,
    cosine_lr,
    make_interleaved_stream,
    run_interference_benchmark,
    run_training,
    shifted_targets,
    train_step,
)

from tape_ops import permute, reshape, softmax_last

SPEC = SyntheticTaskSpec.default()
VOCAB = Vocabulary()


def tiny_model(**kw):
    base = dict(
        n_enc_layers=1, n_dec_layers=1, d_model=16, d_ff=16, n_heads=2,
        vocab_size=VOCAB.size, dropout=0.0,
    )
    base.update(kw)
    return Model(ModelConfig(**base), seed=0)


def small_items(n=8, seed=0, **kw):
    return make_paired_dataset(n, seed=seed, task_spec=SPEC, vocab=VOCAB, **kw)


def test_task_spec_disagreement():
    differ = [SPEC.map_a[s] != SPEC.map_b[s] for s in SPEC.alphabet]
    assert sum(differ) / len(differ) >= 0.90


def test_batch_homogeneity_enforced():
    items = small_items(2)
    with pytest.raises(ConfigError):
        Batch.build(items)  # paired dataset alternates tasks per item
    asr_only = [it for it in items if it.task is Task.ASR]
    batch = Batch.build(asr_only)
    assert batch.task is Task.ASR
    assert len(batch) == len(asr_only)


def test_batch_padding_and_lengths():
    items = [it for it in small_items(6, min_len=3, max_len=5) if it.task is Task.ASR]
    batch = Batch.build(items)
    l_max = batch.targets.shape[1]
    for i, it in enumerate(items):
        n = batch.target_lengths[i]
        assert batch.targets[i, :n].tolist() == it.target.ids
        assert np.all(batch.targets[i, n:] == int(GuidingToken.PAD))
        assert batch.feature_lengths[i] == it.features.n_frames
    # features are the real frame rows, packed in order: no padding row
    np.testing.assert_array_equal(
        batch.features, np.concatenate([it.features.frames.data for it in items]))


def test_shifted_targets_mask_prefix_and_tail():
    ids = [3, 6, 1, 20, 21, 2]  # task, lang, bos, p, p, eos
    out = shifted_targets(ids)
    pad = int(GuidingToken.PAD)
    assert out == [pad, pad, 20, 21, 2, pad]


def test_cosine_lr_endpoints():
    assert cosine_lr(0, 100, 1.0, 0.1) == pytest.approx(1.0)
    assert cosine_lr(100, 100, 1.0, 0.1) == pytest.approx(0.1)
    assert cosine_lr(50, 100, 1.0, 0.1) == pytest.approx(0.55)
    with pytest.raises(ConfigError):
        cosine_lr(0, 100, 0.1, 1.0)
    with pytest.raises(ConfigError):
        cosine_lr(101, 100, 1.0, 0.1)


def test_interleaved_stream_alternates():
    items = small_items(4)  # 4 ASR + 4 ST
    stream = list(make_interleaved_stream(items, batch_size=2, seed=0))
    assert [b.task for b in stream] == [Task.ASR, Task.ST, Task.ASR, Task.ST]
    for b in stream:
        assert len({it for it in b.bandwidths}) <= 2


def test_interleaved_stream_fairness_with_imbalance():
    items = small_items(4)
    asr = [it for it in items if it.task is Task.ASR]
    st = [it for it in items if it.task is Task.ST]
    unbalanced = asr * 3 + st  # 12 ASR vs 4 ST
    stream = list(make_interleaved_stream(unbalanced, batch_size=2, seed=0))
    n_asr = sum(1 for b in stream if b.task is Task.ASR)
    n_st = sum(1 for b in stream if b.task is Task.ST)
    assert abs(n_asr - n_st) <= 1


def test_interleaved_stream_deterministic():
    items = small_items(6)
    a = [tuple(b.targets.ravel()) for b in make_interleaved_stream(items, 2, seed=5)]
    b = [tuple(b.targets.ravel()) for b in make_interleaved_stream(items, 2, seed=5)]
    assert a == b
    c = [tuple(b.targets.ravel()) for b in make_interleaved_stream(items, 2, seed=6)]
    assert a != c


def test_interleaved_stream_trains_a_one_task_pool():
    st_only = [it for it in small_items(5) if it.task is Task.ST]
    stream = list(make_interleaved_stream(st_only, 2, seed=0))
    assert [b.task for b in stream] == [Task.ST] * 3
    assert sum(len(b) for b in stream) == len(st_only)


def test_interleaved_stream_rejects_an_empty_pool():
    with pytest.raises(ConfigError, match="at least one sample"):
        list(make_interleaved_stream([], 2, seed=0))


STREAM_POOL = small_items(6)  # 6 ASR and 6 ST items, each (task, target, frames) unique


def _stream_keys(batch):
    """One (task, target ids, frame bytes) key per sample of the batch."""
    frames = np.split(batch.features, np.cumsum(batch.feature_lengths)[:-1])
    return [
        (batch.task, tuple(batch.targets[i, :n]), frames[i].tobytes())
        for i, n in enumerate(batch.target_lengths)
    ]


@settings(max_examples=60, deadline=None)
@given(n_asr=st.integers(0, 6), n_st=st.integers(0, 6), batch_size=st.integers(1, 5),
       seed=st.integers(0, 2**32 - 1))
def test_interleaved_stream_cycles_the_tasks_it_holds(n_asr, n_st, batch_size, seed):
    pools = {
        Task.ASR: [it for it in STREAM_POOL if it.task is Task.ASR][:n_asr],
        Task.ST: [it for it in STREAM_POOL if it.task is Task.ST][:n_st],
    }
    items = pools[Task.ASR] + pools[Task.ST]
    assume(items)
    key_of = {(it.task, tuple(it.target.ids), it.features.frames.data.tobytes()): it
              for it in items}
    assert len(key_of) == len(items)
    stream = list(make_interleaved_stream(items, batch_size, seed))
    emitted = [[key_of[k] for k in _stream_keys(b)] for b in stream]
    assert all({it.task for it in batch} == {b.task} for batch, b in zip(emitted, stream))
    present = [task for task in Task if pools[task]]
    assert [b.task for b in stream] == [present[i % len(present)] for i in range(len(stream))]
    flat = [id(it) for batch in emitted for it in batch]
    assert len(flat) == len(set(flat))
    counts = {task: sum(b.task is task for b in stream) for task in present}
    assert max(counts.values()) - min(counts.values()) <= 1
    # the epoch ends because the next task in the cycle has run out
    after = present[len(stream) % len(present)]
    assert counts[after] == math.ceil(len(pools[after]) / batch_size)
    if len(present) == 1:
        # the single-task stream the benchmark controls trained on: shuffle, then chunk
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(5,)))
        shuffled = [items[int(i)] for i in rng.permutation(len(items))]
        oracle = [shuffled[p:p + batch_size] for p in range(0, len(shuffled), batch_size)]
        assert [[id(it) for it in batch] for batch in emitted] == [
            [id(it) for it in batch] for batch in oracle
        ]


def test_train_step_zero_lr_keeps_parameters():
    model = tiny_model()
    items = [it for it in small_items(4) if it.task is Task.ASR]
    batch = Batch.build(items)
    opt = SGD(model.named_parameters())
    before = {n: t.data.copy() for n, t in model.named_parameters()}
    loss = train_step(model, batch, opt, lr=0.0)
    assert math.isfinite(loss) and loss > 0
    for n, t in model.named_parameters():
        assert np.array_equal(before[n], t.data), n


def expert_tensors(model, k):
    """Expert k's named tensors in the model's first routed bank."""
    prefix, _ = model.smoe_layers()[0]
    return [(n, t) for n, t in model.named_parameters() if n.startswith(f"{prefix}.expert{k}.")]


def test_sgd_isolation_unrouted_expert_frozen():
    model = tiny_model(dec_smoe=True)
    items = [it for it in small_items(4) if it.task is Task.ASR]
    batch = Batch.build(items)
    opt = SGD(model.named_parameters(), momentum=0.9)
    st_before = {n: t.data.copy() for n, t in expert_tensors(model, 0)}  # ST expert
    asr_before = {n: t.data.copy() for n, t in expert_tensors(model, 1)}
    train_step(model, batch, opt, lr=0.05)
    for n, t in expert_tensors(model, 0):
        assert t.grad is None
        assert np.array_equal(st_before[n], t.data), f"ST expert moved: {n}"
    moved = any(not np.array_equal(asr_before[n], t.data) for n, t in expert_tensors(model, 1))
    assert moved


def test_adam_skips_unrouted_expert():
    model = tiny_model(dec_smoe=True)
    items = [it for it in small_items(4) if it.task is Task.ST]
    batch = Batch.build(items)
    opt = Adam(model.named_parameters())
    asr_before = {n: t.data.copy() for n, t in expert_tensors(model, 1)}
    train_step(model, batch, opt, lr=1e-3)
    for n, t in expert_tensors(model, 1):
        assert np.array_equal(asr_before[n], t.data), n


def test_memorization_loss_decreases():
    model = tiny_model(d_model=32, d_ff=32)
    items = [it for it in small_items(2, min_len=3, max_len=3) if it.task is Task.ASR][:1]
    tc = TrainConfig(steps=200, batch_size=1, lr_peak=3e-3, lr_floor=3e-4, seed=0)
    losses = run_training(model, items, tc)
    assert len(losses) == 200
    first = np.mean(losses[:50])
    last = np.mean(losses[-50:])
    assert last < 0.5 * first
    assert losses[-1] < 0.1


def test_training_determinism():
    def run():
        model = tiny_model()
        items = small_items(4, seed=3)
        tc = TrainConfig(steps=12, batch_size=2, lr_peak=1e-3, lr_floor=1e-4, seed=7)
        return run_training(model, items, tc)

    assert run() == run()


def test_training_with_dropout_deterministic():
    def run():
        model = tiny_model(dropout=0.1)
        items = small_items(4, seed=3)
        tc = TrainConfig(steps=8, batch_size=2, lr_peak=1e-3, lr_floor=1e-4, seed=7)
        return run_training(model, items, tc)

    assert run() == run()


def test_metrics_log_format():
    model = tiny_model()
    items = small_items(4, seed=3)
    tc = TrainConfig(steps=4, batch_size=2, lr_peak=1e-3, lr_floor=1e-4, seed=7)
    lines: list[str] = []
    run_training(model, items, tc, log_lines=lines)
    assert len(lines) == 4
    for i, line in enumerate(lines):
        parts = dict(kv.split("=") for kv in line.split(" "))
        assert int(parts["step"]) == i
        assert parts["task"] in ("A", "S")
        float(parts["lr"])
        float(parts["loss"])
    assert [ln.split(" ")[1] for ln in lines] == ["task=A", "task=S", "task=A", "task=S"]


def test_gradient_accumulation_runs():
    model = tiny_model()
    items = small_items(4, seed=3)
    tc = TrainConfig(steps=4, batch_size=2, lr_peak=1e-3, lr_floor=1e-4, seed=7, accum_steps=2)
    losses = run_training(model, items, tc)
    assert len(losses) == 4
    assert all(math.isfinite(v) for v in losses)


def test_train_step_accumulates_before_update():
    model = tiny_model()
    batch = Batch.build([it for it in small_items(4) if it.task is Task.ASR])
    opt = SGD(model.named_parameters())
    before = {n: t.data.copy() for n, t in model.named_parameters()}
    first = train_step(model, batch, opt, lr=0.05, step=0, accum_steps=2)
    assert all(np.array_equal(before[n], t.data) for n, t in model.named_parameters())
    grad_once = {n: t.grad.copy() for n, t in model.named_parameters() if t.grad is not None}
    second = train_step(model, batch, opt, lr=0.05, step=1, accum_steps=2)
    assert first == second  # parameters untouched, so the same batch gives the same loss
    for n, t in model.named_parameters():
        if n in grad_once:  # two halves of the same batch: grad equals the full-batch grad
            np.testing.assert_allclose(t.grad, 2 * grad_once[n], rtol=1e-12)
            assert not np.array_equal(before[n], t.data), n


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(lr_peak=1e-4, lr_floor=1e-3)
    with pytest.raises(ConfigError):
        TrainConfig(optimizer="rmsprop")


@pytest.mark.parametrize("varied", [dict(max_tgt_tokens=64), dict(max_src_frames=100),
                                    dict(enc_smoe=True), dict(dropout=0.0)],
                         ids=lambda varied: next(iter(varied)))
def test_benchmark_configs_may_differ_only_in_decoder_ffn(varied):
    base = ModelConfig()
    configs = {"base": base, "dec_smoe": replace(base, dec_smoe=True, d_ff_dec=12),
               "varied": replace(base, **varied)}
    with pytest.raises(ConfigError, match=f"'varied' varies {next(iter(varied))}"):
        run_interference_benchmark(SPEC, configs, budget_steps=1, seeds=[0])


def test_tiny_benchmark_matches_pinned_digests():
    """Two seeds of 60 steps at the acceptance suite's benchmark dims. The
    SHA-256 of the joined log lines and of the report were pinned on the
    separate control and joint loops; the one run loop must reproduce both
    bitwise. They hold for one BLAS build: another may round differently."""
    base = ModelConfig(n_enc_layers=1, n_dec_layers=1, d_model=32, d_ff=64, d_ff_dec=12,
                       n_heads=4, vocab_size=VOCAB.size, dropout=0.0)
    configs = {"base": base, "dec_ffn_x2": replace(base, d_ff_dec=24),
               "dec_smoe": replace(base, dec_smoe=True)}
    tc = TrainConfig(steps=60, batch_size=8, lr_peak=3e-3, lr_floor=1e-4)
    result = run_interference_benchmark(SPEC, configs, budget_steps=60, seeds=[0, 1],
                                        n_train_inputs=96, n_eval_inputs=8, train_config=tc)
    assert len(result.log_lines) == 620
    digests = [hashlib.sha256(text.encode()).hexdigest()
               for text in ("\n".join(result.log_lines), result.report())]
    assert digests == ["47af75eb3ae372f4095a3d02d9976198929cf698994b2abb2f9635e2aa100c6c",
                       "2e7bb2dc8b25b5e618d2d58b5fe3350f8b361f016154274ad74573b34330d96d"]


def test_finetune_encoder_counts_match_stream_mix():
    from smoe.model import expand_experts
    from smoe.train import make_optimizer

    donor = tiny_model()
    model = expand_experts(donor, encoder=True)
    items = small_items(8, seed=11, nb_fraction=0.5)
    tc = TrainConfig(steps=100, batch_size=2, lr_peak=1e-3, lr_floor=1e-4, seed=2)
    stream = list(make_interleaved_stream(items, tc.batch_size, tc.seed))
    expected = [  # [WB, NB]: one expert call per batch that holds that bandwidth
        sum(1 for b in stream if Bandwidth.WB in b.bandwidths),
        sum(1 for b in stream if Bandwidth.NB in b.bandwidths),
    ]
    model.reset_expert_counts()
    opt = make_optimizer(model, tc)
    for batch in stream:
        train_step(model, batch, opt, lr=1e-3)
    for name, bank in model.smoe_layers():
        if name.startswith("enc."):
            assert bank.call_counts == expected, name
    assert expected[1] > 0  # the mixed stream really carried NB samples
    assert any(len(set(b.bandwidths)) == 2 for b in stream)  # and mixed batches


def _per_sample_loss(model, items):
    """The loss batch_loss must equal: each sample encoded and decoded on
    its own, the mean of the per-sample token means."""
    total = None
    for it in items:
        logits = model.decode(model.encode(it.features, it.bandwidth), it.target.ids, it.task)
        loss = softmax_cross_entropy(
            logits, shifted_targets(it.target.ids), ignore_id=int(GuidingToken.PAD)
        )
        total = loss if total is None else add(total, loss)
    return scale(total, 1.0 / len(items))


def _loss_and_grads(model, loss_fn):
    for _, t in model.named_parameters():
        t.zero_grad()
    tape = Tape()
    with tape:
        loss = loss_fn()
    backward(loss, tape)
    return float(loss.data), {n: t.grad for n, t in model.named_parameters()}


def _assert_grads_close(got, want, rtol=1e-12):
    """Per parameter, max |got - want| within rtol of max |want|; a gradient
    that is analytically zero (its magnitude rounding noise, as for the
    attention b_k) is held to rtol of the largest gradient instead."""
    floor = max(np.abs(g).max() for g in want.values() if g is not None)
    for name, w in want.items():
        g = got[name]
        assert (g is None) == (w is None), name
        if w is None:
            continue
        ref = np.abs(w).max()
        bound = rtol * (ref if ref > 1e-9 * floor else floor)
        assert np.abs(g - w).max() <= bound, (name, np.abs(g - w).max(), bound)


ORACLE_CONFIGS = {
    "enc-dec-routed-tied-glu-silu": dict(enc_smoe=True, dec_smoe=True),
    "dec-routed-untied-relu": dict(dec_smoe=True, tied_embed=False, glu=False, activation="relu"),
    "enc-routed-untied-glu-relu": dict(enc_smoe=True, tied_embed=False, activation="relu"),
    "unrouted": dict(),
}


def _oracle_batches():
    items = small_items(12, seed=4, min_len=2, max_len=7, nb_fraction=0.5)
    asr = [it for it in items if it.task is Task.ASR]
    st = [it for it in items if it.task is Task.ST]
    return {
        "mixed-bandwidth": asr[:6],
        "mixed-bandwidth-st": st[:5],
        "mixed-bandwidth-unpadded": [asr[0], asr[4]],
        "wideband-only": [it for it in asr if it.bandwidth is Bandwidth.WB][:3],
        "narrowband-only": [it for it in st if it.bandwidth is Bandwidth.NB][:3],
        "one": st[:1],
    }


@pytest.mark.parametrize("config", list(ORACLE_CONFIGS))
def test_batched_loss_matches_per_sample_oracle(config):
    batches = _oracle_batches()
    for name, items in batches.items():
        ragged = len({it.features.n_frames for it in items}) > 1
        assert ragged == (len({len(it.target.ids) for it in items}) > 1)
        assert ragged or name in ("mixed-bandwidth-unpadded", "one"), name
        model = tiny_model(n_enc_layers=2, n_dec_layers=2, d_ff=24, **ORACLE_CONFIGS[config])
        model.train()
        batch = Batch.build(items)
        got_loss, got = _loss_and_grads(model, lambda: batch_loss(model, batch))
        want_loss, want = _loss_and_grads(model, lambda: _per_sample_loss(model, items))
        assert got_loss == pytest.approx(want_loss, rel=1e-12, abs=0.0), name
        _assert_grads_close(got, want)
    assert {len(set(it.bandwidth for it in b)) for b in batches.values()} == {1, 2}


MASK_OFF = -1e30


def _padded_heads(x, batch, n_heads):
    """[batch*t x d] -> [batch*h x t x d/h] as reshape/permute tape nodes."""
    rows, d = x.shape
    heads = reshape(x, (batch, rows // batch, n_heads, d // n_heads))
    return reshape(permute(heads, (0, 2, 1, 3)), (batch * n_heads, rows // batch, d // n_heads))


def _padded_attention(p, q_in, k_in, v_in, mask, batch):
    """Attention of `batch` equal-length padded samples as a chain of
    elementary tape ops, with disallowed keys pushed to a -1e30 score; mask
    is [t_q x t_k] for every sample or [batch x 1 x t_k] per sample."""
    t_q, t_k = q_in.shape[0] // batch, k_in.shape[0] // batch
    d_model = p.w_q.shape[0]
    q = _padded_heads(add(matmul(q_in, p.w_q), p.b_q), batch, p.n_heads)
    k = _padded_heads(add(matmul(k_in, p.w_k), p.b_k), batch, p.n_heads)
    v = _padded_heads(add(matmul(v_in, p.w_v), p.b_v), batch, p.n_heads)
    logits = scale(matmul(q, permute(k, (0, 2, 1))), 1.0 / math.sqrt(d_model // p.n_heads))
    if mask is not None:
        bias = np.where(mask, 0.0, MASK_OFF)
        if bias.ndim == 3:
            bias = np.repeat(np.broadcast_to(bias, (batch, t_q, t_k)), p.n_heads, axis=0)
        logits = add(logits, constant(bias))
    ctx = matmul(softmax_last(logits), v)
    merged = permute(reshape(ctx, (batch, p.n_heads, t_q, d_model // p.n_heads)), (0, 2, 1, 3))
    return add(matmul(reshape(merged, (q_in.shape[0], d_model)), p.w_o), p.b_o)


def _key_padding_mask(lengths, t_max):
    lengths = np.asarray(lengths)
    if np.all(lengths == t_max):
        return None
    return (np.arange(t_max) < lengths[:, None])[:, None, :]


def _padded_batch_loss(model, batch):
    """batch_loss as the padded composition computes it: every sample padded
    to the batch's longest in encoder and decoder, padded keys masked out of
    attention, each bandwidth's real rows gathered for its expert."""
    cfg = model.config
    lengths = batch.feature_lengths
    n, t_max, n_mels = len(lengths), max(lengths), batch.features.shape[1]
    normed = np.zeros((n, t_max, n_mels))
    for i, real in enumerate(np.split(batch.features, np.cumsum(lengths)[:-1])):
        normed[i, : lengths[i]] = (real - real.mean()) / max(real.std(), 1e-8)
    x = add(matmul(constant(normed.reshape(n * t_max, n_mels)), model.input_proj_w),
            model.input_proj_b)
    x = add(x, constant(np.tile(sinusoidal_positions(t_max, cfg.d_model).data, (n, 1))))
    mask = _key_padding_mask(lengths, t_max)
    rows = {}
    for i, (length, bw) in enumerate(zip(lengths, batch.bandwidths)):
        gate = gate_encoder(bw) if cfg.enc_smoe else None
        rows.setdefault(gate, []).append(np.arange(i * t_max, i * t_max + length))
    groups = [(gate, np.concatenate(r)) for gate, r in rows.items()]
    if len(groups) == 1 and mask is None:
        groups = [(groups[0][0], None)]
    for layer in model.enc_layers:
        x = pre_norm_residual(lambda h: _padded_attention(layer.attn, h, h, h, mask, n),
                              layer.ln_attn, x)
        x = pre_norm_residual(lambda h: model._dispatch_ffn(layer.ffn, groups, h),
                              layer.ln_ffn, x)
    enc = layer_norm_params(model.ln_enc_final, x)
    t = batch.targets.shape[1]
    y = scale(embedding(model.embed, batch.targets.reshape(-1)), math.sqrt(cfg.d_model))
    y = add(y, constant(np.tile(sinusoidal_positions(t, cfg.d_model).data, (n, 1))))
    causal = np.tril(np.ones((t, t), dtype=bool))
    gate = gate_decoder(batch.task)
    for layer in model.dec_layers:
        y = pre_norm_residual(lambda h: _padded_attention(layer.self_attn, h, h, h, causal, n),
                              layer.ln_self, y)
        y = pre_norm_residual(lambda h: _padded_attention(layer.cross_attn, h, enc, enc, mask, n),
                              layer.ln_cross, y)
        y = pre_norm_residual(lambda h: model._sublayer_ffn(layer.ffn, gate, h), layer.ln_ffn, y)
    y = layer_norm_params(model.ln_dec_final, y)
    logits = matmul(y, model.out_proj if model.out_proj is not None else transpose2d(model.embed))
    return softmax_cross_entropy(
        logits, batch.loss_targets, int(GuidingToken.PAD), batch.loss_weights
    )


@pytest.mark.parametrize("config", list(ORACLE_CONFIGS))
def test_packed_batch_matches_padded_masked_oracle(config):
    # the packed encoder and fused attention against the padded, masked
    # composition: same loss and every gradient within 1e-12 relative
    for name, items in _oracle_batches().items():
        model = tiny_model(n_enc_layers=2, n_dec_layers=2, d_ff=24, **ORACLE_CONFIGS[config])
        model.train()
        batch = Batch.build(items)
        got_loss, got = _loss_and_grads(model, lambda: batch_loss(model, batch))
        want_loss, want = _loss_and_grads(model, lambda: _padded_batch_loss(model, batch))
        assert got_loss == pytest.approx(want_loss, rel=1e-12, abs=0.0), name
        _assert_grads_close(got, want)


def test_loss_weights_average_sample_means_with_an_empty_sample():
    pad = int(GuidingToken.PAD)
    items = [it for it in small_items(3, seed=2) if it.task is Task.ASR]
    rows = [items[0].target.ids, [3, 6, 1, 2], [3, 6, 1]]  # 3rd: no position is learned
    width = max(map(len, rows))
    batch = Batch(
        features=Batch.build(items).features,
        feature_lengths=[it.features.n_frames for it in items],
        bandwidths=[it.bandwidth for it in items],
        targets=np.array([r + [pad] * (width - len(r)) for r in rows]),
        target_lengths=[len(r) for r in rows],
        task=Task.ASR,
    )
    kept = [len(r) - 3 for r in rows[:2]] + [0]
    weights = batch.loss_weights.reshape(3, width)
    for i, k in enumerate(kept):
        want = np.zeros(width)
        want[2 : 2 + k] = 1.0 / (3 * k) if k else 0.0
        np.testing.assert_array_equal(weights[i], want)
        assert batch.loss_targets.reshape(3, width)[i, : len(rows[i])].tolist() == (
            shifted_targets(rows[i])
        )

    model = tiny_model(dec_smoe=True)
    got_loss, got = _loss_and_grads(model, lambda: batch_loss(model, batch))

    def oracle():
        total = None
        for it, ids in zip(items, rows):
            enc = model.encode(it.features, it.bandwidth)
            loss = softmax_cross_entropy(
                model.decode(enc, ids, Task.ASR), shifted_targets(ids), ignore_id=pad
            )
            total = loss if total is None else add(total, loss)
        return scale(total, 1.0 / 3)

    want_loss, want = _loss_and_grads(model, oracle)
    assert got_loss == pytest.approx(want_loss, rel=1e-12, abs=0.0)
    _assert_grads_close(got, want)


def test_non_finite_gradient_names_first_parameter(monkeypatch):
    import smoe.train

    model = tiny_model(dec_smoe=True)
    batch = Batch.build([it for it in small_items(4) if it.task is Task.ASR])
    real_backward = smoe.train.backward

    def poisoned(loss, tape):
        real_backward(loss, tape)
        params = dict(model.named_parameters())
        params["enc.0.ln_ffn.gain"].grad[0] = np.inf
        params["input_proj.b"].grad[1] = np.nan

    monkeypatch.setattr(smoe.train, "backward", poisoned)
    opt = Adam(model.named_parameters())
    before = {n: t.data.copy() for n, t in model.named_parameters()}
    with pytest.raises(NumericError, match=r"non-finite gradient in input_proj\.b \(task=ASR"):
        train_step(model, batch, opt, lr=1e-3)
    for n, t in model.named_parameters():
        assert np.array_equal(before[n], t.data), n


# -- arena optimizers against the per-tensor rules ------------------------------------


class OracleSGD:
    """The per-tensor SGD that the arena SGD replaced, kept as its oracle."""

    def __init__(self, params, momentum=0.0):
        self.params, self.momentum, self.velocity = params, momentum, {}

    def zero_grad(self):
        for _, p in self.params:
            p.zero_grad()

    def step(self, lr):
        for _, p in self.params:
            if p.grad is None:
                continue
            if self.momentum > 0.0:
                v = self.velocity.get(id(p))
                v = p.grad if v is None else self.momentum * v + p.grad
                self.velocity[id(p)] = v
            else:
                v = p.grad
            p.data = p.data - lr * v


class OracleAdam:
    """The per-tensor Adam that the arena Adam replaced, kept as its oracle."""

    def __init__(self, params, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = params
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.m, self.v, self.t = {}, {}, {}

    def zero_grad(self):
        for _, p in self.params:
            p.zero_grad()

    def step(self, lr):
        for _, p in self.params:
            if p.grad is None:
                continue
            k = id(p)
            t = self.t.get(k, 0) + 1
            self.t[k] = t
            m = self.beta1 * self.m.get(k, np.zeros_like(p.data)) + (1 - self.beta1) * p.grad
            v = self.beta2 * self.v.get(k, np.zeros_like(p.data)) + (1 - self.beta2) * (
                p.grad * p.grad
            )
            self.m[k], self.v[k] = m, v
            m_hat = m / (1 - self.beta1**t)
            v_hat = v / (1 - self.beta2**t)
            p.data = p.data - lr * m_hat / (np.sqrt(v_hat) + self.eps)


def routed_stream():
    """Interleaved task-homogeneous batches that leave the narrowband encoder
    expert without rows for the first five steps, then mix bandwidths."""
    items = small_items(24, seed=3, nb_fraction=0.5)
    pools = {(task, bw): [it for it in items if it.task is task and it.bandwidth is bw]
             for task in Task for bw in Bandwidth}
    plan = [(Task.ASR, [Bandwidth.WB]), (Task.ST, [Bandwidth.WB]), (Task.ASR, [Bandwidth.WB]),
            (Task.ST, [Bandwidth.WB]), (Task.ASR, [Bandwidth.WB]),
            (Task.ST, [Bandwidth.WB, Bandwidth.NB]), (Task.ASR, [Bandwidth.NB]),
            (Task.ST, [Bandwidth.NB, Bandwidth.WB]), (Task.ASR, [Bandwidth.WB, Bandwidth.NB])]
    batches = []
    for task, bws in plan:
        batches.append(Batch.build([pools[task, bw].pop() for bw in bws]))
    return batches


@pytest.mark.parametrize("accum_steps", [1, 2])
@pytest.mark.parametrize("name, make, oracle", [
    ("adam", Adam, OracleAdam),
    ("sgd-momentum", lambda params: SGD(params, momentum=0.9),
     lambda params: OracleSGD(params, momentum=0.9)),
])
def test_arena_optimizer_matches_per_tensor_oracle(name, make, oracle, accum_steps):
    cfg = dict(enc_smoe=True, dec_smoe=True, dropout=0.1)
    model, reference = tiny_model(**cfg), tiny_model(**cfg)
    opt, ref_opt = make(model.named_parameters()), oracle(reference.named_parameters())
    nb_expert = [t for n, t in model.named_parameters() if ".ffn.expert1." in n and n.startswith("enc.")]
    idle_updates = 0
    for step, batch in enumerate(routed_stream()):
        lr = 0.05 * (1 + step % 3)
        assert train_step(model, batch, opt, lr, step, accum_steps) == train_step(
            reference, batch, ref_opt, lr, step, accum_steps)
        if (step + 1) % accum_steps == 0 and all(t.grad is None for t in nb_expert):
            idle_updates += 1
        for (n, got), (_, want) in zip(model.named_parameters(), reference.named_parameters()):
            assert np.array_equal(got.data.view(np.uint64), want.data.view(np.uint64)), (step, n)
    assert idle_updates >= 2  # the NB expert sat out several updates
    for _, t in model.named_parameters():
        assert np.shares_memory(t.data, model.arena)


def test_training_keeps_parameters_in_the_arena():
    model = tiny_model(dec_smoe=True)
    run_training(model, small_items(8), TrainConfig(steps=3, batch_size=2))
    for name, t in model.named_parameters():
        assert np.shares_memory(t.data, model.arena), name


def test_optimizers_reject_parameters_that_do_not_tile_one_arena():
    model = tiny_model()
    params = model.named_parameters()
    for bad in (params[1:], params[:-1], params[::-1], [("w", Tensor(np.zeros(3), True))],
                params + tiny_model().named_parameters()[:1]):
        for make in (Adam, SGD):
            with pytest.raises(ContractError):
                make(bad)


# the acceptance suite's interference dims, as perfbench's train workload uses
BENCH_DIMS = dict(n_enc_layers=1, n_dec_layers=1, d_model=32, d_ff=64, d_ff_dec=12, n_heads=4,
                  dropout=0.0, enc_smoe=True, dec_smoe=True)


def _minor_faults(fn) -> int:
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    fn()
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before


@pytest.mark.skipif(sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
                    reason="the heap policy is set through glibc's mallopt")
def test_warmed_ops_reuse_freed_heap_pages():
    """Importing smoe keeps freed heap pages in the process, so a warmed
    training step or `smoe infer`-shaped request (fbank, then a dual decode)
    faults in almost no fresh pages. Under glibc's default policy, in a fresh
    process, they took about 250 and 220."""
    model = tiny_model(**BENCH_DIMS)
    items = small_items(8, nb_fraction=0.5)
    tc = TrainConfig(steps=1, batch_size=8, optimizer="adam")

    def step():
        run_training(model, items, tc)

    wave = render_symbols(ALPHABET[:8], seed=3)  # long enough for fbank to map its arrays

    def request():
        feats = fbank(wave)
        model.infer_dual(feats, feats.bandwidth, max_len=24)

    faults = {}
    for op in (request, step):
        op()  # warm-up
        faults[op.__name__] = _minor_faults(op)
    assert max(faults.values()) < 32, faults


class _FakeMallopt:
    def __init__(self):
        self.calls = []

    def __call__(self, param, value):
        self.calls.append((param, value))
        return 0  # musl's stub: nothing set


def _no_c_library(name):
    raise OSError("no C library")


@pytest.mark.parametrize("cdll", [
    pytest.param(_no_c_library, id="no-libc"),
    pytest.param(lambda name: object(), id="no-mallopt"),
])
def test_heap_policy_is_a_no_op_without_mallopt(cdll, monkeypatch):
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    smoe._keep_freed_pages()  # raises nothing


def test_heap_policy_sets_both_thresholds_and_ignores_a_zero_return(monkeypatch):
    mallopt = _FakeMallopt()
    monkeypatch.setattr(ctypes, "CDLL", lambda name: type("Lib", (), {"mallopt": mallopt})())
    smoe._keep_freed_pages()
    assert mallopt.calls == [(-3, 32 << 20), (-1, 512 << 20)]
