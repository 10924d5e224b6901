import math

import numpy as np
import pytest

from smoe.data import SyntheticTaskSpec, make_paired_dataset
from smoe.errors import ConfigError
from smoe.model import Model, ModelConfig
from smoe.moe import Bandwidth, Task
from smoe.seqio import GuidingToken, Vocabulary
from smoe.train import (
    SGD,
    Adam,
    Batch,
    TrainConfig,
    cosine_lr,
    make_interleaved_stream,
    make_single_task_stream,
    run_training,
    shifted_targets,
    train_step,
)

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
    assert SPEC.measured_disagreement() >= 0.90


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
        t = batch.feature_lengths[i]
        assert np.all(batch.features[i, t:] == 0.0)
        feats, bw, ids = batch.sample(i)
        assert ids == it.target.ids
        assert feats.n_frames == it.features.n_frames


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


def test_interleaved_stream_requires_both_tasks():
    items = [it for it in small_items(4) if it.task is Task.ASR]
    with pytest.raises(ConfigError):
        list(make_interleaved_stream(items, 2, seed=0))


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


def test_sgd_isolation_unrouted_expert_frozen():
    model = tiny_model(dec_smoe=True)
    items = [it for it in small_items(4) if it.task is Task.ASR]
    batch = Batch.build(items)
    opt = SGD(model.named_parameters(), momentum=0.9)
    _, bank = model.smoe_layers()[0]
    st_before = {n: t.data.copy() for n, t in bank.experts[0].tensors()}  # ST expert
    asr_before = {n: t.data.copy() for n, t in bank.experts[1].tensors()}
    train_step(model, batch, opt, lr=0.05)
    for n, t in bank.experts[0].tensors():
        assert t.grad is None
        assert np.array_equal(st_before[n], t.data), f"ST expert moved: {n}"
    moved = any(not np.array_equal(asr_before[n], t.data) for n, t in bank.experts[1].tensors())
    assert moved


def test_adam_skips_unrouted_expert():
    model = tiny_model(dec_smoe=True)
    items = [it for it in small_items(4) if it.task is Task.ST]
    batch = Batch.build(items)
    opt = Adam(model.named_parameters())
    _, bank = model.smoe_layers()[0]
    asr_before = {n: t.data.copy() for n, t in bank.experts[1].tensors()}
    train_step(model, batch, opt, lr=1e-3)
    for n, t in bank.experts[1].tensors():
        assert np.array_equal(asr_before[n], t.data), n


def test_memorization_loss_decreases():
    model = tiny_model(d_model=32, d_ff=32)
    items = [it for it in small_items(2, min_len=3, max_len=3) if it.task is Task.ASR][:1]
    tc = TrainConfig(steps=200, batch_size=1, lr_peak=3e-3, lr_floor=3e-4, seed=0)
    losses = run_training(model, items, tc, stream_factory=make_single_task_stream)
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
        TrainConfig(nbwb_mix_fraction=1.5)
    with pytest.raises(ConfigError):
        TrainConfig(optimizer="rmsprop")


def test_finetune_encoder_counts_match_stream_mix():
    from smoe.model import expand_experts
    from smoe.train import make_optimizer

    donor = tiny_model()
    model = expand_experts(donor, encoder=True)
    items = small_items(8, seed=11, nb_fraction=0.5)
    tc = TrainConfig(steps=100, batch_size=2, lr_peak=1e-3, lr_floor=1e-4, seed=2)
    stream = list(make_interleaved_stream(items, tc.batch_size, tc.seed))
    expected = [  # [WB, NB] sample-forwards
        sum(1 for b in stream for bw in b.bandwidths if bw is Bandwidth.WB),
        sum(1 for b in stream for bw in b.bandwidths if bw is Bandwidth.NB),
    ]
    model.reset_expert_counts()
    opt = make_optimizer(model, tc)
    for batch in stream:
        train_step(model, batch, opt, lr=1e-3)
    for name, bank in model.smoe_layers():
        if name.startswith("enc."):
            assert bank.call_counts == expected, name
    assert expected[1] > 0  # the mixed stream really carried NB samples
