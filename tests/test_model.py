import ctypes
import errno
import hashlib
import math
import os
import re
import struct
import tempfile
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import smoe.model
from smoe.cli import main
from smoe.data import Utterance
from smoe.errors import CheckpointError, ConfigError, FormatError, LimitError, RoutingError
from smoe.halves import SPLIT_MIN_MACS
from smoe.model import (
    Model,
    ModelConfig,
    ParamCount,
    _layer_blocks,
    count_params,
    expand_experts,
    load_checkpoint,
    parameter_shapes,
    save_checkpoint,
)
from smoe.moe import Bandwidth, GateVector, SMoELayer, Task, smoe_forward
from smoe.nn import ffn_forward
from smoe.numerics import arena_bounds, constant
from smoe.seqio import GuidingToken, Vocabulary, build_target_sequence, guiding_prefix
from smoe.signal import N_MELS, FbankFeatures
from smoe.train import Batch, batch_loss

from splits import one_part_then_split, perfbench_bindings

VOCAB = Vocabulary()


def tiny_config(**kw):
    base = dict(
        n_enc_layers=1, n_dec_layers=1, d_model=16, d_ff=24, n_heads=2,
        vocab_size=VOCAB.size, dropout=0.0,
    )
    base.update(kw)
    return ModelConfig(**base)


def random_features(seed=0, frames=9):
    rng = np.random.default_rng(seed)
    return FbankFeatures(frames=constant(rng.normal(size=(frames, 80)) - 10.0), bandwidth=Bandwidth.WB)


def asr_target(text=b"abc"):
    return build_target_sequence(Task.ASR, text, VOCAB)


def st_target(text=b"abc"):
    return build_target_sequence(Task.ST, text, VOCAB)


def test_forward_logits_shape():
    model = Model(tiny_config(), seed=1)
    target = asr_target(b"hello")
    logits = model.forward(random_features(), Bandwidth.WB, target)
    assert logits.shape == (len(target.ids), VOCAB.size)


def test_encoder_output_task_independent():
    model = Model(tiny_config(dec_smoe=True), seed=2).eval()
    feats = random_features(3)
    enc = model.encode(feats, Bandwidth.WB)
    asr_logits = model.decode(enc, asr_target().ids, Task.ASR)
    st_logits = model.decode(enc, st_target().ids, Task.ST)
    # shared trunk: encoder ran once; decoder counters diverge by task
    counts = model.smoe_layers()[0][1].call_counts
    assert counts == [1, 1]
    assert asr_logits.shape == st_logits.shape


def test_decoder_routing_counts_differ_by_task():
    model = Model(tiny_config(dec_smoe=True), seed=3).eval()
    feats = random_features(4)
    model.forward(feats, Bandwidth.WB, asr_target())
    name, bank = model.smoe_layers()[0]
    assert bank.call_counts == [0, 1]  # ASR -> expert 1
    model.forward(feats, Bandwidth.WB, st_target())
    assert bank.call_counts == [1, 1]


def test_encoder_routing_by_bandwidth():
    model = Model(tiny_config(enc_smoe=True), seed=4).eval()
    feats = random_features(5)
    model.forward(feats, Bandwidth.WB, asr_target())
    _, bank = model.smoe_layers()[0]
    assert bank.call_counts == [1, 0]
    nb_feats = FbankFeatures(frames=feats.frames, bandwidth=Bandwidth.NB)
    model.forward(nb_feats, Bandwidth.NB, asr_target())
    assert bank.call_counts == [1, 1]


def test_length_limits_enforced():
    model = Model(tiny_config(max_src_frames=8, max_tgt_tokens=6), seed=5)
    with pytest.raises(ConfigError, match="empty id row"):
        model.decode(model.encode(random_features(frames=6), Bandwidth.WB), [], Task.ASR)
    with pytest.raises(LimitError):
        model.forward(random_features(frames=9), Bandwidth.WB, asr_target(b"a"))
    with pytest.raises(LimitError):
        model.forward(random_features(frames=6), Bandwidth.WB, asr_target(b"abcdef"))


def test_empty_encoder_batch_fails_closed():
    with pytest.raises(ConfigError, match="empty batch"):
        Model(tiny_config(), seed=5).encode_batch([])


def test_mixed_bandwidth_batch_runs_each_encoder_expert_once_on_its_own_rows(monkeypatch):
    # samples WB, NB, WB of 5, 7 and 4 frames: each sample is routed by its
    # features' bandwidth, so expert 0 gets rows 0-4 and 12-15 in one call
    # and expert 1 rows 5-11 in another
    model = Model(tiny_config(enc_smoe=True), seed=36).eval()
    feats = [replace(random_features(37 + i, frames), bandwidth=bw)
             for i, (frames, bw) in enumerate([(5, Bandwidth.WB), (7, Bandwidth.NB),
                                                (4, Bandwidth.WB)])]
    normed, calls = [], []
    dispatch = Model._dispatch_ffn

    def record_dispatch(self, layer_ffn, groups, x):
        normed.append(x.data.copy())
        return dispatch(self, layer_ffn, groups, x)

    def record_expert(layer, gate, x, activation="silu"):
        calls.append((gate.selected, x.data.copy()))
        return smoe_forward(layer, gate, x, activation)

    monkeypatch.setattr(Model, "_dispatch_ffn", record_dispatch)
    monkeypatch.setattr(smoe.model, "smoe_forward", record_expert)
    packed = model.encode_batch(feats).data
    [h] = normed
    assert sorted(k for k, _ in calls) == [0, 1]
    assert model.smoe_layers()[0][1].call_counts == [1, 1]
    for k, rows in calls:
        want = np.r_[0:5, 12:16] if k == 0 else np.r_[5:12]
        assert np.array_equal(rows, h[want])
    for f, start in zip(feats, [0, 5, 12]):  # each sample's rows are its own encoding
        alone = model.encode(f, f.bandwidth).data
        np.testing.assert_allclose(packed[start : start + f.n_frames], alone, rtol=1e-12,
                                   atol=1e-12)


def test_encode_rejects_a_bandwidth_argument_not_the_features_own():
    # narrowband-labelled features go through expert 1, as encode_batch
    # sends them; asked to encode them as wideband, encode calls no expert
    model = Model(tiny_config(enc_smoe=True), seed=38).eval()
    feats = replace(random_features(39), bandwidth=Bandwidth.NB)
    bank = model.smoe_layers()[0][1]
    got = model.encode(feats, Bandwidth.NB).data
    assert bank.call_counts == [0, 1]
    assert np.array_equal(got, model.encode_batch([feats]).data) and bank.call_counts == [0, 2]
    with pytest.raises(RoutingError, match="features of NB"):
        model.encode(feats, Bandwidth.WB)
    assert bank.call_counts == [0, 2]


ONE_SAMPLE_ENCODES = {
    "encode": lambda model, feats, bw: model.encode(feats, bw),
    "forward": lambda model, feats, bw: model.forward(feats, bw, asr_target()),
    "infer_single": lambda model, feats, bw: model.infer_single(feats, bw, Task.ST, max_len=3),
    "infer_dual": lambda model, feats, bw: model.infer_dual(feats, bw, max_len=3),
}


@pytest.mark.parametrize("bw", [Bandwidth.WB, "NB", None], ids=["other-member", "string", "none"])
@pytest.mark.parametrize("run", ONE_SAMPLE_ENCODES.values(), ids=ONE_SAMPLE_ENCODES)
def test_one_sample_encodes_fail_closed_on_another_bandwidth(run, bw):
    # a training-mode model given narrowband features and any other bw
    # raises before any dropout draw or expert call
    model = Model(tiny_config(dropout=0.15, enc_smoe=True, dec_smoe=True), seed=49).train()
    feats = replace(random_features(50), bandwidth=Bandwidth.NB)
    state = model._dropout_rng.bit_generator.state
    with pytest.raises(RoutingError, match="features of NB"):
        run(model, feats, bw)
    assert model._dropout_rng.bit_generator.state == state
    assert [bank.call_counts for _, bank in model.smoe_layers()] == [[0, 0], [0, 0]]


def test_mixed_task_batch_routes_each_row_by_its_own_tag():
    # an ASR row of 7 ids and an ST row of 5, PAD-padded, over 6 and 9
    # encoder rows: each row's logits are its own single-row decode, and each
    # decoder expert runs once, on its own row
    model = Model(tiny_config(dec_smoe=True, n_dec_layers=2), seed=42).eval()
    rows = [asr_target(b"abc").ids, st_target(b"a").ids]
    ids = np.array([r + [int(GuidingToken.PAD)] * (7 - len(r)) for r in rows])
    feats = [random_features(43, 6), random_features(44, 9)]
    enc = model.encode_batch(feats).data
    model.reset_expert_counts()
    logits = model.decode_batch(constant(enc), ids, [6, 9]).data.reshape(2, 7, -1)
    assert [bank.call_counts for _, bank in model.smoe_layers()] == [[1, 1], [1, 1]]
    for i, (row, task, start, n) in enumerate(zip(rows, (Task.ASR, Task.ST), [0, 6], [6, 9])):
        alone = model.decode(constant(enc[start : start + n]), row, task).data
        np.testing.assert_allclose(logits[i, : len(row)], alone, rtol=1e-12, atol=1e-12)


def test_decoder_row_without_a_task_tag_fails_closed():
    # a training-mode batch whose second row starts with BOS raises before
    # the embedding: no dropout draw, no expert call
    model = Model(tiny_config(dropout=0.15, enc_smoe=True, dec_smoe=True), seed=45)
    enc = model.eval().encode_batch([random_features(46, 4), random_features(47, 5)])
    model.train().reset_expert_counts()
    state = model._dropout_rng.bit_generator.state
    ids = np.array([asr_target().ids, [int(GuidingToken.BOS), *asr_target().ids[1:]]])
    with pytest.raises(RoutingError, match="not a task tag"):
        model.decode_batch(enc, ids, [4, 5])
    assert model._dropout_rng.bit_generator.state == state
    assert [bank.call_counts for _, bank in model.smoe_layers()] == [[0, 0], [0, 0]]


@pytest.mark.parametrize("task", [Task.ST, "ASR"], ids=["other-task", "string"])
def test_decode_task_must_match_the_rows_tag(task):
    model = Model(tiny_config(dec_smoe=True), seed=47).eval()
    enc = model.encode(random_features(48), Bandwidth.WB)
    with pytest.raises(RoutingError, match="tagged ASR"):
        model.decode(enc, [3, 6, 1, 9, 12], task)
    assert model.smoe_layers()[0][1].call_counts == [0, 0]


def test_dropout_draws_only_in_training_mode():
    # at dropout 0.15, eval-mode encode, decode and infer_dual leave the
    # model's dropout RNG where it was; a training-mode batch_loss draws
    model = Model(tiny_config(dropout=0.15, dec_smoe=True), seed=40).eval()
    feats = random_features(41)
    state = model._dropout_rng.bit_generator.state
    model.decode(model.encode(feats, Bandwidth.WB), asr_target().ids, Task.ASR)
    model.infer_dual(feats, Bandwidth.WB, max_len=4)
    assert model._dropout_rng.bit_generator.state == state
    batch_loss(model.train(), Batch.build([Utterance(feats, asr_target(), b"abc")]))
    assert model._dropout_rng.bit_generator.state != state


def test_cloned_experts_match_baseline_bitwise():
    donor = Model(tiny_config(), seed=6).eval()
    routed = expand_experts(donor, encoder=True, decoder=True).eval()
    for bw in (Bandwidth.WB, Bandwidth.NB):
        feats = replace(random_features(7), bandwidth=bw)
        for target in (asr_target(b"xyz"), st_target(b"xyz")):
            a = donor.forward(feats, bw, target)
            b = routed.forward(feats, bw, target)
            assert np.array_equal(a.data, b.data)


def test_expand_experts_bank_matches_donor_under_both_gates():
    donor = Model(tiny_config(), seed=9)
    routed = expand_experts(donor, decoder=True)
    bank = routed.dec_layers[0].ffn
    assert bank.call_counts == [0, 0]
    x = constant(np.random.default_rng(5).normal(size=(3, 16)))
    base = ffn_forward(donor.dec_layers[0].ffn, x).data
    for gate in (GateVector((1.0, 0.0)), GateVector((0.0, 1.0))):
        assert np.array_equal(smoe_forward(bank, gate, x).data, base)


def test_expand_experts_is_deep():
    donor = Model(tiny_config(), seed=11)
    routed = expand_experts(donor, encoder=True)
    donor_w_in = donor.enc_layers[0].ffn.w_in.data.copy()
    experts = routed.enc_layers[0].ffn.experts
    experts[0].w_in.data[:] = 123.0
    assert np.array_equal(experts[1].w_in.data, donor_w_in)
    assert np.array_equal(donor.enc_layers[0].ffn.w_in.data, donor_w_in)
    routed.embed.data[:] = 0.0
    assert not np.array_equal(donor.embed.data, routed.embed.data)


def test_expand_experts_rejects_bad_expert_count():
    # a bank holds one expert per label value; the count is not a config key
    with pytest.raises(ConfigError, match="n_experts"):
        ModelConfig.from_text(tiny_config().to_text() + "n_experts = 3\n")
    for encoder, decoder in ((True, False), (False, True), (True, True)):
        routed = expand_experts(Model(tiny_config(), seed=2), encoder=encoder, decoder=decoder)
        banks = [name for name, bank in routed.smoe_layers() if len(bank.experts) == 2]
        assert banks == ["enc.0.ffn"] * encoder + ["dec.0.ffn"] * decoder


def test_expand_rejects_already_routed():
    donor = Model(tiny_config(dec_smoe=True), seed=7)
    with pytest.raises(ConfigError):
        expand_experts(donor, decoder=True)


def closed_form_counts(cfg):
    """(trainable, active) by the closed form, independent of the parameter
    table: shared tensors, plus per routed layer two FFN copies (one per
    label value) of which one is active."""
    d = cfg.d_model

    def ffn(d_ff):
        return (3 if cfg.glu else 2) * d * d_ff + (2 * d_ff if cfg.glu else d_ff) + d

    attn, norm = 4 * (d * d + d), 2 * d
    shared = (cfg.vocab_size * d * (1 if cfg.tied_embed else 2) + N_MELS * d + d + 2 * norm
              + cfg.n_enc_layers * (attn + 2 * norm) + cfg.n_dec_layers * (2 * attn + 3 * norm))
    enc, dec = cfg.n_enc_layers * ffn(cfg.d_ff), cfg.n_dec_layers * ffn(cfg.dec_ff)
    copies = [2 if routed else 1 for routed in (cfg.enc_smoe, cfg.dec_smoe)]
    return shared + copies[0] * enc + copies[1] * dec, shared + enc + dec


def test_count_params_matches_enumeration():
    for cfg in (
        tiny_config(),
        tiny_config(enc_smoe=True),
        tiny_config(dec_smoe=True),
        tiny_config(enc_smoe=True, dec_smoe=True),
        tiny_config(glu=False),
        tiny_config(tied_embed=False),
        tiny_config(d_ff_dec=48, dec_smoe=True),
        tiny_config(enc_smoe=True, dec_smoe=True, glu=False, tied_embed=False),
        ModelConfig(dec_smoe=True),
        ModelConfig(enc_smoe=True, dec_smoe=True, d_ff_dec=256),
        ModelConfig.paper_scale(glu=False, tied_embed=False, dec_smoe=True),
        ModelConfig.paper_scale(enc_smoe=True),
    ):
        pc = count_params(cfg)
        assert (pc.trainable, pc.active) == closed_form_counts(cfg), cfg
        assert sum(pc.parts.values()) == pc.trainable
        # the layer-0 sums scale to the whole table; active drops ...ffn.expertK... for K >= 1
        table = parameter_shapes(cfg)
        assert pc.trainable == sum(math.prod(shape) for _, shape in table)
        assert pc.active == sum(math.prod(shape) for name, shape in table
                                if not re.search(r"\.ffn\.expert[1-9]\d*\.", name))


def test_active_params_exclude_expert_copies():
    base = tiny_config()
    dec = tiny_config(dec_smoe=True)
    both = tiny_config(enc_smoe=True, dec_smoe=True)
    pc_base = count_params(base)
    pc_dec = count_params(dec)
    pc_both = count_params(both)
    assert pc_base.trainable == pc_base.active
    assert pc_dec.active == pc_base.trainable
    assert pc_both.active == pc_base.trainable
    per_ffn = 3 * 16 * 24 + 2 * 24 + 16  # GLU: w_in, w_gate, w_out, b_in, b_gate, b_out
    assert pc_dec.trainable - pc_base.trainable == 1 * per_ffn  # one dec layer, one extra copy


def test_param_count_invariant():
    with pytest.raises(ConfigError):
        ParamCount(trainable=10, active=11)


def test_checkpoint_round_trip_bitwise(tmp_path):
    model = Model(tiny_config(dec_smoe=True), seed=8)
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path, step=17)
    loaded, step = load_checkpoint(path)
    assert step == 17
    assert loaded.config == model.config
    for (na, ta), (nb, tb) in zip(model.named_parameters(), loaded.named_parameters()):
        assert na == nb
        assert np.array_equal(ta.data, tb.data), na


def test_checkpoint_truncated_fails_closed(tmp_path):
    model = Model(tiny_config(dec_smoe=True), seed=9)
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    raw = path.read_bytes()
    sections = checkpoint_sections(model)
    assert sections[-1][2] == len(raw)
    cuts = {3, 10, len(raw) // 2, len(raw) - 1}
    for _, start, end in sections:  # inside each header field, the config, a parameter
        cuts |= {start, (start + end) // 2, end - 1}
    for cut in sorted(cuts):
        bad = tmp_path / f"cut{cut}.ckpt"
        bad.write_bytes(raw[:cut])
        with pytest.raises(FormatError):
            load_checkpoint(bad)
    bad.write_bytes(raw + b"\x00")
    with pytest.raises(FormatError, match="config implies"):
        load_checkpoint(bad)


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(FormatError):
        load_checkpoint(path)


def test_checkpoint_expand_after_load_matches_donor(tmp_path):
    donor = Model(tiny_config(), seed=10).eval()
    path = tmp_path / "donor.ckpt"
    save_checkpoint(donor, path)
    loaded, _ = load_checkpoint(path)
    routed = expand_experts(loaded, encoder=True, decoder=True).eval()
    for bw in (Bandwidth.WB, Bandwidth.NB):
        feats = replace(random_features(11), bandwidth=bw)
        a = donor.forward(feats, bw, st_target(b"qq"))
        b = routed.forward(feats, bw, st_target(b"qq"))
        assert np.array_equal(a.data, b.data)


def test_config_text_round_trip():
    cfg = tiny_config(enc_smoe=True, d_ff_dec=48, tied_embed=False)
    back = ModelConfig.from_text(cfg.to_text())
    assert back == cfg


def test_config_text_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        ModelConfig.from_text("d_model = 16\nbogus_key = 3\n")


def test_config_presets():
    toy = ModelConfig()
    assert (toy.n_enc_layers, toy.n_dec_layers, toy.d_model, toy.d_ff, toy.n_heads) == (
        2, 2, 64, 128, 4,
    )
    paper = ModelConfig.paper_scale()
    assert (paper.n_enc_layers, paper.n_dec_layers) == (12, 6)
    assert (paper.d_model, paper.d_ff, paper.n_heads) == (512, 2048, 8)
    assert paper.dropout == 0.15
    assert (paper.max_src_frames, paper.max_tgt_tokens) == (3000, 120)


def test_dual_inference_matches_single_runs():
    model = Model(tiny_config(dec_smoe=True), seed=12).eval()
    feats = random_features(13)
    dual = model.infer_dual(feats, Bandwidth.WB, max_len=8)
    single_asr = model.infer_single(feats, Bandwidth.WB, Task.ASR, max_len=8)
    single_st = model.infer_single(feats, Bandwidth.WB, Task.ST, max_len=8)
    assert dual.asr_ids == single_asr.ids
    assert dual.st_ids == single_st.ids
    assert dual.asr_truncated == single_asr.truncated
    assert dual.st_truncated == single_st.truncated


def test_greedy_inference_encodes_in_eval_mode(monkeypatch):
    # dropout 0.5 on a model left in training mode: an encoder that drew
    # masks would hand the decode different states on every call
    model = Model(ModelConfig(vocab_size=272, dropout=0.5, dec_smoe=True, n_dec_layers=1), seed=3)
    feats = random_features(4, frames=30)
    want = model.eval().encode(feats, Bandwidth.WB).data.view(np.uint64)
    seen = []
    greedy_rows = Model._greedy_rows

    def spy(self, enc_out, prefixes, max_len):
        seen.append((self.training, enc_out.data.view(np.uint64).copy()))
        return greedy_rows(self, enc_out, prefixes, max_len)

    monkeypatch.setattr(Model, "_greedy_rows", spy)
    for mode in (model.train, model.eval):
        mode().infer_single(feats, Bandwidth.WB, Task.ASR, max_len=2)
        mode().infer_dual(feats, Bandwidth.WB, max_len=2)
    assert len(seen) == 4
    for training, enc in seen:
        assert not training and np.array_equal(enc, want)


def test_dual_inference_expert_counts_lockstep():
    model = Model(tiny_config(dec_smoe=True), seed=13).eval()
    feats = random_features(14)
    model.reset_expert_counts()
    max_len = 6
    dual = model.infer_dual(feats, Bandwidth.WB, max_len=max_len)
    _, bank = model.smoe_layers()[0]
    # if neither row hit EOS, both rows decoded max_len steps: [L, L]
    steps_st = len(dual.st_ids)
    steps_asr = len(dual.asr_ids)
    assert bank.call_counts == [steps_st, steps_asr]


def test_untrained_cloned_model_dual_rows_share_logits():
    donor = Model(tiny_config(), seed=14).eval()
    routed = expand_experts(donor, decoder=True).eval()
    feats = random_features(15)
    enc = routed.encode(feats, Bandwidth.WB)
    # identical experts: per-step logit streams match except for prefix effects
    asr_logits = routed.decode(enc, [3, 6, 1], Task.ASR)
    st_logits = routed.decode(enc, [4, 5, 1], Task.ST)
    assert asr_logits.shape == st_logits.shape


def test_cloned_dual_rows_identical_when_prefixes_coincide():
    # with cloned experts the two decode rows differ only through their
    # guiding prefixes; making the tag embeddings equal removes that too
    from smoe.seqio import GuidingToken

    donor = Model(tiny_config(), seed=21).eval()
    routed = expand_experts(donor, decoder=True).eval()
    emb = routed.embed.data
    emb[int(GuidingToken.TRANSLATE)] = emb[int(GuidingToken.TRANSCRIBE)]
    emb[int(GuidingToken.LANG_EN)] = emb[int(GuidingToken.LANG_KO)]
    dual = routed.infer_dual(random_features(22), Bandwidth.WB, max_len=6)
    assert dual.asr_ids == dual.st_ids


def test_encoder_output_bitwise_task_independent():
    model = Model(tiny_config(dec_smoe=True), seed=23).eval()
    feats = random_features(24)
    a = model.encode(feats, Bandwidth.WB)
    b = model.encode(feats, Bandwidth.WB)
    assert np.array_equal(a.data, b.data)


# -- cached greedy decode against a full-recompute oracle -----------------------


def reference_greedy(model, enc, task, max_len):
    """Greedy decode that re-runs Model.decode over the whole prefix at every
    step: (ids, truncated, last-position logits per step)."""
    ids = guiding_prefix(task)
    out, logits = [], []
    for _ in range(max_len):
        last = model.decode(enc, ids, task).data[-1]
        logits.append(last)
        out.append(int(np.argmax(last)))
        ids.append(out[-1])
        if out[-1] == GuidingToken.EOS:
            return out, False, logits
    return out, True, logits


@pytest.fixture
def fast_logits(monkeypatch):
    """Every [rows x vocab] logit block the cached decode computes, in order."""
    seen = []
    original = Model._last_logits

    def recording(self, last):
        seen.append(original(self, last))
        return seen[-1]

    monkeypatch.setattr(Model, "_last_logits", recording)
    return seen


def assert_logits_close(got, want):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


GREEDY_CONFIGS = [
    dict(),
    dict(enc_smoe=True),
    dict(dec_smoe=True),
    dict(enc_smoe=True, dec_smoe=True, tied_embed=False),
    dict(dec_smoe=True, activation="relu", glu=False),
    dict(n_dec_layers=2, dec_smoe=True),
    dict(n_dec_layers=2, enc_smoe=True, tied_embed=False, activation="relu", glu=False),
]


@pytest.mark.parametrize("overrides", GREEDY_CONFIGS, ids=lambda kw: ",".join(kw) or "shared")
def test_cached_greedy_matches_full_recompute(overrides, fast_logits):
    model = Model(tiny_config(**overrides), seed=31).eval()
    max_len = 7
    for bw in (Bandwidth.WB, Bandwidth.NB):
        feats = replace(random_features(32), bandwidth=bw)
        enc = model.encode(feats, bw)
        refs = {task: reference_greedy(model, enc, task, max_len) for task in (Task.ASR, Task.ST)}
        for task, (ids, truncated, logits) in refs.items():
            fast_logits.clear()
            single = model.infer_single(feats, bw, task, max_len=max_len)
            assert (single.ids, single.truncated) == (ids, truncated)
            assert len(fast_logits) == len(logits)
            for got, want in zip(fast_logits, logits):
                assert_logits_close(got[0], want)
        fast_logits.clear()
        dual = model.infer_dual(feats, bw, max_len=max_len)
        assert (dual.asr_ids, dual.asr_truncated) == refs[Task.ASR][:2]
        assert (dual.st_ids, dual.st_truncated) == refs[Task.ST][:2]
        assert len(fast_logits) == max_len  # neither row stops early here
        for step, got in enumerate(fast_logits):
            assert_logits_close(got[0], refs[Task.ASR][2][step])
            assert_logits_close(got[1], refs[Task.ST][2][step])


def eos_relabelled_model():
    """A model whose ASR row stops early and whose ST row does not: one token
    of the ASR row's greedy output is relabelled as EOS by swapping their
    output columns, while the ST row, which never emits either token,
    decodes to max_len unchanged. Returns the model, its features, max_len,
    its encoder output, both rows' original ids and the ASR row's stop."""
    model = Model(tiny_config(dec_smoe=True, tied_embed=False), seed=1).eval()
    feats = random_features(1)
    max_len = 8
    enc = model.encode(feats, Bandwidth.WB)
    asr, _, _ = reference_greedy(model, enc, Task.ASR, max_len)
    st, _, _ = reference_greedy(model, enc, Task.ST, max_len)
    eos = int(GuidingToken.EOS)
    stop = next(k for k in range(2, max_len - 1)
                if asr[k] not in asr[:k] + st and eos not in asr + st)
    w = model.out_proj.data
    w[:, [eos, asr[stop]]] = w[:, [asr[stop], eos]]
    return model, feats, max_len, enc, asr, st, stop


def test_dual_row_leaves_the_batch_at_eos():
    model, feats, max_len, enc, asr, st, stop = eos_relabelled_model()
    eos = int(GuidingToken.EOS)
    model.reset_expert_counts()
    dual = model.infer_dual(feats, Bandwidth.WB, max_len=max_len)
    counts = model.smoe_layers()[0][1].call_counts
    assert (dual.asr_ids, dual.asr_truncated) == (asr[:stop] + [eos], False)
    assert (dual.st_ids, dual.st_truncated) == (st, True)
    assert counts == [max_len, stop + 1]  # [ST expert, ASR expert]
    for task, ids in ((Task.ASR, dual.asr_ids), (Task.ST, dual.st_ids)):
        assert model.infer_single(feats, Bandwidth.WB, task, max_len=max_len).ids == ids
        assert reference_greedy(model, enc, task, max_len)[0] == ids


@pytest.mark.parametrize("max_tgt_tokens", [2, 3, 6])
def test_cached_greedy_hits_token_limit_at_reference_step(max_tgt_tokens, monkeypatch):
    """A max_len past max_tgt_tokens - 2 is a ConfigError before the first
    step, with no expert called; max_len = max_tgt_tokens - 2 decodes what
    the full-prefix reference decodes, with no position table past the limit."""
    model = Model(tiny_config(dec_smoe=True, max_tgt_tokens=max_tgt_tokens), seed=33).eval()
    feats = random_features(34)
    enc = model.encode(feats, Bandwidth.WB)
    bank = model.smoe_layers()[0][1]
    for max_len in (max_tgt_tokens - 1, 10**6):
        bank.reset_counts()
        with pytest.raises(ConfigError, match=f"max_tgt_tokens {max_tgt_tokens} - 2"):
            model.infer_dual(feats, Bandwidth.WB, max_len=max_len)
        assert bank.call_counts == [0, 0]
    sizes = []
    original = smoe.model.sinusoidal_positions

    def recording(t, d_model):
        sizes.append(t)
        return original(t, d_model)

    monkeypatch.setattr(smoe.model, "sinusoidal_positions", recording)
    max_len = max_tgt_tokens - 2
    asr, st = model._greedy_rows(enc, [guiding_prefix(Task.ASR), guiding_prefix(Task.ST)], max_len)
    for task, got in ((Task.ASR, asr), (Task.ST, st)):
        ids, truncated, _ = reference_greedy(model, enc, task, max_len)
        assert (got.ids, got.truncated) == (ids, truncated)
        assert len(ids) == max_len and truncated  # each row decodes up to the limit
    assert max(sizes, default=0) <= max_tgt_tokens


@pytest.mark.parametrize("routed", [True, False], ids=["routed", "shared"])
def test_greedy_decode_stays_off_the_tape(routed, monkeypatch):
    """The cached decode calls no tape op: with the FFN tape wrappers and
    `constant` raising, it returns the same ids and expert counts."""
    model = Model(tiny_config(dec_smoe=routed), seed=35).eval()
    enc = model.encode(replace(random_features(36), bandwidth=Bandwidth.NB), Bandwidth.NB)

    def run():
        model.reset_expert_counts()
        rows = model._greedy_rows(enc, [guiding_prefix(Task.ASR), guiding_prefix(Task.ST)], 6)
        return ([(r.ids, r.truncated) for r in rows],
                [list(bank.call_counts) for _, bank in model.smoe_layers()])

    want = run()
    assert (sum(want[1][0]) > 0) if routed else want[1] == []

    def forbidden(*args, **kwargs):
        raise AssertionError("greedy decode called a tape op")

    for name in ("ffn_forward", "smoe_forward", "constant"):
        monkeypatch.setattr(smoe.model, name, forbidden)
    assert run() == want


def recorded_logits(model, run):
    """run()'s result and every [rows x vocab] logit block its cached decode
    computed, in order."""
    blocks, original = [], Model._last_logits

    def recording(last):
        blocks.append(original(model, last))
        return blocks[-1]

    model._last_logits = recording
    try:
        return run(), blocks
    finally:
        del model._last_logits


@settings(max_examples=50, deadline=None)
@given(n_heads=st.sampled_from([1, 2, 4]), n_dec_layers=st.integers(1, 2), tied=st.booleans(),
       silu_glu=st.booleans(), routed=st.booleans(), max_len=st.integers(1, 10),
       spare=st.integers(0, 3), frames=st.integers(1, 12), seed=st.integers(0, 2**16),
       force_eos=st.booleans())
@example(n_heads=2, n_dec_layers=2, tied=False, silu_glu=True, routed=True, max_len=8, spare=0,
         frames=9, seed=1, force_eos=True)
def test_cached_greedy_matches_reference_over_configs(
    n_heads, n_dec_layers, tied, silu_glu, routed, max_len, spare, frames, seed, force_eos
):
    """infer_single and infer_dual emit reference_greedy's ids, each step's
    logits within 1e-12 relative. force_eos relabels a token that only the
    ASR row emits, before the ST row ends, as EOS (untied output projection),
    so the ASR row leaves the dual batch early and the caches are compacted."""
    cfg = tiny_config(n_heads=n_heads, n_dec_layers=n_dec_layers, tied_embed=tied and not force_eos,
                      activation="silu" if silu_glu else "relu", glu=silu_glu, dec_smoe=routed,
                      max_tgt_tokens=max_len + 2 + spare)
    model = Model(cfg, seed=seed).eval()
    feats = random_features(seed, frames)
    enc = model.encode(feats, Bandwidth.WB)
    refs = {task: reference_greedy(model, enc, task, max_len) for task in Task}
    asr, st_ids = refs[Task.ASR][0], refs[Task.ST][0]
    eos = int(GuidingToken.EOS)
    stop = next((k for k in range(min(len(asr), len(st_ids) - 1))
                 if asr[k] not in asr[:k] + st_ids and eos not in asr[:k + 1] + st_ids), None)
    forced = force_eos and stop is not None
    if forced:
        w = model.out_proj.data
        w[:, [eos, asr[stop]]] = w[:, [asr[stop], eos]]
        refs = {task: reference_greedy(model, enc, task, max_len) for task in Task}
        assert refs[Task.ASR][0] == asr[:stop] + [eos]
    for task, (ids, truncated, logits) in refs.items():
        single, blocks = recorded_logits(
            model, lambda: model.infer_single(feats, Bandwidth.WB, task, max_len=max_len))
        assert (single.ids, single.truncated) == (ids, truncated)
        assert len(blocks) == len(logits)
        for got, want in zip(blocks, logits):
            assert_logits_close(got[0], want)
    dual, blocks = recorded_logits(model, lambda: model.infer_dual(feats, Bandwidth.WB, max_len))
    assert (dual.asr_ids, dual.asr_truncated) == refs[Task.ASR][:2]
    assert (dual.st_ids, dual.st_truncated) == refs[Task.ST][:2]
    live = [Task.ASR, Task.ST]
    for step, block in enumerate(blocks):
        assert block.shape[0] == len(live)
        for got, task in zip(block, live):
            assert_logits_close(got, refs[task][2][step])
        live = [task for task in live if len(refs[task][0]) > step + 1]
    assert not live
    if forced:  # the ST row decoded on alone after the ASR row's EOS
        assert [len(block) for block in blocks][stop:stop + 2] == [2, 1]


@pytest.mark.parametrize("routed", [True, False], ids=["routed", "shared"])
def test_greedy_views_are_the_arena(routed):
    """Each decoder layer's `qkv` and `experts` views share the arena, copy i
    of an entry being that entry of the i-th projection or expert."""
    model = Model(tiny_config(n_dec_layers=2, dec_smoe=routed, glu=not routed), seed=5)
    for layer in model.dec_layers:
        a = layer.self_attn
        experts = layer.ffn.experts if routed else [layer.ffn]
        want = [[a.w_q, a.w_k, a.w_v], [a.b_q, a.b_k, a.b_v]]
        want += [[e.tensors()[i] for e in experts] for i in range(6)]
        got = [*layer.qkv, *layer.experts]
        for views, tensors in zip(got, want):
            if views is None:  # no GLU gate
                assert tensors == [None] * len(experts)
                continue
            assert len(views) == len(tensors)
            for view, t in zip(views, tensors):
                assert np.shares_memory(view, model.arena)
                assert np.shares_memory(view, t.data) and np.array_equal(view.reshape(t.shape), t.data)


@pytest.mark.parametrize("overrides", [
    dict(), dict(enc_smoe=True), dict(dec_smoe=True), dict(enc_smoe=True, dec_smoe=True),
    dict(tied_embed=False, glu=False), dict(d_ff_dec=40, dec_smoe=True),
], ids=["plain", "enc-routed", "dec-routed", "both-routed", "untied-no-glu", "d_ff_dec"])
def test_layer_blocks_are_their_arena_views(overrides):
    """Each block _layer_blocks names is a layer attribute whose tensors are,
    by identity, the named_parameters() entries of its arena names. With the
    tensors outside the stacks they cover named_parameters() exactly once,
    and smoe_layers() is the routed FFN blocks in table order."""
    cfg = tiny_config(n_enc_layers=2, n_dec_layers=2, **overrides)
    model = Model(cfg, seed=3)
    named = dict(model.named_parameters())
    seen = [model.embed, model.out_proj, model.input_proj_w, model.input_proj_b,
            model.ln_enc_final.gain, model.ln_enc_final.bias,
            model.ln_dec_final.gain, model.ln_dec_final.bias]
    routed = []
    for stack, layers in (("enc", model.enc_layers), ("dec", model.dec_layers)):
        n_layers, blocks = _layer_blocks(cfg, stack)
        assert len(layers) == n_layers
        for i, layer in enumerate(layers):
            for kind, block, shapes, experts in blocks:
                got = getattr(layer, block)
                if kind == "attn":
                    assert got.n_heads == cfg.n_heads
                if experts:
                    assert isinstance(got, SMoELayer) and len(got.experts) == experts
                    routed.append((f"{stack}.{i}.{block}", got))
                copies = got.experts if experts else [got]
                for k, copy in enumerate(copies):
                    sub = f"expert{k}." if experts else ""
                    for n, _ in shapes:
                        assert getattr(copy, n) is named[f"{stack}.{i}.{block}.{sub}{n}"]
                        seen.append(getattr(copy, n))
    seen = [t for t in seen if t is not None]
    assert sorted(map(id, seen)) == sorted(map(id, named.values()))
    assert [name for name, _ in routed] == [
        f"{s}.{i}.ffn" for s in ("enc", "dec") if getattr(cfg, f"{s}_smoe") for i in range(2)]
    assert [(name, id(bank)) for name, bank in model.smoe_layers()] == [
        (name, id(bank)) for name, bank in routed]


# -- one-sample forward pinned across the packed-encoder change ------------------------


PINNED_B1 = [
    (dict(n_enc_layers=1, n_dec_layers=1, d_model=16, d_ff=24, n_heads=2, enc_smoe=True,
          dec_smoe=True),
     "a8c086267ebfa454c522a8f3cd5cacdfcbe98b445bc57608bcbdc50c26c80377"),
    (dict(n_enc_layers=2, n_dec_layers=2, d_model=32, d_ff=48, n_heads=4, dec_smoe=True,
          tied_embed=False),
     "1bcaf8a08d58dd2e695ae11618619111c64cb5d6204e5f68a12755ea992f4e59"),
    (dict(n_enc_layers=2, n_dec_layers=1, d_model=64, d_ff=96, n_heads=8, enc_smoe=True,
          glu=False, activation="relu"),
     "e45b9dd80c2d092505a6adaec9589261a33c1cf9e5ac627b87ec08a02b1a4059"),
]


@pytest.mark.parametrize("overrides, digest", PINNED_B1, ids=["d16", "d32-untied", "d64-relu"])
def test_one_sample_forward_and_greedy_match_pinned_digest(overrides, digest):
    # SHA-256 over the <f8 bytes of Model.encode and Model.decode outputs and
    # the infer_single/infer_dual ids at 1, 13 and 37 frames, pinned with the
    # padded, masked attention; the packed path must reproduce them bitwise.
    # The digests hold for one BLAS build: another may round differently.
    # The decode bytes are the ST expert's on an ASR-tagged row, which the
    # decoder routes to the ASR expert, so a copy whose decoder experts trade
    # weights computes them (on an unrouted decoder the swap is a no-op).
    model = Model(ModelConfig(vocab_size=VOCAB.size, dropout=0.0, **overrides), seed=7).eval()
    swapped = Model.allocate(model.config)
    swapped.arena[...] = model.arena
    params = dict(swapped.named_parameters())
    for name, t in params.items():
        if name.startswith("dec.") and ".ffn.expert0." in name:
            other = params[name.replace(".expert0.", ".expert1.")]
            t.data[...], other.data[...] = other.data.copy(), t.data.copy()
    h = hashlib.sha256()
    for frames, bw in ((1, Bandwidth.WB), (13, Bandwidth.NB), (37, Bandwidth.WB)):
        rng = np.random.default_rng(frames)
        feats = FbankFeatures(frames=constant(rng.normal(size=(frames, 80)) - 10.0), bandwidth=bw)
        enc = model.encode(feats, bw)
        h.update(enc.data.astype("<f8").tobytes())
        h.update(swapped.decode(enc, [3, 6, 1, 9, 12], Task.ASR).data.astype("<f8").tobytes())
        single = model.infer_single(feats, bw, Task.ST, max_len=9)
        dual = model.infer_dual(feats, bw, max_len=9)
        h.update(repr((single.ids, single.truncated, dual.asr_ids, dual.asr_truncated,
                       dual.st_ids, dual.st_truncated)).encode())
    assert h.hexdigest() == digest


def test_greedy_logits_and_ids_match_pinned_digest(fast_logits):
    # SHA-256 over the <f8 bytes of every logit block the cached greedy decode
    # computes, and over its results: infer_single for both tasks and
    # infer_dual on two of PINNED_B1's configs, then the dual decode of
    # eos_relabelled_model, which goes on with one row once its ASR row
    # stops. The digest holds for one BLAS build: another may round differently.
    h = hashlib.sha256()

    def record(result):
        for logits in fast_logits:
            h.update(logits.astype("<f8").tobytes())
        fast_logits.clear()
        h.update(repr(result).encode())

    for overrides, _ in PINNED_B1[:2]:
        model = Model(ModelConfig(vocab_size=VOCAB.size, dropout=0.0, **overrides), seed=7).eval()
        for frames, bw in ((13, Bandwidth.NB), (37, Bandwidth.WB)):
            rng = np.random.default_rng(frames)
            feats = FbankFeatures(frames=constant(rng.normal(size=(frames, 80)) - 10.0),
                                  bandwidth=bw)
            for task in (Task.ASR, Task.ST):
                record(model.infer_single(feats, bw, task, max_len=9))
            record(model.infer_dual(feats, bw, max_len=9))
    model, feats, max_len = eos_relabelled_model()[:3]
    record(model.infer_dual(feats, Bandwidth.WB, max_len=max_len))
    assert h.hexdigest() == "03cc6098f1c6ed68dfed4428fd5fa410f5b84c511ac9a802917bb6e3fccee632"


# -- checkpoint bytes ---------------------------------------------------------------


def checkpoint_bytes(model, step, version=3):
    """The checkpoint layout, written out field by field."""
    cfg = model.config.to_text().encode("utf-8")
    return (b"SMOE" + struct.pack("<IQI", version, step, len(cfg)) + cfg
            + model.arena.astype("<f8").tobytes())


def v1_checkpoint_bytes(model, step):
    """The version-1 checkpoint layout, which named and shaped each
    parameter, written out field by field."""
    params = model.named_parameters()
    cfg = model.config.to_text().encode("utf-8")
    out = b"SMOE" + struct.pack("<I", 1) + struct.pack("<Q", step)
    out += struct.pack("<I", len(cfg)) + cfg + struct.pack("<I", len(params))
    for name, tensor in params:
        name_b = name.encode("utf-8")
        out += struct.pack("<I", len(name_b)) + name_b + struct.pack("<I", tensor.data.ndim)
        out += b"".join(struct.pack("<Q", dim) for dim in tensor.data.shape)
        out += tensor.data.astype("<f8").tobytes()
    return out


def checkpoint_sections(model):
    """(name, start, end) byte ranges of a file's header fields, its config
    block and its first and last parameters' bytes."""
    cfg_len = len(model.config.to_text().encode("utf-8"))
    spans = [("magic", 4), ("version", 4), ("step", 8), ("config length", 4),
             ("config", cfg_len)]
    spans += [(name, tensor.data.nbytes) for name, tensor in model.named_parameters()]
    out, off = [], 0
    for i, (label, n) in enumerate(spans):
        if i <= 5 or i == len(spans) - 1:  # the header, the first and the last parameter
            out.append((label, off, off + n))
        off += n
    return out


def test_checkpoint_bytes_match_v3_layout(tmp_path):
    for cfg in (tiny_config(), tiny_config(enc_smoe=True, dec_smoe=True, tied_embed=False, glu=False)):
        model = Model(cfg, seed=35)
        save_checkpoint(model, tmp_path / "m.ckpt", step=41)
        assert (tmp_path / "m.ckpt").read_bytes() == checkpoint_bytes(model, 41)


def test_v1_checkpoint_fails_closed_naming_its_version(tmp_path, capsys):
    # a version-2 file had this layout, but with an n_mels config key and FFN
    # entries in the order w_in, b_in, w_gate, b_gate, w_out, b_out; the
    # version is rejected before either is read
    model = Model(tiny_config(), seed=36)
    for version, raw in ((1, v1_checkpoint_bytes(model, 5)),
                         (2, checkpoint_bytes(model, 5, version=2))):
        path = tmp_path / f"v{version}.ckpt"
        path.write_bytes(raw)
        with pytest.raises(FormatError, match=f"version {version}"):
            load_checkpoint(path)
        assert main(["infer", "--ckpt", str(path), str(tmp_path / "in.wav")]) == 2
        assert f"version {version}" in capsys.readouterr().err
        assert main(["inspect", "--ckpt", str(path)]) == 2
        assert f"version {version}" in capsys.readouterr().err


def test_checkpoint_shorter_than_config_fails_before_model_is_built(tmp_path, monkeypatch):
    model = Model(tiny_config(), seed=37)
    path = tmp_path / "short.ckpt"
    path.write_bytes(checkpoint_bytes(model, 0)[:-1])  # one byte short of the arena

    def no_model(*args, **kwargs):
        raise AssertionError("Model built for a file too short for its config")

    monkeypatch.setattr(smoe.model, "Model", no_model)
    monkeypatch.setattr(smoe.model, "parameter_arena", no_model)
    with pytest.raises(FormatError, match="config implies"):
        load_checkpoint(path)


@pytest.mark.parametrize("huge", [
    dict(n_enc_layers=10**9),
    dict(n_dec_layers=10**9),
])
def test_checkpoint_claiming_huge_layer_or_expert_counts_fails_fast(huge, tmp_path, monkeypatch):
    cfg_bytes = tiny_config(**huge).to_text().encode("utf-8")
    path = tmp_path / "huge.ckpt"
    path.write_bytes(smoe.model.CHECKPOINT_MAGIC
                     + struct.pack("<IQI", smoe.model.CHECKPOINT_VERSION, 0, len(cfg_bytes))
                     + cfg_bytes + bytes(64))

    def no_table(*args, **kwargs):
        raise AssertionError("table built for a file too short for its config")

    monkeypatch.setattr(smoe.model, "parameter_shapes", no_table)
    with pytest.raises(FormatError, match="config implies"):
        load_checkpoint(path)


@pytest.mark.parametrize("edit, match", [
    (lambda raw: raw[:4] + struct.pack("<I", 4) + raw[8:], "version"),
    # a config whose layers are wider than the arena the file holds
    (lambda raw: raw.replace(b"d_ff = 24\n", b"d_ff = 26\n", 1), "config implies"),
    # a second dropout line written over the activation line, same length
    (lambda raw: raw.replace(b"activation = silu\n", b"dropout = 0.99999\n", 1),
     "duplicate key 'dropout'"),
])
def test_checkpoint_edited_entries_fail_closed(edit, match, tmp_path):
    model = Model(tiny_config(), seed=38)
    raw = checkpoint_bytes(model, 0)
    edited = edit(raw)
    assert len(edited) == len(raw) and edited != raw
    path = tmp_path / "edited.ckpt"
    path.write_bytes(edited)
    with pytest.raises(FormatError, match=match):
        load_checkpoint(path)


def test_checkpoint_with_n_experts_config_key_fails_closed(tmp_path):
    # the bytes a model had while n_experts was a config key: the same
    # file with `n_experts = 2` in its config block
    model = Model(tiny_config(dec_smoe=True), seed=42)
    raw = checkpoint_bytes(model, 0)
    cfg = model.config.to_text().encode("utf-8")
    old = cfg.replace(b"max_src_frames", b"n_experts = 2\nmax_src_frames")
    path = tmp_path / "old.ckpt"
    path.write_bytes(raw.replace(struct.pack("<I", len(cfg)) + cfg,
                                 struct.pack("<I", len(old)) + old, 1))
    with pytest.raises(FormatError, match="unknown key 'n_experts'"):
        load_checkpoint(path)


def test_failed_save_keeps_previous_checkpoint_and_leaves_no_temp_file(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(Model(tiny_config(), seed=40), path, step=1)
    before = path.read_bytes()
    broken = Model(tiny_config(), seed=41)
    broken.arena = np.full(broken.arena.shape, "x", dtype=object)  # fails after the header
    with pytest.raises(ValueError):
        save_checkpoint(broken, path, step=2)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]


def forced_fallocate(monkeypatch, code):
    """Replace libc's fallocate by one that fails with errno `code`, or by
    None (no such symbol) for code None; returns the calls it saw."""
    calls = []

    def fail(fd, mode, offset, size):
        calls.append((mode, offset, size))
        ctypes.set_errno(code)
        return -1

    monkeypatch.setattr(smoe.model, "_fallocate", None if code is None else fail)
    return calls


def test_save_preallocates_the_exact_size_and_round_trips(tmp_path, monkeypatch):
    model = Model(tiny_config(dec_smoe=True, tied_embed=False), seed=42)
    want, calls, real = checkpoint_bytes(model, 5), [], smoe.model._fallocate

    def record(fd, mode, offset, size):
        calls.append((mode, offset, size, os.fstat(fd).st_size))
        return 0 if real is None else real(fd, mode, offset, size)

    monkeypatch.setattr(smoe.model, "_fallocate", record)
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path, step=5)
    assert calls == [(0, 0, len(want), 0)]  # one call, on the empty file
    assert path.read_bytes() == want
    loaded, step = load_checkpoint(path)
    assert step == 5 and loaded.arena.tobytes() == model.arena.tobytes()


@pytest.mark.parametrize("code", [errno.EOPNOTSUPP, errno.ENOSYS, None],
                         ids=["EOPNOTSUPP", "ENOSYS", "no-symbol"])
def test_save_without_fallocate_writes_the_same_bytes(code, tmp_path, monkeypatch):
    model = Model(tiny_config(), seed=43)
    calls = forced_fallocate(monkeypatch, code)
    save_checkpoint(model, tmp_path / "m.ckpt", step=3)
    assert len(calls) == (0 if code is None else 1)
    assert (tmp_path / "m.ckpt").read_bytes() == checkpoint_bytes(model, 3)


def test_interrupted_preallocation_is_retried(tmp_path, monkeypatch):
    model, calls = Model(tiny_config(), seed=46), []

    def interrupted_once(fd, mode, offset, size):
        calls.append(size)
        ctypes.set_errno(errno.EINTR)
        return -1 if len(calls) == 1 else 0

    monkeypatch.setattr(smoe.model, "_fallocate", interrupted_once)
    save_checkpoint(model, tmp_path / "m.ckpt", step=4)
    want = checkpoint_bytes(model, 4)
    assert calls == [len(want)] * 2
    assert (tmp_path / "m.ckpt").read_bytes() == want


@pytest.mark.parametrize("code", [errno.ENOSPC, errno.EFBIG, errno.EIO],
                         ids=["ENOSPC", "EFBIG", "EIO"])
def test_failed_preallocation_fails_the_save_and_keeps_the_previous_file(
        code, tmp_path, monkeypatch):
    path = tmp_path / "m.ckpt"
    earlier = Model(tiny_config(), seed=44)
    save_checkpoint(earlier, path, step=1)
    forced_fallocate(monkeypatch, code)
    with pytest.raises(OSError) as failed:
        save_checkpoint(Model(tiny_config(), seed=45), path, step=2)
    assert failed.value.errno == code
    assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]
    loaded, step = load_checkpoint(path)
    assert step == 1 and loaded.arena.tobytes() == earlier.arena.tobytes()


def upper_half_start(path, model):
    """The file offset where a load's helper thread starts reading: the
    arena's upper half, split on a whole float."""
    return path.stat().st_size - 8 * (model.arena.size - model.arena.size // 2)


def recorded_opens(monkeypatch):
    """The files load_checkpoint opens, kept so a test can see them closed."""
    opened, real = [], smoe.model._open_checkpoint

    def record(path):
        opened.append(real(path))
        return opened[-1]

    monkeypatch.setattr(smoe.model, "_open_checkpoint", record)
    return opened


def test_load_with_short_positional_reads_round_trips_bitwise(tmp_path, monkeypatch):
    model = Model(tiny_config(enc_smoe=True, dec_smoe=True), seed=45)
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path, step=6)
    upper = upper_half_start(path, model)
    reads, real = [], os.preadv

    def at_most_4k(fd, buffers, offset):
        (buf,) = buffers
        reads.append((threading.current_thread(), offset))
        return real(fd, [buf[:4096]], offset)

    monkeypatch.setattr(os, "preadv", at_most_4k)
    loaded, step = load_checkpoint(path)
    assert step == 6 and loaded.config == model.config
    assert np.array_equal(loaded.arena.view(np.uint64), model.arena.view(np.uint64))
    lower = {thread for thread, offset in reads if offset < upper}
    helper = {thread for thread, offset in reads if offset >= upper}
    assert lower == {threading.current_thread()} and len(helper) == 1 and lower != helper
    split = 8 * (model.arena.size // 2)
    assert len(reads) == math.ceil(split / 4096) + math.ceil((model.arena.nbytes - split) / 4096)


def test_load_without_positional_reads_is_one_read_and_round_trips_bitwise(tmp_path,
                                                                          monkeypatch):
    model = Model(tiny_config(enc_smoe=True), seed=47)
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path, step=3)
    monkeypatch.delattr(os, "preadv")
    started = []
    monkeypatch.setattr(threading.Thread, "start", lambda self: started.append(self))
    loaded, step = load_checkpoint(path)
    assert step == 3 and not started
    assert np.array_equal(loaded.arena.view(np.uint64), model.arena.view(np.uint64))


@pytest.mark.parametrize("half", ["lower", "upper"])
@pytest.mark.parametrize("fault", ["end of file", "OSError"])
def test_load_whose_half_fails_raises_and_leaves_no_thread_or_file(half, fault, tmp_path,
                                                                   monkeypatch, capsys):
    model = Model(tiny_config(), seed=46)
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    upper = upper_half_start(path, model)
    injected = OSError(errno.EIO, "injected read error")
    real = os.preadv

    def failing(fd, buffers, offset):
        if (offset >= upper) == (half == "upper"):
            if fault == "OSError":
                raise injected
            return 0
        return real(fd, buffers, offset)

    opened = recorded_opens(monkeypatch)
    monkeypatch.setattr(os, "preadv", failing)
    threads = threading.active_count()
    if fault == "OSError":
        with pytest.raises(OSError) as info:
            load_checkpoint(path)
        assert info.value is injected
    else:
        with pytest.raises(CheckpointError, match="truncated checkpoint"):
            load_checkpoint(path)
        assert main(["infer", "--ckpt", str(path), str(tmp_path / "in.wav")]) == 2
        assert "truncated checkpoint" in capsys.readouterr().err
    assert opened and all(fh.closed for fh in opened)
    assert threading.active_count() == threads


# -- parameter arena ----------------------------------------------------------------


PINNED_INIT = [
    (dict(n_dec_layers=2, enc_smoe=True, dec_smoe=True), 3,
     "a316e5d674837285aeead67ce7e6da1348ce9930b8585788786217a57314c691"),
    (dict(n_dec_layers=2, tied_embed=False, glu=False, activation="relu"), 4,
     "3f941bf7019671f6a424e24cc5201a183fddee81e94da0861455471d4624009b"),
    (dict(n_dec_layers=2, d_ff_dec=48, dec_smoe=True), 5,
     "0c89a6759bc9e9fca92dd988c39df29a3a6559b5489d240aa43f389453a3d4f4"),
]


@pytest.mark.parametrize("overrides, seed, digest", PINNED_INIT,
                         ids=["tied-glu-enc-dec-routed", "untied-relu", "d_ff_dec"])
def test_init_weights_match_pinned_digest(overrides, seed, digest):
    """Random init draws in one fixed order; these digests pin the weights
    of Model(cfg, seed) over the <f8 bytes of named_parameters() in name
    order, so they hold across a change of arena order that keeps every
    parameter's values."""
    h = hashlib.sha256()
    for _, t in sorted(Model(tiny_config(**overrides), seed).named_parameters()):
        h.update(np.ascontiguousarray(t.data, dtype="<f8").tobytes())
    assert h.hexdigest() == digest


def assert_in_arena(model):
    arena, bounds = arena_bounds(model.named_parameters())
    assert arena is model.arena and bounds[-1] == model.parameter_count()
    for name, t in model.named_parameters():
        assert np.shares_memory(t.data, model.arena), name


def test_expand_and_load_keep_parameters_in_the_arena(tmp_path):
    donor = Model(tiny_config(), seed=42)
    assert_in_arena(donor)
    routed = expand_experts(donor, encoder=True, decoder=True)
    assert_in_arena(routed)
    save_checkpoint(routed, tmp_path / "m.ckpt")
    loaded, _ = load_checkpoint(tmp_path / "m.ckpt")
    assert_in_arena(loaded)
    assert np.array_equal(loaded.arena.view(np.uint64), routed.arena.view(np.uint64))


def test_expand_and_load_draw_no_random_values(tmp_path, monkeypatch):
    donor = Model(tiny_config(), seed=43)
    save_checkpoint(donor, tmp_path / "m.ckpt")

    def no_draw(*args, **kwargs):
        raise AssertionError("random init ran")

    monkeypatch.setattr(Model, "__init__", no_draw)
    monkeypatch.setattr(smoe.model, "init_parameters", no_draw)
    load_checkpoint(tmp_path / "m.ckpt")
    expand_experts(donor, decoder=True)


SENTINEL = np.uint64(0x7FF4_DEAD_BEEF_0001)  # a NaN bit pattern


def _fuzz_base():
    cfg = ModelConfig(n_enc_layers=1, n_dec_layers=1, d_model=4, d_ff=4, n_heads=2,
                      vocab_size=8, dropout=0.0, enc_smoe=True)
    with tempfile.TemporaryDirectory() as d:
        save_checkpoint(Model(cfg, seed=44), Path(d) / "m.ckpt", step=3)
        return (Path(d) / "m.ckpt").read_bytes()


FUZZ_BASE = _fuzz_base()


@st.composite
def mutated_checkpoints(draw):
    raw = bytearray(FUZZ_BASE)
    kind = draw(st.sampled_from(["flip", "truncate", "splice"]))
    if kind == "flip":
        for bit in draw(st.lists(st.integers(0, 8 * len(raw) - 1), min_size=1, max_size=3)):
            raw[bit // 8] ^= 1 << (bit % 8)
    elif kind == "truncate":
        del raw[draw(st.integers(0, len(raw) - 1)):]
    else:  # move a run of bytes elsewhere, or drop it, or repeat it
        start = draw(st.integers(0, len(raw) - 1))
        chunk = raw[start : start + draw(st.integers(1, 48))]
        if draw(st.booleans()):
            del raw[start : start + len(chunk)]
        at = draw(st.integers(0, len(raw)))
        raw[at:at] = chunk
    return bytes(raw)


def entry_bytes(raw: bytes) -> bytes:
    """A checkpoint's bytes after its config block: the arena."""
    (cfg_len,) = struct.unpack_from("<I", raw, 16)
    return raw[20 + cfg_len :]


@settings(max_examples=300, deadline=None)
@given(raw=mutated_checkpoints())
def test_load_checkpoint_fuzzed_fails_closed_or_fills_every_view(raw, monkeypatch_arena):
    """Every load either raises FormatError or returns a model that holds
    exactly the file's arena: saved again, it writes the same arena bytes."""
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "m.ckpt"
        path.write_bytes(raw)
        try:
            model, step = load_checkpoint(path)
        except FormatError:
            return
        assert_in_arena(model)
        save_checkpoint(model, path, step)
        assert entry_bytes(path.read_bytes()) == entry_bytes(raw)


@pytest.fixture(scope="module")
def monkeypatch_arena():
    """Arenas start out holding SENTINEL in every slot, not the zeros of
    fresh memory, so a view that a load leaves unwritten shows."""
    real = smoe.model.parameter_arena

    def marked(shapes):
        arena, params = real(shapes)
        arena.view(np.uint64)[:] = SENTINEL
        return arena, params

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(smoe.model, "parameter_arena", marked)
        yield


# -- mid-size inference on two cores: bitwise the one-part run -------------------------


@pytest.fixture(scope="module", params=[True, False], ids=["tied", "untied"])
def mid_model(request):
    """Both stacks routed at d 256: every product the size rule can split
    at the default SPLIT_MIN_MACS or at 0 splits here. With a tied table
    the random model's greedy ids repeat one token; untied, they vary."""
    return Model(ModelConfig(n_enc_layers=2, n_dec_layers=1, d_model=256, d_ff=1024, n_heads=4,
                             vocab_size=4000, dropout=0.0, enc_smoe=True, dec_smoe=True,
                             tied_embed=request.param), seed=3).eval()


def mid_features(frames=300):
    rng = np.random.default_rng(frames)
    return FbankFeatures(frames=constant(rng.normal(size=(frames, 80)) - 10.0),
                         bandwidth=Bandwidth.NB)


@pytest.mark.parametrize("limit", [SPLIT_MIN_MACS, 0], ids=["rule", "every-product"])
def test_mid_size_encode_decode_and_greedy_in_two_parts_are_bitwise_one_part(
        limit, mid_model, fast_logits, monkeypatch):
    # at the rule's own limit the encoder, the attention sublayers and the
    # cross keys/values split; at 0 the logits and decoder experts split too
    feats, ids = mid_features(), guiding_prefix(Task.ST) + list(range(100, 130))

    def run():
        fast_logits.clear()
        enc = mid_model.encode(feats, Bandwidth.NB)
        dual = mid_model.infer_dual(feats, Bandwidth.NB, max_len=8)
        asr, st = (mid_model.infer_single(feats, Bandwidth.NB, task, max_len=8)
                   for task in (Task.ASR, Task.ST))
        assert (dual.asr_ids, dual.asr_truncated, dual.st_ids, dual.st_truncated) == (
            asr.ids, asr.truncated, st.ids, st.truncated)
        return [enc.data, mid_model.decode(enc, ids, Task.ST).data, *fast_logits], dual

    (one, one_threads), (two, two_threads) = one_part_then_split(monkeypatch, run, limit)
    assert one_threads == 0 and two_threads > 0
    assert len(one[0]) == len(two[0]) == 2 + 3 * 8  # a dual and two single decodes, 8 steps
    assert all(np.array_equal(a, b) for a, b in zip(one[0], two[0]))
    assert one[1] == two[1]


def test_split_inference_leaves_no_thread_and_no_traced_call_on_the_helper(mid_model,
                                                                           monkeypatch):
    # perfbench's span tracer keeps one span stack for the process, so no
    # function it wraps may run on the helper thread; only numerics kernels do
    ran_on = []
    for module, cls, attr, _ in perfbench_bindings():
        if module == "model":
            owner = smoe.model if cls is None else getattr(smoe.model, cls)
            original = getattr(owner, attr)

            def recording(*args, _original=original, **kwargs):
                ran_on.append(threading.current_thread())
                return _original(*args, **kwargs)

            monkeypatch.setattr(owner, attr, recording)
    starts, real = [], threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda self: (starts.append(self), real(self)))
    threads = threading.active_count()
    mid_model.encode(mid_features(), Bandwidth.NB)
    assert threading.active_count() == threads and starts
    mid_model.infer_dual(mid_features(), Bandwidth.NB, max_len=4)
    assert threading.active_count() == threads
    assert ran_on and set(ran_on) == {threading.main_thread()}
