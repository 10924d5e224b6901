import numpy as np
import pytest

from smoe.errors import ConfigError, FormatError, LimitError
from smoe.model import (
    Model,
    ModelConfig,
    ParamCount,
    count_params,
    expand_experts,
    load_checkpoint,
    save_checkpoint,
)
from smoe.moe import Bandwidth, GateVector, Task, smoe_forward
from smoe.nn import ffn_forward
from smoe.numerics import constant
from smoe.seqio import Language, Vocabulary, build_target_sequence
from smoe.signal import FbankFeatures

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
    return build_target_sequence(Task.ASR, Language.KO, text, VOCAB)


def st_target(text=b"abc"):
    return build_target_sequence(Task.ST, Language.EN, text, VOCAB)


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
    with pytest.raises(LimitError):
        model.forward(random_features(frames=9), Bandwidth.WB, asr_target(b"a"))
    with pytest.raises(LimitError):
        model.forward(random_features(frames=6), Bandwidth.WB, asr_target(b"abcdef"))


def test_cloned_experts_match_baseline_bitwise():
    donor = Model(tiny_config(), seed=6).eval()
    routed = expand_experts(donor, encoder=True, decoder=True).eval()
    feats = random_features(7)
    for bw in (Bandwidth.WB, Bandwidth.NB):
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
    with pytest.raises(ConfigError):
        tiny_config(n_experts=0)
    one = expand_experts(Model(tiny_config(n_experts=1), seed=2), decoder=True)
    assert one.dec_layers[0].ffn.n_experts == 1


def test_expand_rejects_already_routed():
    donor = Model(tiny_config(dec_smoe=True), seed=7)
    with pytest.raises(ConfigError):
        expand_experts(donor, decoder=True)


def test_count_params_matches_enumeration():
    for cfg in (
        tiny_config(),
        tiny_config(enc_smoe=True),
        tiny_config(dec_smoe=True),
        tiny_config(enc_smoe=True, dec_smoe=True),
        tiny_config(glu=False),
        tiny_config(tied_embed=False),
        tiny_config(d_ff_dec=48, dec_smoe=True),
    ):
        model = Model(cfg, seed=0)
        assert count_params(cfg).trainable == model.parameter_count(), cfg


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
    from smoe.nn import ffn_param_count

    per_ffn = ffn_param_count(16, 24, True)
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
    model = Model(tiny_config(), seed=9)
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    raw = path.read_bytes()
    for cut in (3, 10, len(raw) // 2, len(raw) - 5):
        bad = tmp_path / f"cut{cut}.ckpt"
        bad.write_bytes(raw[:cut])
        with pytest.raises(FormatError):
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
    feats = random_features(11)
    for bw in (Bandwidth.WB, Bandwidth.NB):
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
    toy = ModelConfig.toy()
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
