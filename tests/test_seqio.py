import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoe.errors import ConfigError, FormatError, SequenceError
from smoe.moe import Task
from smoe.seqio import (
    BYTE_BASE,
    MERGE_BASE,
    RESERVED_SLOTS,
    GuidingToken,
    Language,
    TargetSequence,
    Vocabulary,
    build_target_sequence,
    strip_guides,
    train_bpe,
)


def test_byte_vocab_size_and_ids():
    v = Vocabulary()
    assert v.size == RESERVED_SLOTS + 256
    assert v.encode(b"hi") == [BYTE_BASE + ord("h"), BYTE_BASE + ord("i")]
    assert v.decode(v.encode(b"hi")) == b"hi"


def test_guiding_ids_below_byte_range():
    assert max(GuidingToken) < RESERVED_SLOTS <= BYTE_BASE
    ids = {int(t) for t in GuidingToken}
    assert ids == {0, 1, 2, 3, 4, 5, 6}


def test_train_bpe_single_word():
    v = train_bpe([b"aaaa"], 1)
    assert v.merges == [(b"a", b"a")]
    assert v.encode(b"aaaa") == [MERGE_BASE, MERGE_BASE]


def test_train_bpe_zero_merges():
    v = train_bpe([b"abc"], 0)
    assert v.size == RESERVED_SLOTS + 256


def test_train_bpe_tie_break_lexicographic():
    # "ab" and "cd" both occur twice; (a,b) < (c,d) so it merges first
    v = train_bpe([b"abxcdxabxcd"], 1)
    assert v.merges == [(b"a", b"b")]


def test_train_bpe_rejects_bad_args():
    with pytest.raises(ConfigError):
        train_bpe([b"abc"], -1)
    with pytest.raises(ConfigError):
        train_bpe([], 3)


def test_encode_length_monotone_in_merges():
    corpus = [b"the cat sat on the mat", b"the bat and the rat", b"thesis on the theme"]
    probe = b"the theme of the cat"
    lengths = []
    for n in range(0, 12):
        v = train_bpe(corpus, n)
        lengths.append(len(v.encode(probe)))
    assert all(a >= b for a, b in zip(lengths, lengths[1:]))


@settings(max_examples=200, deadline=None)
@given(st.binary(min_size=0, max_size=60))
def test_round_trip_arbitrary_bytes_byte_vocab(payload):
    v = Vocabulary()
    assert v.decode(v.encode(payload)) == payload


@settings(max_examples=200, deadline=None)
@given(st.binary(min_size=0, max_size=60))
def test_round_trip_arbitrary_bytes_trained_vocab(payload):
    v = _TRAINED
    assert v.decode(v.encode(payload)) == payload


_TRAINED = train_bpe([b"abab cdcd abab efef", b"the quick brown ab fox", b"ababab"], 8)


def test_round_trip_thousand_random_strings():
    rng = np.random.default_rng(123)
    v = train_bpe([b"hello world", b"hellish swirl", b"low lower lowest"], 6)
    for _ in range(1000):
        n = int(rng.integers(0, 40))
        payload = bytes(rng.integers(0, 256, size=n, dtype=np.uint8))
        assert v.decode(v.encode(payload)) == payload


def test_merge_ids_never_collide_with_bytes_or_guides():
    v = train_bpe([b"aaaa bbbb cccc"], 5)
    merge_ids = {MERGE_BASE + i for i in range(len(v.merges))}
    byte_ids = {BYTE_BASE + b for b in range(256)}
    guide_ids = {int(t) for t in GuidingToken}
    assert not (merge_ids & byte_ids)
    assert not (merge_ids & guide_ids)
    assert not (byte_ids & guide_ids)


def test_vocab_file_round_trip(tmp_path):
    v = train_bpe([b"banana bandana", b"ananas"], 4)
    path = tmp_path / "vocab.txt"
    v.save(path)
    loaded = Vocabulary.load(path)
    assert loaded.merges == v.merges
    header = path.read_text().splitlines()[0]
    assert header == f"smoe-vocab v1 merges={len(v.merges)}"


def test_vocab_file_rejects_garbage(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_text("not a vocab\n")
    with pytest.raises(FormatError):
        Vocabulary.load(path)
    path.write_text("smoe-vocab v1 merges=2\n6161\t6262\n")
    with pytest.raises(FormatError):
        Vocabulary.load(path)


def test_build_target_sequence_layout():
    v = Vocabulary()
    seq = build_target_sequence(Task.ST, Language.EN, b"hi", v)
    assert seq.ids == [
        GuidingToken.TRANSLATE,
        GuidingToken.LANG_EN,
        GuidingToken.BOS,
        BYTE_BASE + ord("h"),
        BYTE_BASE + ord("i"),
        GuidingToken.EOS,
    ]


def test_build_target_sequence_korean_bytes():
    v = Vocabulary()
    text = "안".encode("utf-8")
    seq = build_target_sequence(Task.ASR, Language.KO, text, v)
    assert seq.ids[0] == GuidingToken.TRANSCRIBE
    assert seq.ids[1] == GuidingToken.LANG_KO
    assert seq.ids[2] == GuidingToken.BOS
    assert seq.ids[-1] == GuidingToken.EOS
    assert v.decode(seq.payload_ids) == text


def test_build_target_sequence_language_convention():
    v = Vocabulary()
    with pytest.raises(ConfigError):
        build_target_sequence(Task.ASR, Language.EN, b"x", v)
    with pytest.raises(ConfigError):
        build_target_sequence(Task.ST, Language.KO, b"x", v)
    with pytest.raises(ConfigError):
        build_target_sequence(Task.ST, "english", b"x", v)


def test_target_sequence_task_round_trip():
    v = Vocabulary()
    asr = build_target_sequence(Task.ASR, Language.KO, b"abc", v)
    st_seq = build_target_sequence(Task.ST, Language.EN, b"abc", v)
    assert asr.task is Task.ASR and asr.ids[0] == GuidingToken.TRANSCRIBE
    assert st_seq.task is Task.ST and st_seq.ids[0] == GuidingToken.TRANSLATE
    assert TargetSequence(Task.ST, Language.EN, list(st_seq.ids)).task is Task.ST


def test_target_sequence_rejects_bad_task_tag():
    lang_ko, bos, eos = int(GuidingToken.LANG_KO), int(GuidingToken.BOS), int(GuidingToken.EOS)
    with pytest.raises(SequenceError):
        TargetSequence(Task.ASR, Language.KO, [bos, lang_ko, bos, 20, eos])
    with pytest.raises(SequenceError):
        TargetSequence(Task.ASR, Language.KO, [])


def test_target_sequence_invariants_enforced():
    with pytest.raises(SequenceError):
        TargetSequence(Task.ASR, Language.KO, [int(GuidingToken.TRANSLATE), 6, 1, 2])
    with pytest.raises(SequenceError):
        TargetSequence(
            Task.ASR,
            Language.KO,
            [int(GuidingToken.TRANSCRIBE), int(GuidingToken.LANG_KO), 1, 0, 2],
        )


def test_strip_guides_round_trip():
    v = Vocabulary()
    seq = build_target_sequence(Task.ST, Language.EN, b"hello", v)
    padded = seq.ids + [int(GuidingToken.PAD)] * 3
    assert v.decode(strip_guides(padded)) == b"hello"


@settings(max_examples=100, deadline=None)
@given(st.binary(min_size=0, max_size=30))
def test_sequence_round_trip_property(payload):
    v = _TRAINED
    seq = build_target_sequence(Task.ST, Language.EN, payload, v)
    assert v.decode(strip_guides(seq.ids)) == payload
    from smoe.moe import gate_decoder

    gate = gate_decoder(seq.task)
    assert sum(gate.weights) == 1.0
