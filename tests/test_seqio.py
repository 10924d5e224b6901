import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from smoe import errors
from smoe.errors import ConfigError, FormatError, RoutingError, SequenceError
from smoe.moe import Task
from smoe.seqio import (
    BYTE_BASE,
    MERGE_BASE,
    RESERVED_SLOTS,
    TASK_TOKEN,
    GuidingToken,
    TargetSequence,
    Vocabulary,
    build_target_sequence,
    guiding_prefix,
    task_of,
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


_VOCAB_FILE = b"smoe-vocab v1 merges=3\n61\t6e\n616e\t61\n62\t616e61\n"


@st.composite
def vocab_bytes(draw):
    """Arbitrary bytes, or a valid vocabulary file with bytes overwritten and a tail cut."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=256))
    raw = bytearray(_VOCAB_FILE)
    for pos, value in draw(st.lists(st.tuples(st.integers(0, len(raw) - 1),
                                              st.integers(0, 255)), max_size=4)):
        raw[pos] = value
    return bytes(raw[: draw(st.integers(0, len(raw)))])


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(raw=vocab_bytes())
@example(raw=_VOCAB_FILE)
@example(raw=_VOCAB_FILE.replace(b"=3", b"=4") + b"61\t6e\n")  # a duplicate merge result
def test_vocab_load_arbitrary_and_mutated_bytes_fail_closed(tmp_path, raw):
    path = tmp_path / "vocab.txt"
    path.write_bytes(raw)
    try:
        assert isinstance(Vocabulary.load(path), Vocabulary)
    except Exception as exc:
        assert type(exc).__module__ == errors.__name__, repr(exc)


def test_build_target_sequence_layout():
    v = Vocabulary()
    seq = build_target_sequence(Task.ST, b"hi", v)
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
    seq = build_target_sequence(Task.ASR, text, v)
    assert seq.ids[0] == GuidingToken.TRANSCRIBE
    assert seq.ids[1] == GuidingToken.LANG_KO
    assert seq.ids[2] == GuidingToken.BOS
    assert seq.ids[-1] == GuidingToken.EOS
    assert v.decode(seq.payload_ids) == text


def test_guiding_prefix_carries_the_tasks_language():
    g = GuidingToken
    assert guiding_prefix(Task.ASR) == [g.TRANSCRIBE, g.LANG_KO, g.BOS]
    assert guiding_prefix(Task.ST) == [g.TRANSLATE, g.LANG_EN, g.BOS]
    # a target carrying the other task's language tag is malformed
    with pytest.raises(SequenceError):
        TargetSequence(Task.ASR, [g.TRANSCRIBE, g.LANG_EN, g.BOS, 20, g.EOS])
    with pytest.raises(SequenceError):
        TargetSequence(Task.ST, [g.TRANSLATE, g.LANG_KO, g.BOS, 20, g.EOS])


def test_target_sequence_task_round_trip():
    v = Vocabulary()
    asr = build_target_sequence(Task.ASR, b"abc", v)
    st_seq = build_target_sequence(Task.ST, b"abc", v)
    assert asr.task is Task.ASR and asr.ids[0] == GuidingToken.TRANSCRIBE
    assert st_seq.task is Task.ST and st_seq.ids[0] == GuidingToken.TRANSLATE
    assert TargetSequence(Task.ST, list(st_seq.ids)).task is Task.ST


def test_task_of_inverts_the_task_tags_and_rejects_every_other_id():
    # PAD, BOS, EOS, both language tags, reserved ids 7-15 and payload ids
    assert {task_of(int(tag)): tag for tag in TASK_TOKEN.values()} == {
        task: tag for task, tag in TASK_TOKEN.items()}
    others = [i for i in range(Vocabulary().size) if i not in set(TASK_TOKEN.values())]
    assert len(others) == Vocabulary().size - 2
    for i in others:
        with pytest.raises(RoutingError, match=f"id {i} is not a task tag"):
            task_of(i)


def test_target_sequence_rejects_bad_task_tag():
    lang_ko, bos, eos = int(GuidingToken.LANG_KO), int(GuidingToken.BOS), int(GuidingToken.EOS)
    with pytest.raises(SequenceError):
        TargetSequence(Task.ASR, [bos, lang_ko, bos, 20, eos])
    with pytest.raises(SequenceError):
        TargetSequence(Task.ASR, [])


def test_target_sequence_invariants_enforced():
    with pytest.raises(SequenceError):
        TargetSequence(Task.ASR, [int(GuidingToken.TRANSLATE), 6, 1, 2])
    with pytest.raises(SequenceError):
        TargetSequence(
            Task.ASR,
            [int(GuidingToken.TRANSCRIBE), int(GuidingToken.LANG_KO), 1, 0, 2],
        )


def test_strip_guides_round_trip():
    v = Vocabulary()
    seq = build_target_sequence(Task.ST, b"hello", v)
    assert seq.ids[:3] == [int(GuidingToken.TRANSLATE), int(GuidingToken.LANG_EN), int(GuidingToken.BOS)]
    assert seq.ids[-1] == GuidingToken.EOS
    assert v.decode(seq.payload_ids) == b"hello"


@settings(max_examples=100, deadline=None)
@given(st.binary(min_size=0, max_size=30))
def test_sequence_round_trip_property(payload):
    v = _TRAINED
    seq = build_target_sequence(Task.ST, payload, v)
    assert v.decode(seq.payload_ids) == payload
    from smoe.moe import gate_decoder

    gate = gate_decoder(seq.task)
    assert sum(gate.weights) == 1.0
