import itertools
import math
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoe.metrics import (
    EmptyReferenceError,
    bleu,
    corpus_token_accuracy,
    wer,
)


def brute_force_distance(ref: tuple, hyp: tuple) -> int:
    """Independent oracle: top-down memoized edit distance."""

    @lru_cache(maxsize=None)
    def go(i: int, j: int) -> int:
        if i == 0:
            return j
        if j == 0:
            return i
        if ref[i - 1] == hyp[j - 1]:
            return go(i - 1, j - 1)
        return 1 + min(go(i - 1, j - 1), go(i, j - 1), go(i - 1, j))

    return go(len(ref), len(hyp))


def test_wer_identity():
    rate, a = wer(["a", "b", "c"], ["a", "b", "c"])
    assert rate == 0.0
    assert a.distance == 0 and a.reference_length == 3


def test_wer_single_substitution():
    rate, a = wer(["a", "b", "c"], ["a", "x", "c"])
    assert rate == pytest.approx(1 / 3)
    assert a.distance == 1


def test_wer_all_deletions():
    rate, a = wer(["a", "b", "c"], [])
    assert rate == 1.0
    assert a.distance == 3


def test_wer_insertions():
    rate, a = wer(["a"], ["a", "b", "c"])
    assert a.distance == 2
    assert rate == 2.0  # rate can exceed 1 with a short reference


def test_wer_empty_reference_rejected():
    with pytest.raises(EmptyReferenceError):
        wer([], ["a"])


def test_wer_exhaustive_vs_brute_force_binary_alphabet():
    # every pair of sequences over {0,1} with lengths 1..6 (ref) x 0..6 (hyp)
    seqs = [()] + [
        s for n in range(1, 7) for s in itertools.product((0, 1), repeat=n)
    ]
    refs = [s for s in seqs if s]
    for ref in refs:
        for hyp in seqs:
            rate, alignment = wer(ref, hyp)
            expected = brute_force_distance(ref, hyp)
            assert alignment.distance == expected
            assert rate == expected / len(ref)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(0, 4), min_size=1, max_size=8),
    st.lists(st.integers(0, 4), min_size=0, max_size=8),
)
def test_wer_matches_oracle_random(ref, hyp):
    rate, alignment = wer(ref, hyp)
    assert alignment.distance == brute_force_distance(tuple(ref), tuple(hyp))
    assert rate == alignment.distance / len(ref)


def test_bleu_perfect_match():
    hyp = ["the", "cat", "sat", "down"]
    assert bleu([hyp], hyp) == pytest.approx(100.0)


def test_bleu_clipping_hand_computed():
    # hyp "the the the" vs ref "the cat sat":
    # unigram matches clipped to 1 (ref has one "the") out of 3 -> 1/3
    # bigram ("the","the") never in ref -> 0 -> unsmoothed BLEU = 0
    score = bleu([["the", "cat", "sat"]], ["the", "the", "the"])
    assert score == 0.0


def test_bleu_brevity_penalty_closed_form():
    # hyp = first 4 tokens of a 6-token ref: all precisions 1, BP = exp(1 - 6/4)
    ref = ["a", "b", "c", "d", "e", "f"]
    hyp = ["a", "b", "c", "d"]
    assert bleu([ref], hyp) == pytest.approx(100.0 * math.exp(1.0 - 6.0 / 4.0))


def test_bleu_hand_computed_fixture_partial_overlap():
    # ref: a b c d e, hyp: a b c x e
    # p1 = 4/5; p2: hyp bigrams {ab, bc, cx, xe}, matches {ab, bc} -> 2/4
    # p3: {abc, bcx, cxe}, matches {abc} -> 1/3
    # p4: {abcx, bcxe}, matches none -> 0 -> score 0 unsmoothed
    ref = list("abcde")
    hyp = list("abcxe")
    assert bleu([ref], hyp) == 0.0


def test_bleu_hand_computed_fixture_long_match():
    # ref: the quick brown fox jumps, hyp: the quick brown fox sleeps
    # p1 = 4/5, p2 = 3/4, p3 = 2/3, p4 = 1/2, BP = 1 (equal lengths)
    ref = "the quick brown fox jumps".split()
    hyp = "the quick brown fox sleeps".split()
    expected = 100.0 * (4 / 5 * 3 / 4 * 2 / 3 * 1 / 2) ** (1 / 4)
    assert bleu([ref], hyp) == pytest.approx(expected)


def test_bleu_empty_hypothesis_scores_zero():
    assert bleu([["a", "b"]], []) == 0.0


def test_bleu_multi_reference_uses_closest_length():
    refs = [list("abcd"), list("abcdefgh")]
    hyp = list("abcd")
    assert bleu(refs, hyp) == pytest.approx(100.0)


def test_bleu_corruption_never_improves():
    rng_words = [f"w{i}" for i in range(10)]
    hyp = rng_words[:8]
    perfect = bleu([hyp], hyp)
    for pos in range(8):
        corrupted = list(hyp)
        corrupted[pos] = "xxx"
        assert bleu([hyp], corrupted) <= perfect


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 5), min_size=4, max_size=12))
def test_bleu_identity_property(tokens):
    assert bleu([tokens], tokens) == pytest.approx(100.0)
    rate, _ = wer(tokens, tokens)
    assert rate == 0.0


def test_token_accuracy_helpers():
    acc = corpus_token_accuracy([(list("abcd"), list("abcd")), (list("ab"), list("ax"))])
    assert acc == pytest.approx(1.0 - 1 / 6)

