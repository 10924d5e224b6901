"""Token-level WER and BLEU.

Both operate on pre-tokenized sequences (any hashable tokens); callers
split decoded text on whitespace or pass byte/symbol lists directly.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence


class EmptyReferenceError(ValueError):
    """WER is undefined against an empty reference."""


@dataclass(frozen=True)
class EditAlignment:
    distance: int  # minimal substitutions + deletions + insertions
    reference_length: int


def wer(reference: Sequence, hypothesis: Sequence) -> tuple[float, EditAlignment]:
    """Word error rate: the minimal unit-cost edit distance over N.

    Rolling-row dynamic programme: after reference token i, row[j] is the
    edit distance between reference[:i] and hypothesis[:j].
    """
    ref = list(reference)
    hyp = list(hypothesis)
    if not ref:
        raise EmptyReferenceError("reference must be non-empty")
    row = list(range(len(hyp) + 1))
    for i, r in enumerate(ref, start=1):
        diag, row[0] = row[0], i  # diag is row[j - 1] of the previous reference token
        for j, h in enumerate(hyp, start=1):
            diag, row[j] = row[j], diag if r == h else 1 + min(diag, row[j - 1], row[j])
    n = len(ref)
    return row[-1] / n, EditAlignment(distance=row[-1], reference_length=n)


def _ngrams(tokens: list, n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


BLEU_ORDER = 4  # n-gram orders 1..4: BLEU-4


def bleu(references: Sequence[Sequence], hypothesis: Sequence) -> float:
    """Corpus-style BLEU-4 for one segment, scaled to [0, 100].

    Geometric mean of clipped n-gram precisions (n = 1..4) times the
    brevity penalty exp(min(0, 1 - r/h)), with r the reference length
    closest to the hypothesis length (shorter wins ties). Unsmoothed: any
    zero precision, a hypothesis shorter than 4 tokens included, zeroes
    the score.
    """
    refs = [list(r) for r in references]
    if not refs:
        raise ValueError("bleu needs at least one reference")
    hyp = list(hypothesis)
    if not hyp:
        return 0.0
    h = len(hyp)
    r = min((abs(len(rf) - h), len(rf)) for rf in refs)[1]
    log_precisions = []
    for n in range(1, BLEU_ORDER + 1):
        hyp_counts = _ngrams(hyp, n)
        max_ref: Counter = Counter()
        for rf in refs:
            for gram, c in _ngrams(rf, n).items():
                if c > max_ref[gram]:
                    max_ref[gram] = c
        matched = sum(min(c, max_ref[g]) for g, c in hyp_counts.items())
        if matched == 0:
            return 0.0
        log_precisions.append(math.log(matched / sum(hyp_counts.values())))
    bp = math.exp(min(0.0, 1.0 - r / h))
    return 100.0 * bp * math.exp(sum(log_precisions) / BLEU_ORDER)


def corpus_token_accuracy(pairs: Sequence[tuple[Sequence, Sequence]]) -> float:
    """Pooled accuracy: 1 - (total edit errors / total reference tokens)."""
    total_err = 0
    total_ref = 0
    for ref, hyp in pairs:
        _, alignment = wer(ref, hyp)
        total_err += alignment.distance
        total_ref += alignment.reference_length
    if total_ref == 0:
        raise EmptyReferenceError("no reference tokens")
    return max(0.0, 1.0 - total_err / total_ref)
