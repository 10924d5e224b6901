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
    substitutions: int
    deletions: int
    insertions: int
    reference_length: int

    @property
    def distance(self) -> int:
        return self.substitutions + self.deletions + self.insertions


def wer(reference: Sequence, hypothesis: Sequence) -> tuple[float, EditAlignment]:
    """Word error rate (S + D + I) / N over a minimal edit alignment.

    dp[i][j] is the minimal edit distance between reference[:i] and
    hypothesis[:j] with unit costs. The backtrace resolves equal-cost
    choices preferring substitution, then insertion, then deletion; the
    rate itself does not depend on the tie-break.
    """
    ref = list(reference)
    hyp = list(hypothesis)
    if not ref:
        raise EmptyReferenceError("reference must be non-empty")
    n, m = len(ref), len(hyp)
    dp = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        dp[i][0] = i
    for j in range(m + 1):
        dp[0][j] = j
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            if ref[i - 1] == hyp[j - 1]:
                dp[i][j] = dp[i - 1][j - 1]
            else:
                dp[i][j] = 1 + min(dp[i - 1][j - 1], dp[i][j - 1], dp[i - 1][j])

    subs = dels = ins = 0
    i, j = n, m
    while i > 0 or j > 0:
        if i > 0 and j > 0 and ref[i - 1] == hyp[j - 1] and dp[i][j] == dp[i - 1][j - 1]:
            i, j = i - 1, j - 1
        elif i > 0 and j > 0 and dp[i][j] == dp[i - 1][j - 1] + 1:
            subs += 1
            i, j = i - 1, j - 1
        elif j > 0 and dp[i][j] == dp[i][j - 1] + 1:
            ins += 1
            j -= 1
        else:
            dels += 1
            i -= 1
    alignment = EditAlignment(
        substitutions=subs, deletions=dels, insertions=ins, reference_length=n
    )
    assert alignment.distance == dp[n][m]
    return dp[n][m] / n, alignment


def _ngrams(tokens: list, n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def bleu(
    references: Sequence[Sequence],
    hypothesis: Sequence,
    max_n: int = 4,
    smoothing_k: float = 0.0,
) -> float:
    """Corpus-style BLEU for one segment, scaled to [0, 100].

    Geometric mean of clipped n-gram precisions (n = 1..max_n) times the
    brevity penalty exp(min(0, 1 - r/h)), with r the reference length
    closest to the hypothesis length (shorter wins ties). Unsmoothed by
    default: any zero precision zeroes the score. smoothing_k > 0 applies
    add-k to every precision instead.
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
    for n in range(1, max_n + 1):
        hyp_counts = _ngrams(hyp, n)
        total = sum(hyp_counts.values())
        if total == 0:
            # hypothesis shorter than n: treat as zero precision
            matched = 0
        else:
            max_ref: Counter = Counter()
            for rf in refs:
                for gram, c in _ngrams(rf, n).items():
                    if c > max_ref[gram]:
                        max_ref[gram] = c
            matched = sum(min(c, max_ref[g]) for g, c in hyp_counts.items())
        if smoothing_k > 0.0:
            p = (matched + smoothing_k) / (max(total, 1) + smoothing_k)
        elif matched == 0 or total == 0:
            return 0.0
        else:
            p = matched / total
        log_precisions.append(math.log(p))
    bp = math.exp(min(0.0, 1.0 - r / h))
    return 100.0 * bp * math.exp(sum(log_precisions) / max_n)


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
