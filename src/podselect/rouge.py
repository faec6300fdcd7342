"""ROUGE-1, ROUGE-2, and ROUGE-L scoring primitives.

These are the shared metric kernels for both the extractive selectors and
the evaluation harness, so they stay dependency free and operate on plain
token sequences.
"""

from __future__ import annotations

from collections import Counter
from typing import Mapping, NamedTuple, Sequence


class RougeScore(NamedTuple):
    precision: float
    recall: float
    f1: float

    @classmethod
    def from_counts(cls, overlap: float, candidate_total: int, reference_total: int) -> "RougeScore":
        """Build precision/recall/F1 from an overlap count and unit totals.

        Zero denominators yield 0.0 rather than raising, so empty
        candidates or references score zero.
        """
        precision = overlap / candidate_total if candidate_total > 0 else 0.0
        recall = overlap / reference_total if reference_total > 0 else 0.0
        if precision + recall > 0:
            f1 = 2.0 * precision * recall / (precision + recall)
        else:
            f1 = 0.0
        return cls(precision=precision, recall=recall, f1=f1)


class NgramCounts(NamedTuple):
    """Multiset of n-grams for one token sequence. Treat as immutable."""

    n: int
    counts: Mapping[tuple[str, ...], int]
    total: int


def ngram_counts(tokens: Sequence[str], n: int) -> NgramCounts:
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    counts = Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))
    return NgramCounts(n=n, counts=counts, total=max(0, len(tokens) - n + 1))


def overlap_count(candidate: NgramCounts, reference: NgramCounts) -> int:
    """Clipped multiset overlap: sum over grams of min(candidate, reference)."""
    small, large = candidate.counts, reference.counts
    if len(large) < len(small):
        small, large = large, small
    total = 0
    for gram, count in small.items():
        other = large.get(gram)
        if other:
            total += count if count < other else other
    return total


def rouge_n(candidate: Sequence[str], reference: Sequence[str], n: int) -> RougeScore:
    """N-gram co-occurrence score. This surface supports n = 1 and n = 2."""
    if n not in (1, 2):
        raise ValueError(f"rouge_n supports n in {{1, 2}}, got {n}")
    cand = ngram_counts(candidate, n)
    ref = ngram_counts(reference, n)
    return RougeScore.from_counts(overlap_count(cand, ref), cand.total, ref.total)


def lcs_length(a: Sequence, b: Sequence) -> int:
    """Longest common subsequence length, bit-parallel over the shorter side.

    ``row`` packs one DP row over the shorter sequence into an int: a
    cleared bit j marks the positions where the row's value steps up by one,
    so the LCS is the number of cleared bits. Each element of the longer
    sequence advances the whole row with one big-int addition (Allison &
    Dix 1986; Hyyrö 2004). Elements must be hashable; every caller passes
    str tokens.
    """
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return 0
    masks: dict = {}
    for i, x in enumerate(b):
        masks[x] = masks.get(x, 0) | (1 << i)
    full = (1 << len(b)) - 1
    row = full
    for x in a:
        mask = masks.get(x)
        if mask:  # an element absent from the shorter side leaves row as it is
            low = row & mask
            row = ((row + low) | (row - low)) & full
    return len(b) - row.bit_count()


def rouge_l(candidate: Sequence[str], reference: Sequence[str]) -> RougeScore:
    """Sequence-level LCS score with equally weighted precision and recall."""
    lcs = lcs_length(candidate, reference)
    return RougeScore.from_counts(lcs, len(candidate), len(reference))
