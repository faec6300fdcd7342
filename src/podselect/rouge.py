"""ROUGE-1, ROUGE-2, and ROUGE-L scoring primitives.

The evaluation harness scores with rouge_l. The selectors score in closed
form from token counts and use only RougeScore.from_counts. rouge_n counts
n-grams afresh on each call. Every kernel stays dependency free and operates
on plain token sequences.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple, Sequence


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


def rouge_n(candidate: Sequence[str], reference: Sequence[str], n: int) -> RougeScore:
    """N-gram co-occurrence score. This surface supports n = 1 and n = 2."""
    if n not in (1, 2):
        raise ValueError(f"rouge_n supports n in {{1, 2}}, got {n}")
    cand = Counter(zip(*(candidate[i:] for i in range(n))))
    ref = Counter(zip(*(reference[i:] for i in range(n))))
    overlap = sum((cand & ref).values())
    return RougeScore.from_counts(overlap, cand.total(), ref.total())


def lcs_length(a: Sequence, b: Sequence) -> int:
    """Longest common subsequence length, bit-parallel over the shorter side.

    ``row`` packs one DP row over the shorter sequence into an int: a
    cleared bit j marks the positions where the row's value steps up by one,
    so the LCS is the number of cleared bits. Each element of the longer
    sequence that occurs in the shorter one advances the whole row with one
    big-int addition (Allison & Dix 1986; Hyyrö 2004). Elements must be
    hashable; every caller passes str tokens.
    """
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return 0
    masks: dict = {}
    for i, x in enumerate(b):
        masks[x] = masks.get(x, 0) | (1 << i)
    full = (1 << len(b)) - 1
    steps = {x: (mask, full ^ mask) for x, mask in masks.items()}
    row = full
    # An element absent from the shorter side would leave row as it is, so
    # the loop runs over the shared elements only. The bits above len(b) only
    # count the carries out of the top bit, as neither mask reaches them:
    # no step reads them, and they are cleared once, at the end.
    for mask, rest in filter(None, map(steps.get, a)):
        row = (row + (row & mask)) | (row & rest)
    return len(b) - (row & full).bit_count()


def rouge_l(candidate: Sequence[str], reference: Sequence[str]) -> RougeScore:
    """Sequence-level LCS score with equally weighted precision and recall."""
    lcs = lcs_length(candidate, reference)
    return RougeScore.from_counts(lcs, len(candidate), len(reference))
