"""Brute-force references the benchmark checks the program's outputs against.

Nothing here imports podselect: n-grams are plain Counters, LCS is the full
dynamic-programming table, and sentences and tokens come from the
generator's own text layout (see workloads.tokens_of). The arithmetic of
the F-score and of the three-part mean follows the spec exactly, so the
argmax comparisons are exact float comparisons, ties included.
"""

from __future__ import annotations

import re
from collections import Counter

from workloads import tokens_of

_SENTENCE_END = re.compile(r"(?<=[.?!]) ")


def sentences_of(transcript: str) -> list[str]:
    """Raw sentences of a generated transcript: every one ends in .?! and a space."""
    return _SENTENCE_END.split(transcript)


def _f1(overlap: int, candidate_total: int, reference_total: int) -> float:
    precision = overlap / candidate_total if candidate_total > 0 else 0.0
    recall = overlap / reference_total if reference_total > 0 else 0.0
    return 2.0 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0


def _grams(tokens: list[str], n: int) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def lcs_full_table(a: list[str], b: list[str]) -> int:
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i, x in enumerate(a, 1):
        row, above = table[i], table[i - 1]
        for j, y in enumerate(b, 1):
            row[j] = above[j - 1] + 1 if x == y else max(above[j], row[j - 1])
    return table[len(a)][len(b)]


def rouge_mean(candidate: list[str], reference: list[str]) -> float:
    """Mean of ROUGE-1, ROUGE-2 and ROUGE-L F1, as the selectors score."""
    parts = []
    for n in (1, 2):
        cand, ref = _grams(candidate, n), _grams(reference, n)
        overlap = sum(min(count, ref[gram]) for gram, count in cand.items())
        parts.append(_f1(overlap, max(0, len(candidate) - n + 1), max(0, len(reference) - n + 1)))
    parts.append(_f1(lcs_full_table(candidate, reference), len(candidate), len(reference)))
    return (parts[0] + parts[1] + parts[2]) / 3


def window_pick(sentence_tokens: list[list[str]], window: int) -> list[int]:
    """Earliest best-scoring window of `window` consecutive sentences."""
    flat = [t for s in sentence_tokens for t in s]
    n = len(sentence_tokens)
    best, best_start = None, 0
    for start in range(max(1, n - window + 1)):
        candidate = [t for s in sentence_tokens[start:start + window] for t in s]
        score = rouge_mean(candidate, flat)
        if best is None or score > best:
            best, best_start = score, start
    return list(range(best_start, min(best_start + window, n)))


def novelty_pick(sentence_tokens: list[list[str]], window: int, top_k: int) -> list[int]:
    flat = [t for s in sentence_tokens for t in s]
    singles = [(rouge_mean(s, flat), i) for i, s in enumerate(sentence_tokens)]
    ranked = sorted(singles, key=lambda pair: (-pair[0], pair[1]))
    return sorted(set(window_pick(sentence_tokens, window)) | {i for _, i in ranked[:top_k]})


def head_pick(costs: list[int], budget: int) -> list[int]:
    """Sentence prefix up to and including the one whose token count reaches the budget."""
    picked, total = [], 0
    for i, cost in enumerate(costs):
        picked.append(i)
        total += cost
        if total >= budget:
            break
    return picked


def capped_text(sentences: list[str], indices: list[int], budget: int) -> str:
    """Selected sentences cut back to the token budget at a sentence boundary.

    A first sentence that alone exceeds the budget is cut after its
    budget-th token instead.
    """
    kept, total = [], 0
    for i in indices:
        cost = len(tokens_of(sentences[i]))
        if total + cost > budget:
            break
        kept.append(sentences[i])
        total += cost
    if not kept and indices:
        units = sentences[indices[0]].split()[:budget]
        units[-1] = units[-1].rstrip(",.?!")
        return " ".join(units)
    return " ".join(kept)
