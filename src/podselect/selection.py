"""Extractive selection: sliding-window argmax and the novelty variant.

The window scorer slides a fixed-size block of sentences across the
transcript and scores each block against the whole document; the novelty
variant adds the best-scoring single sentences. A candidate is always a
contiguous slice of the document it is scored against, so its ROUGE-1/2
overlaps are its own gram counts and its LCS is its own length. Every score
is therefore a closed-form function of the slice's token count and the
document's, read off one prefix sum of sentence token counts. The score
rises strictly with the slice's length: the window with the most tokens
wins (earliest on ties), and the top singles are the longest sentences, so
the picks compare token counts and only the --diagnostics records score.
"""

from __future__ import annotations

from itertools import accumulate
from typing import NamedTuple

from .corpus import Document
from .errors import ConfigError
from .rouge import RougeScore

DEFAULT_WINDOW_SIZE = 40
NOVELTY_WINDOW_SIZE = 25
DEFAULT_TOP_K = 5
DEFAULT_TOKEN_BUDGET = 1024
DEFAULT_NUM_TOPICS = 5  # the topic strategy's; here so that the CLI need not import topics


class SelectorConfig(NamedTuple):
    """Selection settings. The function that reads a value checks its range:
    window_size in _windows, novelty_top_k in select_novelty, token_budget in
    select_head and the topic strategy."""

    # None picks the strategy default: 40 for the plain window, 25 for novelty
    window_size: int | None = None
    novelty_top_k: int = DEFAULT_TOP_K
    token_budget: int = DEFAULT_TOKEN_BUDGET


class WindowScore(NamedTuple):
    start: int
    end: int  # exclusive sentence index
    score: float


class SelectionResult(NamedTuple):
    """One episode's pick. The diagnostics, a dict or None, count in equality."""

    episode_id: str
    strategy: str
    sentence_indices: tuple[int, ...]
    selected_token_count: int
    diagnostics: dict | None = None

    def to_record(self, doc: Document | None = None) -> dict:
        """The pick's selections-file line. Given the document it was picked
        from, a window or novelty pick also lists every window's score."""
        record = {
            "id": self.episode_id,
            "strategy": self.strategy,
            "indices": list(self.sentence_indices),
            "tokens": self.selected_token_count,
        }
        if doc is not None and "window_size" in (self.diagnostics or ()):
            record["window_scores"] = [
                list(row) for row in score_windows(doc, self.diagnostics["window_size"])
            ]
        return record

    @classmethod
    def from_record(cls, record: dict) -> SelectionResult:
        """Read a selections-file line back (window scores are left out).

        'strategy' defaults to window; 'id', 'indices' and 'tokens' are
        required. The first bad field raises KeyError or ValueError; the
        indices are not checked against any document.
        """
        episode_id, indices, tokens = record["id"], record["indices"], record["tokens"]
        strategy = record.get("strategy", "window")
        if not isinstance(episode_id, str):
            raise ValueError("'id' must be a string")
        if not (type(indices) is list and all(type(i) is int for i in indices)  # no bools
                and all(a < b for a, b in zip(indices, indices[1:]))):
            raise ValueError("'indices' must be a list of strictly increasing integers")
        if not isinstance(strategy, str):
            raise ValueError("'strategy' must be a string")
        if type(tokens) is not int:
            raise ValueError("'tokens' must be an integer")
        return cls(episode_id, strategy, tuple(indices), tokens)


def _require_budget(token_budget: int) -> None:
    if token_budget < 1:
        raise ConfigError(f"token_budget must be >= 1, got {token_budget}")


def _self_score(length: int, total: int) -> float:
    """Mean ROUGE-1/2/L F1 of a contiguous slice of `length` tokens against
    the `total`-token document it was cut from.

    A slice's unigrams, bigrams and token sequence are all contained in its
    document, so both n-gram overlaps equal the slice's own gram counts and
    its LCS equals its length. Each term is built with RougeScore.from_counts
    from exactly those integer counts, so the float matches scoring the
    slice's tokens against the document from scratch. ROUGE-L reads the same
    counts as ROUGE-1, so it has the same value.
    """
    unigram = RougeScore.from_counts(length, length, total).f1
    bigrams = max(0, length - 1)
    bigram = RougeScore.from_counts(bigrams, bigrams, max(0, total - 1)).f1
    # not sum(): from Python 3.12 it adds floats with compensation, so the last
    # bit would differ from the oracle's left-to-right mean across versions
    return (unigram + bigram + unigram) / 3


def _windows(doc: Document, window_size: int) -> tuple[list[tuple[int, int, int]], int]:
    """(start, end, token count) of every window, and the document's token count.

    One window per start in [0, max(1, N - w + 1)); when the document has
    fewer sentences than the window, the single window covers it all. A
    window_size below 1 and an empty document raise ConfigError.
    """
    if window_size < 1:
        raise ConfigError(f"window_size must be >= 1, got {window_size}")
    n = len(doc.sentences)
    if n == 0:
        raise ConfigError("cannot score an empty document")
    offsets = list(accumulate((sentence.token_count for sentence in doc.sentences), initial=0))
    windows = []
    for start in range(max(1, n - window_size + 1)):
        end = min(start + window_size, n)
        windows.append((start, end, offsets[end] - offsets[start]))
    return windows, offsets[-1]


def score_windows(doc: Document, window_size: int) -> list[WindowScore]:
    """Score every window (see _windows) against the whole document: the
    mean of its ROUGE-1, ROUGE-2 and ROUGE-L F1 values."""
    windows, total = _windows(doc, window_size)
    return [WindowScore(start, end, _self_score(tokens, total)) for start, end, tokens in windows]


def _best_window(doc: Document, window_size: int) -> tuple[int, int, int]:
    """(start, end, token count) of the window with the most tokens, the lowest start on ties."""
    windows, _ = _windows(doc, window_size)
    return max(windows, key=lambda window: window[2])  # max keeps the first


def select_window(doc: Document, config: SelectorConfig = SelectorConfig()) -> SelectionResult:
    """Pick the contiguous sentence window that best matches the document:
    the one with the most tokens, the lowest start on ties. The diagnostics
    keep the window size, from which to_record rebuilds every window's score.
    """
    window_size = DEFAULT_WINDOW_SIZE if config.window_size is None else config.window_size
    start, end, tokens = _best_window(doc, window_size)
    return SelectionResult(
        episode_id=doc.episode_id,
        strategy="window",
        sentence_indices=tuple(range(start, end)),
        selected_token_count=tokens,
        diagnostics={"window_size": window_size},
    )


def select_novelty(doc: Document, config: SelectorConfig = SelectorConfig()) -> SelectionResult:
    """Window selection plus the top-k single sentences, merged in document order.

    The extra sentences inject high-overlap material that sits outside the
    best window. A single sentence's score against the document (_self_score
    of its token count) rises strictly with that count, so the top k are the
    longest sentences, the lower index first on ties. A negative novelty_top_k
    raises ConfigError.
    """
    if config.novelty_top_k < 0:
        raise ConfigError(f"novelty_top_k must be >= 0, got {config.novelty_top_k}")
    window_size = NOVELTY_WINDOW_SIZE if config.window_size is None else config.window_size
    start, end, _ = _best_window(doc, window_size)
    ranked = sorted(range(len(doc.sentences)), key=lambda i: -doc.sentences[i].token_count)
    top_k = ranked[:config.novelty_top_k]
    merged = tuple(sorted(set(range(start, end)) | set(top_k)))
    token_count = sum(doc.sentences[i].token_count for i in merged)
    return SelectionResult(
        episode_id=doc.episode_id,
        strategy="novelty",
        sentence_indices=merged,
        selected_token_count=token_count,
        diagnostics={"window_size": window_size, "top_k": top_k},
    )


def select_head(doc: Document, token_budget: int = DEFAULT_TOKEN_BUDGET) -> SelectionResult:
    """Transcript-head baseline: the sentence prefix reaching token_budget.

    The sentence that crosses the budget is included; downstream budget
    enforcement trims back to the boundary (or mid-sentence when the very
    first sentence is oversized), leaving the first token_budget tokens.
    """
    _require_budget(token_budget)
    indices: list[int] = []
    total = 0
    for index, sentence in enumerate(doc.sentences):
        indices.append(index)
        total += sentence.token_count
        if total >= token_budget:
            break
    return SelectionResult(
        episode_id=doc.episode_id,
        strategy="none",
        sentence_indices=tuple(indices),
        selected_token_count=total,
    )
