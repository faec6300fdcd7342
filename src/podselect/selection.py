"""Extractive selection: sliding-window argmax and the novelty variant.

The window scorer slides a fixed-size block of sentences across the
transcript and scores each block against the whole document; the novelty
variant adds the best-scoring single sentences. A candidate is always a
contiguous slice of the document it is scored against, so its ROUGE-1/2
overlaps are its own gram counts and its LCS is its own length. Every score
is therefore a closed-form function of the slice's token count and the
document's, read off one prefix sum of sentence token counts. The score
rises strictly with the slice's length: the window with the most tokens
wins (earliest on ties), and the top singles are the longest sentences.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .corpus import Document
from .errors import ConfigError
from .rouge import RougeScore

DEFAULT_WINDOW_SIZE = 40
NOVELTY_WINDOW_SIZE = 25
DEFAULT_TOP_K = 5
DEFAULT_TOKEN_BUDGET = 1024


@dataclass(frozen=True)
class SelectorConfig:
    # None picks the strategy default: 40 for the plain window, 25 for novelty
    window_size: int | None = None
    novelty_top_k: int = DEFAULT_TOP_K
    token_budget: int = DEFAULT_TOKEN_BUDGET

    def __post_init__(self):
        if self.window_size is not None and self.window_size < 1:
            raise ConfigError(f"window_size must be >= 1, got {self.window_size}")
        if self.novelty_top_k < 0:
            raise ConfigError(f"novelty_top_k must be >= 0, got {self.novelty_top_k}")
        if self.token_budget < 1:
            raise ConfigError(f"token_budget must be >= 1, got {self.token_budget}")


@dataclass(frozen=True)
class WindowScore:
    start: int
    end: int  # exclusive sentence index
    score: float


@dataclass(frozen=True)
class SelectionResult:
    episode_id: str
    strategy: str
    sentence_indices: tuple[int, ...]
    selected_token_count: int
    diagnostics: dict = field(default_factory=dict, compare=False)

    def to_record(self, include_diagnostics: bool = False) -> dict:
        record = {
            "id": self.episode_id,
            "strategy": self.strategy,
            "indices": list(self.sentence_indices),
            "tokens": self.selected_token_count,
        }
        if include_diagnostics and "window_scores" in self.diagnostics:
            record["window_scores"] = [
                [w.start, w.end, w.score] for w in self.diagnostics["window_scores"]
            ]
        return record


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
    return sum([unigram, bigram, unigram]) / 3


def score_windows(doc: Document, window_size: int) -> list[WindowScore]:
    """Score every window start against the whole document.

    One WindowScore per start in [0, max(1, N - w + 1)); when the document
    has fewer sentences than the window, the single window covers it all.
    The score is the mean of the ROUGE-1, ROUGE-2 and ROUGE-L F1 values.
    """
    if window_size < 1:
        raise ConfigError(f"window_size must be >= 1, got {window_size}")
    n = len(doc.sentences)
    if n == 0:
        raise ConfigError("cannot score an empty document")

    offsets = [0]
    for sentence in doc.sentences:
        offsets.append(offsets[-1] + len(sentence.tokens))
    total = offsets[-1]

    results: list[WindowScore] = []
    for start in range(max(1, n - window_size + 1)):
        end = min(start + window_size, n)
        results.append(WindowScore(start=start, end=end,
                                   score=_self_score(offsets[end] - offsets[start], total)))
    return results


def select_window(doc: Document, config: SelectorConfig = SelectorConfig()) -> SelectionResult:
    """Pick the contiguous sentence window that best matches the document.

    Ties go to the lowest start index. All window scores are kept in the
    result diagnostics.
    """
    window_size = config.window_size or DEFAULT_WINDOW_SIZE
    scores = score_windows(doc, window_size)
    best = scores[0]
    for candidate in scores[1:]:
        if candidate.score > best.score:
            best = candidate
    indices = tuple(range(best.start, best.end))
    token_count = sum(len(doc.sentences[i].tokens) for i in indices)
    return SelectionResult(
        episode_id=doc.episode_id,
        strategy="window",
        sentence_indices=indices,
        selected_token_count=token_count,
        diagnostics={"window_scores": scores, "best": best},
    )


def score_single_sentences(doc: Document) -> list[tuple[int, float]]:
    """Score each sentence alone against the whole document."""
    total = sum(len(sentence.tokens) for sentence in doc.sentences)
    return [(sentence.index, _self_score(len(sentence.tokens), total))
            for sentence in doc.sentences]


def select_novelty(doc: Document, config: SelectorConfig = SelectorConfig()) -> SelectionResult:
    """Window selection plus the top-k single sentences, merged in document order.

    The extra sentences inject high-overlap material that sits outside the
    best window. Ties on sentence score go to the lower index.
    """
    window_size = config.window_size or NOVELTY_WINDOW_SIZE
    base = select_window(doc, replace(config, window_size=window_size))
    singles = score_single_sentences(doc)
    ranked = sorted(singles, key=lambda pair: (-pair[1], pair[0]))
    top_k = [index for index, _ in ranked[:config.novelty_top_k]]
    merged = tuple(sorted(set(base.sentence_indices) | set(top_k)))
    token_count = sum(len(doc.sentences[i].tokens) for i in merged)
    diagnostics = dict(base.diagnostics)
    diagnostics["sentence_scores"] = singles
    diagnostics["top_k"] = top_k
    return SelectionResult(
        episode_id=doc.episode_id,
        strategy="novelty",
        sentence_indices=merged,
        selected_token_count=token_count,
        diagnostics=diagnostics,
    )


def select_head(doc: Document, token_budget: int = DEFAULT_TOKEN_BUDGET) -> SelectionResult:
    """Transcript-head baseline: the sentence prefix reaching token_budget.

    The sentence that crosses the budget is included; downstream budget
    enforcement trims back to the boundary (or mid-sentence when the very
    first sentence is oversized), leaving the first token_budget tokens.
    """
    if token_budget < 1:
        raise ConfigError(f"token_budget must be >= 1, got {token_budget}")
    indices: list[int] = []
    total = 0
    for sentence in doc.sentences:
        indices.append(sentence.index)
        total += len(sentence.tokens)
        if total >= token_budget:
            break
    return SelectionResult(
        episode_id=doc.episode_id,
        strategy="none",
        sentence_indices=tuple(indices),
        selected_token_count=total,
        diagnostics={},
    )
