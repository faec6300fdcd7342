"""Corpus filtering: description cleanup, rejection rules, and the dataset split.

The filter applies six rules in a fixed order and an episode is rejected by
the first rule it trips. Length, duplication, show-overlap, profanity, and
language checks look at the raw description; the final token-count check
looks at the cleaned description, since cleanup is what that rule exists
to feed.
"""

from __future__ import annotations

import bisect
import json
import logging
import math
import random
import re
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .corpus import ENGLISH_STOPWORDS, Episode, segment_sentences, token_texts, _load_wordlist
from .errors import ConfigError, InsufficientContentError

logger = logging.getLogger(__name__)

# rule identifiers, in evaluation order
RULE_DESC_TOO_SHORT = "desc_too_short"
RULE_DESC_TOO_LONG = "desc_too_long"
RULE_DUPLICATE = "duplicate_description"
RULE_SHOW_SIMILAR = "similar_to_show_description"
RULE_PROFANITY = "profanity"
RULE_NON_ENGLISH = "non_english"
RULE_TOO_FEW_TOKENS = "desc_too_few_tokens"

ALL_RULES = (
    RULE_DESC_TOO_SHORT,
    RULE_DESC_TOO_LONG,
    RULE_DUPLICATE,
    RULE_SHOW_SIMILAR,
    RULE_PROFANITY,
    RULE_NON_ENGLISH,
    RULE_TOO_FEW_TOKENS,
)

# rule thresholds
DESC_MIN_CHARS = 20
DESC_MAX_CHARS = 750
DUPLICATE_SIM_THRESHOLD = 0.9
SHOW_DESC_SIM_THRESHOLD = 0.9
ENGLISH_MIN_STOPWORD_RATIO = 0.2
DESC_MIN_TOKENS = 10

SPONSOR_PHRASES = (
    "sponsored by",
    "sponsorship",
    "brought to you by",
    "use promo code",
    "promo code",
    "use code",
    "discount code",
    "visit our sponsor",
)

_URL_RE = re.compile(r"(?:https?://|www\.)\S+", re.IGNORECASE)
_HANDLE_RE = re.compile(r"(?<!\w)@\w+")
_FOLLOW_RE = re.compile(r"\bfollow\s+(?:us|me)\b[^.!?\n]*[.!?]?", re.IGNORECASE)


def clean_description(raw: str) -> str:
    """Strip promotional boilerplate from an episode description.

    Removes URLs, @handles, "follow us ..." clauses, and any sentence
    containing a sponsorship phrase, then collapses whitespace. Text that
    matches nothing comes back unchanged apart from whitespace collapsing.
    """
    text = _URL_RE.sub(" ", raw)
    text = _HANDLE_RE.sub(" ", text)
    text = _FOLLOW_RE.sub(" ", text)
    kept_parts: list[str] = []
    for line in text.split("\n"):
        for sentence in segment_sentences(line):
            lowered = sentence.lower()
            if any(p in lowered for p in SPONSOR_PHRASES):
                continue
            kept_parts.append(sentence)
    return re.sub(r"\s+", " ", " ".join(kept_parts)).strip()


def load_profanity_list(path=None) -> frozenset[str]:
    """Load a one-token-per-line blocklist; defaults to the bundled placeholder."""
    if path is None:
        return _load_wordlist("profanity_placeholder.txt")
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return frozenset(
                line.strip().lower()
                for line in handle
                if line.strip() and not line.strip().startswith("#")
            )
    except OSError as exc:
        raise ConfigError(f"cannot read profanity list {path!r}: {exc}") from exc


def contains_profanity(text: str, wordlist: frozenset[str]) -> bool:
    """Whole-token, case-insensitive blocklist match. No substring matching."""
    return any(token in wordlist for token in token_texts(text))


def detect_english(text: str) -> tuple[bool, float]:
    """Stopword-ratio language check.

    Returns (is_english, ratio) where ratio is the fraction of tokens found
    in the bundled English stopword list. Raises ValueError when the text
    has no tokens, since the ratio is undefined there.
    """
    tokens = token_texts(text)
    if not tokens:
        raise ValueError("cannot detect language of text with no tokens")
    hits = sum(1 for token in tokens if token in ENGLISH_STOPWORDS)
    ratio = hits / len(tokens)
    return ratio >= ENGLISH_MIN_STOPWORD_RATIO, ratio


def _shingles(tokens: list[str], size: int = 3) -> frozenset[tuple[str, ...]]:
    if not tokens:
        return frozenset()
    if len(tokens) < size:
        # short texts get one shingle covering everything, so identical
        # short inputs still compare as equal sets
        return frozenset([tuple(tokens)])
    return frozenset(tuple(tokens[i:i + size]) for i in range(len(tokens) - size + 1))


def _jaccard(a: frozenset, b: frozenset) -> float:
    if not a or not b:
        return 0.0
    return len(a & b) / len(a | b)


def description_similarity(a: str, b: str) -> float:
    """Jaccard similarity over 3-token shingles of the normalized tokens."""
    return _jaccard(_shingles(token_texts(a)), _shingles(token_texts(b)))


@dataclass(frozen=True)
class FilterConfig:
    # None uses the bundled placeholder list
    profanity_list_path: str | None = None


@dataclass
class FilterReport:
    input_count: int = 0
    kept_count: int = 0
    rejected_by_rule: dict[str, int] = field(default_factory=dict)
    # episode id -> the first rule it tripped
    reasons: dict[str, str] = field(default_factory=dict)

    def add_rejection(self, episode_id: str, rule: str):
        self.rejected_by_rule[rule] = self.rejected_by_rule.get(rule, 0) + 1
        self.reasons.setdefault(episode_id, rule)

    def to_json(self) -> str:
        payload = {
            "input": self.input_count,
            "kept": self.kept_count,
            "rejected_by_rule": {
                rule: self.rejected_by_rule[rule]
                for rule in ALL_RULES
                if rule in self.rejected_by_rule
            },
            "reasons": self.reasons,
        }
        return json.dumps(payload, ensure_ascii=False, indent=2)


class _DuplicateIndex:
    """Shingle-set index with size blocking.

    Jaccard(A, B) >= t forces t <= |A| / |B| <= 1 / t, with t the
    DUPLICATE_SIM_THRESHOLD, so candidates are narrowed to kept sets whose
    size falls inside that band before any pairwise comparison. This prunes
    only pairs of very different length: descriptions of similar length all
    fall in one band and are compared pairwise, so a corpus of such
    descriptions still costs about n^2 / 2 Jaccard computations (200 kept
    descriptions of 62-68 shingles each make 20,100).
    """

    def __init__(self):
        self._sizes: list[int] = []          # sorted shingle-set sizes
        self._by_size: list[frozenset] = []  # sets, aligned with _sizes

    def is_duplicate(self, shingles: frozenset) -> bool:
        if not shingles or not self._sizes:
            return False
        size = len(shingles)
        low = math.ceil(size * DUPLICATE_SIM_THRESHOLD)
        high = math.floor(size / DUPLICATE_SIM_THRESHOLD)
        start = bisect.bisect_left(self._sizes, low)
        end = bisect.bisect_right(self._sizes, high)
        for i in range(start, end):
            if _jaccard(shingles, self._by_size[i]) >= DUPLICATE_SIM_THRESHOLD:
                return True
        return False

    def add(self, shingles: frozenset):
        position = bisect.bisect_left(self._sizes, len(shingles))
        self._sizes.insert(position, len(shingles))
        self._by_size.insert(position, shingles)


def filter_corpus(
    episodes: Iterable[Episode],
    config: FilterConfig = FilterConfig(),
) -> tuple[list[Episode], FilterReport]:
    """Apply the rejection rules in order; an episode stops at its first hit.

    Length bounds run first, then duplicate detection as a corpus-wide pass
    over the length survivors, then the per-episode checks. Returns the kept
    episodes in input order plus a full report.
    """
    wordlist = load_profanity_list(config.profanity_list_path)
    report = FilterReport()
    episodes = list(episodes)
    report.input_count = len(episodes)

    # rule 1: description length bounds (raw characters)
    survivors: list[Episode] = []
    for episode in episodes:
        length = len(episode.description)
        if length < DESC_MIN_CHARS:
            report.add_rejection(episode.id, RULE_DESC_TOO_SHORT)
        elif length > DESC_MAX_CHARS:
            report.add_rejection(episode.id, RULE_DESC_TOO_LONG)
        else:
            survivors.append(episode)

    # rule 2: near-duplicate descriptions, first occurrence wins
    index = _DuplicateIndex()
    deduped: list[Episode] = []
    for episode in survivors:
        shingles = _shingles(token_texts(episode.description))
        if index.is_duplicate(shingles):
            report.add_rejection(episode.id, RULE_DUPLICATE)
            continue
        index.add(shingles)
        deduped.append(episode)

    # rules 3..6, evaluated per episode in order
    kept: list[Episode] = []
    for episode in deduped:
        if description_similarity(episode.description, episode.show_description) \
                >= SHOW_DESC_SIM_THRESHOLD:
            report.add_rejection(episode.id, RULE_SHOW_SIMILAR)
            continue
        if contains_profanity(episode.description, wordlist) \
                or contains_profanity(episode.show_description, wordlist):
            report.add_rejection(episode.id, RULE_PROFANITY)
            continue
        try:
            is_english, _ = detect_english(episode.description)
        except ValueError:
            is_english = False  # no tokens at all, cannot be confirmed English
        if not is_english:
            report.add_rejection(episode.id, RULE_NON_ENGLISH)
            continue
        cleaned = clean_description(episode.description)
        if len(token_texts(cleaned)) < DESC_MIN_TOKENS:
            report.add_rejection(episode.id, RULE_TOO_FEW_TOKENS)
            continue
        kept.append(episode)

    report.kept_count = len(kept)
    return kept, report


@dataclass(frozen=True)
class SplitAssignment:
    seed: int
    assignments: dict[str, str]  # episode id -> train | validation | test

    def counts(self) -> dict[str, int]:
        out = {"train": 0, "validation": 0, "test": 0}
        for split in self.assignments.values():
            out[split] += 1
        return out

    def to_jsonl(self) -> str:
        lines = [
            json.dumps({"id": eid, "split": split}, ensure_ascii=False)
            for eid, split in self.assignments.items()
        ]
        return "\n".join(lines) + ("\n" if lines else "")


def split_dataset(episode_ids: Sequence[str], seed: int = 0) -> SplitAssignment:
    """Seeded shuffle then slice into 80/10/10 train/validation/test buckets.

    Validation and test each get floor(n / 10) episodes; train gets the rest.
    Fewer than 3 episodes cannot fill the buckets, which is a fault of the
    data: InsufficientContentError.
    """
    ids = list(episode_ids)
    if len(set(ids)) != len(ids):
        raise ConfigError("duplicate episode ids in split input")
    if len(ids) < 3:
        raise InsufficientContentError(
            f"need at least 3 episodes to populate all split buckets, got {len(ids)}")
    rng = random.Random(seed)
    rng.shuffle(ids)
    n_held_out = len(ids) // 10
    n_train = len(ids) - 2 * n_held_out
    assignments: dict[str, str] = {}
    for position, eid in enumerate(ids):
        if position < n_train:
            assignments[eid] = "train"
        elif position < n_train + n_held_out:
            assignments[eid] = "validation"
        else:
            assignments[eid] = "test"
    return SplitAssignment(seed=seed, assignments=assignments)
