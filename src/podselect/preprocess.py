"""Corpus filtering: description cleanup, rejection rules, and the dataset split.

The filter applies six rules in a fixed order and an episode is rejected by
the first rule it trips. Length, duplication, show-overlap, profanity, and
language checks look at the raw description; the final token-count check
looks at the cleaned description, since cleanup is what that rule exists
to feed. Each description and show description is tokenized once, and the
rules share those tokens.
"""

from __future__ import annotations

import json
import logging
import math
import random
import re
from typing import Iterable, NamedTuple, Sequence

from .corpus import (ENGLISH_STOPWORDS, Episode, segment_spans, token_texts,
                     _load_wordlist, _parse_wordlist)
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
        for start, end in segment_spans(line):
            sentence = line[start:end]
            lowered = sentence.lower()
            if any(p in lowered for p in SPONSOR_PHRASES):
                continue
            kept_parts.append(sentence)
    return " ".join(" ".join(kept_parts).split())


def load_profanity_list(path=None) -> frozenset[str]:
    """Load a one-token-per-line blocklist; defaults to the bundled placeholder."""
    if path is None:
        return _load_wordlist("profanity_placeholder.txt")
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:  # a leading BOM is dropped
            return _parse_wordlist(handle)
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path, or not UTF-8
        raise ConfigError(f"cannot read profanity list {path!r}: {exc}") from exc


def detect_english(tokens: Sequence[str]) -> bool:
    """Stopword-ratio language check over token_texts output: True when at least
    ENGLISH_MIN_STOPWORD_RATIO of the tokens are in the bundled English
    stopword list. No tokens cannot be confirmed English: False.
    """
    if not tokens:
        return False
    hits = sum(1 for token in tokens if token in ENGLISH_STOPWORDS)
    return hits / len(tokens) >= ENGLISH_MIN_STOPWORD_RATIO


def _shingles(tokens: Sequence[str]) -> frozenset[tuple[str, ...]]:
    """The 3-token shingles of tokens."""
    if not tokens:
        return frozenset()
    if len(tokens) < 3:
        # short texts get one shingle covering everything, so identical
        # short inputs still compare as equal sets
        return frozenset([tuple(tokens)])
    return frozenset(zip(tokens, tokens[1:], tokens[2:]))


def _jaccard(a: frozenset, b: frozenset) -> float:
    if not a or not b:
        return 0.0
    return len(a & b) / len(a | b)


class FilterConfig(NamedTuple):
    # None uses the bundled placeholder list
    profanity_list_path: str | None = None


class FilterReport(NamedTuple):
    """What filter_corpus did with each episode."""

    input_count: int
    kept_count: int
    rejected_by_rule: dict[str, int]
    reasons: dict[str, str]  # episode id -> the first rule it tripped
    # kept episode id -> its cleaned description, the reference evaluate scores against
    cleaned_descriptions: dict[str, str]

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
    """Exact near-duplicate search by prefix filtering (AllPairs; Bayardo,
    Ma and Srikant 2007).

    Every shingle gets one rank: rarest first by document frequency over
    the sets given at construction, ties broken by the shingle itself. A
    set A whose Jaccard with B reaches t = DUPLICATE_SIM_THRESHOLD shares
    at least ceil(t * |A|) shingles with it, and then the first
    |A| - ceil(t * |A|) + 1 shingles of A in rank order meet the same
    prefix of B. So only each kept set's prefix is indexed, and only the
    kept sets that share a prefix shingle with a new set are compared to it
    by _jaccard: the decisions are those of comparing every pair, first
    occurrence winning. Unrelated descriptions rarely share a rare shingle,
    so distinct descriptions cost about one comparison each rather than
    n^2 / 2 in all (1,600 benchmark-style descriptions: 1,249 against
    1,279,200).
    """

    def __init__(self, shingle_sets: Iterable[frozenset]):
        frequency: dict[tuple[str, ...], int] = {}
        for shingles in shingle_sets:
            for shingle in shingles:
                frequency[shingle] = frequency.get(shingle, 0) + 1
        # rarest first, ties broken by the shingle itself
        self._rank = {shingle: (count, shingle) for shingle, count in frequency.items()}
        self._kept: list[frozenset] = []
        self._postings: dict[tuple[str, ...], list[int]] = {}  # shingle -> kept positions

    def add_unless_duplicate(self, shingles: frozenset) -> bool:
        """Index shingles and return True, unless a kept set is a near duplicate."""
        size = len(shingles)
        fewest_shared = math.ceil(DUPLICATE_SIM_THRESHOLD * size)
        prefix = sorted(shingles, key=self._rank.__getitem__)[:size - fewest_shared + 1]
        compared: set[int] = set()
        for shingle in prefix:
            for position in self._postings.get(shingle, ()):
                if position not in compared:
                    compared.add(position)
                    if _jaccard(shingles, self._kept[position]) >= DUPLICATE_SIM_THRESHOLD:
                        return False
        for shingle in prefix:
            self._postings.setdefault(shingle, []).append(len(self._kept))
        self._kept.append(shingles)
        return True


def filter_corpus(
    episodes: Iterable[Episode],
    config: FilterConfig = FilterConfig(),
) -> tuple[list[Episode], FilterReport]:
    """Apply the rejection rules in order; an episode stops at its first hit.

    Length bounds run first, then duplicate detection as a corpus-wide pass
    over the length survivors, then the per-episode checks. Returns the kept
    episodes in input order plus a full report, which also holds each kept
    episode's cleaned description.
    """
    wordlist = load_profanity_list(config.profanity_list_path)
    episodes = list(episodes)
    rejected_by_rule: dict[str, int] = {}
    reasons: dict[str, str] = {}
    cleaned_descriptions: dict[str, str] = {}

    def add_rejection(episode_id: str, rule: str):
        rejected_by_rule[rule] = rejected_by_rule.get(rule, 0) + 1
        reasons.setdefault(episode_id, rule)

    # rule 1: description length bounds (raw characters)
    survivors: list[Episode] = []
    for episode in episodes:
        length = len(episode.description)
        if length < DESC_MIN_CHARS:
            add_rejection(episode.id, RULE_DESC_TOO_SHORT)
        elif length > DESC_MAX_CHARS:
            add_rejection(episode.id, RULE_DESC_TOO_LONG)
        else:
            survivors.append(episode)

    # rule 2: near-duplicate descriptions, first occurrence wins
    tokens = [token_texts(episode.description) for episode in survivors]
    shingles = [_shingles(description_tokens) for description_tokens in tokens]
    index = _DuplicateIndex(shingles)
    deduped: list[tuple[Episode, list[str], frozenset]] = []
    for episode, description_tokens, episode_shingles in zip(survivors, tokens, shingles):
        if index.add_unless_duplicate(episode_shingles):
            deduped.append((episode, description_tokens, episode_shingles))
        else:
            add_rejection(episode.id, RULE_DUPLICATE)

    # rules 3..6, evaluated per episode in order
    kept: list[Episode] = []
    for episode, description_tokens, episode_shingles in deduped:
        show_tokens = token_texts(episode.show_description)
        # Jaccard over 3-token shingles; the description's were built by rule 2
        if _jaccard(episode_shingles, _shingles(show_tokens)) >= SHOW_DESC_SIM_THRESHOLD:
            add_rejection(episode.id, RULE_SHOW_SIMILAR)
            continue
        # whole lowercased tokens: a listed word inside a longer token does not hit
        if not (wordlist.isdisjoint(description_tokens) and wordlist.isdisjoint(show_tokens)):
            add_rejection(episode.id, RULE_PROFANITY)
            continue
        if not detect_english(description_tokens):
            add_rejection(episode.id, RULE_NON_ENGLISH)
            continue
        cleaned = clean_description(episode.description)
        if len(token_texts(cleaned)) < DESC_MIN_TOKENS:
            add_rejection(episode.id, RULE_TOO_FEW_TOKENS)
            continue
        kept.append(episode)
        cleaned_descriptions[episode.id] = cleaned

    return kept, FilterReport(len(episodes), len(kept), rejected_by_rule, reasons,
                              cleaned_descriptions)


class SplitAssignment(NamedTuple):
    assignments: dict[str, str]  # episode id -> train | validation | test

    def to_jsonl(self) -> str:
        lines = [
            json.dumps({"id": eid, "split": split}, ensure_ascii=False)
            for eid, split in self.assignments.items()
        ]
        return "\n".join(lines) + ("\n" if lines else "")


def split_dataset(episode_ids: Sequence[str], seed: int = 0) -> SplitAssignment:
    """Seeded shuffle then slice into 80/10/10 train/validation/test buckets.

    Validation and test each get max(1, floor(n / 10)) episodes; train gets
    the rest, so every bucket holds at least one. Fewer than 3 episodes
    cannot fill the buckets, which is a fault of the data:
    InsufficientContentError.
    """
    ids = list(episode_ids)
    if len(set(ids)) != len(ids):
        raise ConfigError("duplicate episode ids in split input")
    if len(ids) < 3:
        raise InsufficientContentError(
            f"need at least 3 episodes to populate all split buckets, got {len(ids)}")
    rng = random.Random(seed)
    rng.shuffle(ids)
    n_held_out = max(1, len(ids) // 10)
    splits = (["train"] * (len(ids) - 2 * n_held_out)
              + ["validation"] * n_held_out + ["test"] * n_held_out)
    return SplitAssignment(dict(zip(ids, splits)))
