"""Episode data model, ingestion, sentence segmentation, and tokenization.

Everything downstream (filtering, selection, scoring) consumes the types
defined here, so the contracts are kept deliberately small: immutable
records, lossless segmentation spans, and tokens as plain strings;
tokenize also gives the byte span each token was cut from.
"""

from __future__ import annotations

import functools
import json
import logging
import re
import string
import unicodedata
from dataclasses import dataclass
from importlib import resources
from itertools import accumulate
from typing import Iterable, Iterator

from .errors import EmptyDocumentError, RecordParseError

logger = logging.getLogger(__name__)


def _load_wordlist(name: str) -> frozenset[str]:
    """Read a bundled one-token-per-line list, skipping blanks and comments."""
    text = resources.files("podselect").joinpath(f"data/{name}").read_text("utf-8")
    words = set()
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            words.add(line.lower())
    return frozenset(words)


ABBREVIATIONS = _load_wordlist("abbreviations.txt")
ENGLISH_STOPWORDS = _load_wordlist("english_stopwords.txt")


@dataclass(frozen=True)
class Episode:
    """One podcast episode as ingested, before any processing."""

    id: str
    show_id: str = ""
    transcript_text: str = ""
    description: str = ""
    show_description: str = ""
    duration_seconds: float | None = None

    def to_record(self) -> dict:
        record = {
            "id": self.id,
            "show_id": self.show_id,
            "transcript": self.transcript_text,
            "description": self.description,
            "show_description": self.show_description,
        }
        if self.duration_seconds is not None:
            record["duration_seconds"] = self.duration_seconds
        return record


@dataclass(frozen=True)
class Token:
    """A normalized token plus the byte span it was cut from."""

    text: str
    byte_span: tuple[int, int]


@dataclass(frozen=True)
class Sentence:
    index: int
    tokens: tuple[str, ...]
    raw_text: str


@dataclass(frozen=True)
class Document:
    """A segmented, tokenized transcript ready for selection."""

    episode_id: str
    sentences: tuple[Sentence, ...]
    total_tokens: int


def _parse_record(record: dict, line_number: int) -> Episode:
    if not isinstance(record, dict):
        raise RecordParseError(line_number, "record is not an object")
    episode_id = record.get("id")
    if not isinstance(episode_id, str) or not episode_id:
        raise RecordParseError(line_number, "missing or empty 'id'")
    transcript = record.get("transcript")
    if not isinstance(transcript, str):
        raise RecordParseError(line_number, "missing 'transcript'")
    duration = record.get("duration_seconds")
    if duration is not None:
        try:
            duration = float(duration)
        except (TypeError, ValueError):
            raise RecordParseError(line_number, "duration_seconds is not a number")
        if duration < 0:
            raise RecordParseError(line_number, "duration_seconds is negative")
    return Episode(
        id=episode_id,
        show_id=str(record.get("show_id") or ""),
        transcript_text=transcript,
        description=str(record.get("description") or ""),
        show_description=str(record.get("show_description") or ""),
        duration_seconds=duration,
    )


def load_episodes(path, errors: list[RecordParseError] | None = None) -> Iterator[Episode]:
    """Lazily read episodes from a JSONL file.

    Malformed records, and records repeating an earlier id (the first one
    wins), are never silently dropped: each one is logged with its line
    number and, when ``errors`` is given, appended to it.
    """

    def report(err: RecordParseError):
        logger.warning("skipping record: %s", err)
        if errors is not None:
            errors.append(err)

    seen: set[str] = set()
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, 1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                report(RecordParseError(line_number, f"invalid JSON ({exc.msg})"))
                continue
            try:
                episode = _parse_record(record, line_number)
                if episode.id in seen:
                    raise RecordParseError(line_number, f"duplicate id {episode.id!r}")
            except RecordParseError as err:
                report(err)
                continue
            seen.add(episode.id)
            yield episode


# --- sentence segmentation ---------------------------------------------------

_TERMINALS = ".!?"
_CLOSERS = "\"'”’)]"
# A maximal run of terminals, then any closers (group 1). Closers are not
# terminals, so resuming the search after them skips no run.
_BOUNDARY_RE = re.compile(f"[{re.escape(_TERMINALS)}]+([{re.escape(_CLOSERS)}]*)")


def _is_abbreviation_guard(text: str, dot_index: int) -> bool:
    """True when the period at dot_index ends an abbreviation, not a sentence."""
    start = dot_index
    while start > 0 and not text[start - 1].isspace():
        start -= 1
    word = text[start:dot_index]
    # ignore any opening punctuation stuck to the word, e.g. '("Dr'
    while word and _is_edge_strippable(word[0]):
        word = word[1:]
    if not word:
        return False
    if len(word) == 1 and word.isalpha():
        return True  # initials such as "J. Smith"
    return word.lower() in ABBREVIATIONS


def segment_spans(text: str) -> list[tuple[int, int]]:
    """Character spans of sentences, trimmed of surrounding whitespace.

    A boundary is a run of terminal punctuation (. ! ?), optionally followed
    by closing quotes or brackets, followed by whitespace. Lone periods are
    kept inside the sentence when the preceding word is a known abbreviation
    or a single letter. The gaps between returned spans are whitespace only,
    so the original text can always be reassembled from them.
    """
    spans: list[tuple[int, int]] = []
    n = len(text)
    seg_start = 0
    for match in _BOUNDARY_RE.finditer(text):
        close_end = match.end()
        if close_end == n or not text[close_end].isspace():
            continue
        run_start, run_end = match.start(), match.start(1)
        if (run_end - run_start == 1 and text[run_start] == "."
                and _is_abbreviation_guard(text, run_start)):
            continue
        spans.append((seg_start, close_end))
        seg_start = close_end
    if seg_start < n:
        spans.append((seg_start, n))

    trimmed: list[tuple[int, int]] = []
    for start, end in spans:
        while start < end and text[start].isspace():
            start += 1
        while end > start and text[end - 1].isspace():
            end -= 1
        if end > start:
            trimmed.append((start, end))
    return trimmed


def segment_sentences(text: str) -> list[str]:
    """Split a transcript into sentence strings. See segment_spans."""
    return [text[s:e] for s, e in segment_spans(text)]


# --- tokenization ------------------------------------------------------------

_UNIT_RE = re.compile(r"\S+")

# The ASCII characters in Unicode categories P* and S* are exactly these.
_ASCII_EDGE_CHARS = string.punctuation


# Unbounded, but keyed by single characters, so at most one entry per code point.
@functools.lru_cache(maxsize=None)
def _is_edge_strippable(ch: str) -> bool:
    cat = unicodedata.category(ch)
    return cat.startswith("P") or cat.startswith("S")


def _edge_chars(text: str) -> str:
    """The characters of text that tokenize strips from token edges."""
    if text.isascii():
        return _ASCII_EDGE_CHARS
    return "".join(ch for ch in set(text) if _is_edge_strippable(ch))


def _byte_offset_table(text: str) -> list[int] | None:
    """Cumulative UTF-8 byte offsets per char index, or None for pure ASCII."""
    if text.isascii():
        return None
    return list(accumulate(map(len, map(str.encode, text)), initial=0))


def _to_byte_span(table: list[int] | None, start: int, end: int) -> tuple[int, int]:
    if table is None:
        return (start, end)
    return (table[start], table[end])


def token_texts(text: str) -> list[str]:
    """The texts of tokenize(text), without the spans.

    The same rule: str.split() cuts at the str.isspace characters that end
    tokenize's units, and strip() removes what its lstrip and rstrip do.
    """
    strip_chars = _edge_chars(text)
    return [core.lower() for core in (unit.strip(strip_chars) for unit in text.split())
            if core]


def tokenize(text: str) -> list[Token]:
    """Whitespace tokenization with edge punctuation stripping and lowercasing.

    Units that are all punctuation are dropped. Each token's byte_span
    locates, in the given text, the characters the token was built from
    (before case folding).
    """
    table = _byte_offset_table(text)
    strip_chars = _edge_chars(text)
    tokens: list[Token] = []
    for match in _UNIT_RE.finditer(text):
        unit = match.group()
        # strip_chars holds every edge-strippable character of text, so the
        # strips stop at the unit's first and last kept characters.
        core = unit.lstrip(strip_chars)
        if not core:
            continue
        start = match.end() - len(core)
        value = core.rstrip(strip_chars)
        end = start + len(value)
        tokens.append(Token(text=value.lower(), byte_span=_to_byte_span(table, start, end)))
    return tokens


def build_document(episode: Episode) -> Document:
    """Segment and tokenize an episode transcript.

    Sentences that tokenize to nothing are dropped; the survivors are
    reindexed contiguously from zero. Raises EmptyDocumentError when no
    sentence yields tokens.
    """
    sentences: list[Sentence] = []
    for raw in segment_sentences(episode.transcript_text):
        tokens = token_texts(raw)
        if tokens:
            sentences.append(Sentence(index=len(sentences), tokens=tuple(tokens), raw_text=raw))
    if not sentences:
        raise EmptyDocumentError(f"episode {episode.id!r}: transcript has no usable sentences")
    total = sum(len(s.tokens) for s in sentences)
    return Document(episode_id=episode.id, sentences=tuple(sentences), total_tokens=total)


def write_episodes(episodes: Iterable[Episode], handle) -> int:
    """Serialize episodes as JSONL onto an open text handle. Returns count."""
    count = 0
    for episode in episodes:
        handle.write(json.dumps(episode.to_record(), ensure_ascii=False) + "\n")
        count += 1
    return count
