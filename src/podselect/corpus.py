"""Episode data model, ingestion, sentence segmentation, and tokenization.

Everything downstream (filtering, selection, scoring) consumes the types
defined here, so the contracts are kept deliberately small: immutable
records, lossless segmentation spans, tokens as plain strings, and each
sentence as its token count and its text.
"""

from __future__ import annotations

import functools
import json
import logging
import math
import re
import string
import unicodedata
from importlib import resources
from itertools import repeat
from typing import Iterable, Iterator, NamedTuple

from .errors import EmptyDocumentError, RecordParseError

logger = logging.getLogger(__name__)


def _parse_wordlist(lines: Iterable[str]) -> frozenset[str]:
    """The words of a one-token-per-line list: each line stripped and
    lowercased, blank lines and lines starting with # skipped."""
    return frozenset(line.lower() for line in map(str.strip, lines)
                     if line and not line.startswith("#"))


def _load_wordlist(name: str) -> frozenset[str]:
    """Read a bundled word list; see _parse_wordlist."""
    text = resources.files("podselect").joinpath(f"data/{name}").read_text("utf-8")
    return _parse_wordlist(text.splitlines())


ABBREVIATIONS = _load_wordlist("abbreviations.txt")
ENGLISH_STOPWORDS = _load_wordlist("english_stopwords.txt")


class Frozen:
    """Base of the immutable records whose __init__ does more than store.

    A subclass lists its fields in __slots__, in the order of its __init__
    arguments, and its __init__ checks or fills them and hands them all to
    Frozen.__init__, which sets each one once. The fields are then compared,
    hashed, shown and pickled in that order; assigning one raises
    AttributeError. Pickling calls the class with the field values, so
    unpickling runs the subclass's checks again. A subclass overrides
    _compared to leave a field out of equality and hashing.
    """

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def _compared(self) -> tuple:
        return self._fields()

    def __reduce__(self):
        return type(self), self._fields()

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._compared() == other._compared()

    def __hash__(self):
        return hash(self._compared())

    def __repr__(self):
        return f"{type(self).__name__}(" + ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.__slots__) + ")"


class Episode(NamedTuple):
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

    @classmethod
    def from_record(cls, record: dict) -> Episode:
        """Read an episodes-file line (see load_episodes). The first bad field
        raises ValueError; read_records adds the line number."""
        episode_id = record.get("id")
        if not isinstance(episode_id, str) or not episode_id:
            raise ValueError("missing or empty 'id'")
        transcript = record.get("transcript")
        if not isinstance(transcript, str):
            raise ValueError("missing 'transcript'")
        texts = {}
        for key in ("show_id", "description", "show_description"):
            texts[key] = "" if record.get(key) is None else record[key]
            if not isinstance(texts[key], str):
                raise ValueError(f"{key!r} is not a string")
        duration = record.get("duration_seconds")
        if duration is not None:
            if isinstance(duration, bool):  # float() would take a JSON true as 1.0
                raise ValueError("duration_seconds is not a number")
            try:
                duration = float(duration)
            except OverflowError:  # an integer past the float range
                duration = math.inf
            except (TypeError, ValueError):
                raise ValueError("duration_seconds is not a number")
            # NaN and the infinities would be written back as invalid JSON
            if not math.isfinite(duration):
                raise ValueError("duration_seconds is not finite")
            if duration < 0:
                raise ValueError("duration_seconds is negative")
        # JSON escapes such as \ud800 pass read_records' UTF-8 check, and fail to
        # write: the UnicodeEncodeError reads as "not valid UTF-8" there too
        "".join((episode_id, transcript, *texts.values())).encode("utf-8")
        return cls(episode_id, transcript_text=transcript, duration_seconds=duration, **texts)


class Token(NamedTuple):
    """A normalized token plus the character span it was cut from."""

    text: str
    span: tuple[int, int]


class Sentence(NamedTuple):
    """Its index is its position in Document.sentences; its tokens are token_texts(raw_text)."""

    token_count: int
    raw_text: str


class Document(NamedTuple):
    """A segmented transcript ready for selection."""

    episode_id: str
    sentences: tuple[Sentence, ...]
    total_tokens: int


def read_records(path, parse, errors: list[RecordParseError] | None = None) -> Iterator:
    """Lazily yield parse(record, line_number) for each line of a JSONL file.

    Blank lines are skipped. A line that is not UTF-8, not JSON (nesting too
    deep to read included) or not an object, that parse rejects by raising
    KeyError, TypeError or ValueError, or that repeats an earlier 'id' (parse
    must check that it is a string) is a RecordParseError.
    With errors None the first one is raised; with a list each one is logged,
    appended to it and its line skipped, so the first of a repeated id wins.
    """
    seen: set[str] = set()
    # surrogateescape: a line with bad bytes is rejected alone, not its whole chunk
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as handle:
        for line_number, line in enumerate(handle, 1):
            if not line.strip():
                continue
            try:
                line.encode("utf-8")
                try:
                    record = json.loads(line)
                except RecursionError:
                    raise json.JSONDecodeError("nested too deeply", line, 0) from None
                if not isinstance(record, dict):
                    raise TypeError("not a JSON object")
                item = parse(record, line_number)
                if record["id"] in seen:
                    raise ValueError(f"duplicate id {record['id']!r}")
                seen.add(record["id"])
            except UnicodeEncodeError:
                err = RecordParseError(line_number, "not valid UTF-8")
            except json.JSONDecodeError as exc:
                err = RecordParseError(line_number, f"invalid JSON ({exc.msg})")
            except KeyError as exc:
                err = RecordParseError(line_number, f"missing key {exc}")
            except (TypeError, ValueError) as exc:  # ValueError: also an int too long to read
                err = RecordParseError(line_number, str(exc))
            else:
                yield item
                continue
            if errors is None:
                raise err
            logger.warning("skipping record: %s", err)
            errors.append(err)


def load_episodes(path, errors: list[RecordParseError] | None = None) -> Iterator[Episode]:
    """Lazily read episodes from a JSONL file.

    Malformed records, and records repeating an earlier id (the first one
    wins), are never silently dropped: each one is logged with its line
    number and, when ``errors`` is given, appended to it.
    """
    return read_records(path, lambda record, _: Episode.from_record(record),
                        [] if errors is None else errors)


# --- sentence segmentation ---------------------------------------------------

# A maximal run of the terminals . ! ?, then any closing quotes or brackets
# (group 1), then the whitespace that makes it a boundary. The lookbehind lets
# a match start only at the head of a run, so a long run with no whitespace
# after it is tried once, not again from each of its characters (time
# quadratic in the run's length).
_BOUNDARY_RE = re.compile(r"""[.!?](?<![.!?]{2})[.!?]*(["'”’)\]]*)\s+""")


# The length of the longest abbreviation. A word ending in more letters than
# this is neither an abbreviation nor an initial: stripping never removes a
# letter, and lower() never shortens a string.
_ABBREVIATION_LENGTH = max(map(len, ABBREVIATIONS))


def _is_abbreviation_guard(text: str, dot_index: int) -> bool:
    """True when the period at dot_index ends an abbreviation, not a sentence."""
    letters_start = dot_index - _ABBREVIATION_LENGTH - 1
    if letters_start >= 0 and text[letters_start:dot_index].isalpha():
        return False
    # Linear over a transcript: every candidate period has whitespace after
    # it, so the words walked back over never overlap.
    start = dot_index
    while start > 0 and not text[start - 1].isspace():
        start -= 1
    word = text[start:dot_index]
    # ignore any opening punctuation stuck to the word, e.g. '("Dr'
    word = word.lstrip(_edge_chars(word))
    if not word:
        return False
    if len(word) == 1 and word.isalpha():
        return True  # initials such as "J. Smith"
    return word.lower() in ABBREVIATIONS


def segment_spans(text: str) -> Iterator[tuple[int, int]]:
    """Character spans of sentences, trimmed of surrounding whitespace, one
    at a time, so a caller can stop early.

    A boundary is a run of terminal punctuation (. ! ?), optionally followed
    by closing quotes or brackets, followed by whitespace. Lone periods are
    kept inside the sentence when the preceding word is a known abbreviation
    or a single letter. The gaps between the spans are whitespace only, so
    the original text can always be reassembled from them.
    """
    start = len(text) - len(text.lstrip())
    for match in _BOUNDARY_RE.finditer(text):
        run_start, run_end = match.start(), match.start(1)
        if (run_end - run_start == 1 and text[run_start] == "."
                and _is_abbreviation_guard(text, run_start)):
            continue
        yield (start, match.end(1))
        start = match.end()
    end = len(text.rstrip())
    if start < end:
        yield (start, end)


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


def token_texts(text: str) -> list[str]:
    """The texts of tokenize(text), without their character spans.

    The same rule: str.split() cuts at the str.isspace characters that end
    tokenize's units, and strip() removes what its lstrip and rstrip do.
    Lowering the whole text first gives the same tokens: lower() maps
    whitespace to whitespace and P*/S* characters to P*/S* characters, and
    every other character to neither (tests/test_corpus.py checks every code
    point). Only a capital sigma lowers by its context, which stripping
    would change.
    """
    if not text.isascii() and "\u03a3" in text:
        strip_chars = _edge_chars(text)
        return [core.lower() for core in (unit.strip(strip_chars) for unit in text.split())
                if core]
    text = text.lower()
    return [core for core in map(str.strip, text.split(), repeat(_edge_chars(text))) if core]


def tokenize(text: str) -> list[Token]:
    """Whitespace tokenization with edge punctuation stripping and lowercasing.

    Units that are all punctuation are dropped. Each token's span is the
    slice of the given text the token was built from (before case folding).
    """
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
        tokens.append(Token(text=value.lower(), span=(start, end)))
    return tokens


def token_end(text: str, n: int) -> int:
    """The character offset just past the n-th token of text, the end of
    tokenize(text)[n - 1].span, found without building any token. Raises
    ValueError when text has no n-th token."""
    strip_chars = _edge_chars(text)
    count = 0
    for match in _UNIT_RE.finditer(text):
        unit = match.group()
        if unit.lstrip(strip_chars):  # as in tokenize: a unit not all edge characters
            count += 1
            if count == n:
                return match.end() - (len(unit) - len(unit.rstrip(strip_chars)))
    raise ValueError(f"text has no token {n}")


def build_document(episode: Episode, token_limit: int | None = None) -> Document:
    """Segment an episode transcript and count each sentence's tokens.

    Sentences that tokenize to nothing are dropped, so a sentence's index is
    its position among the survivors. With a token_limit, segmentation and
    tokenization stop after the sentence that brings the token total to the
    limit, so the document is the prefix that select_head at that budget
    reads; None builds the whole transcript. Raises EmptyDocumentError when
    no sentence yields tokens.
    """
    text = episode.transcript_text
    sentences: list[Sentence] = []
    total = 0
    for start, end in segment_spans(text):
        raw = text[start:end]
        count = len(token_texts(raw))
        if count:
            sentences.append(Sentence(count, raw))
            total += count
            if token_limit is not None and total >= token_limit:
                break
    if not sentences:
        raise EmptyDocumentError(f"episode {episode.id!r}: transcript has no usable sentences")
    return Document(episode_id=episode.id, sentences=tuple(sentences), total_tokens=total)


def write_records(handle, records: Iterable[dict]) -> None:
    """Write each record as one line of JSON onto an open text handle, non-ASCII
    characters as themselves: the mirror of read_records."""
    for record in records:
        handle.write(json.dumps(record, ensure_ascii=False) + "\n")


def write_episodes(episodes: Iterable[Episode], handle) -> None:
    """Write episodes as JSONL onto an open text handle, the lines load_episodes reads."""
    write_records(handle, (episode.to_record() for episode in episodes))
