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
from itertools import islice, repeat
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


# Sentence(token_count, raw_text) through tuple.__new__, skipping the
# Python-level __new__ a NamedTuple class is given: one is built per sentence
_sentence = functools.partial(tuple.__new__, Sentence)


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
    # utf-8-sig: a leading byte order mark is dropped (RFC 8259 section 8.1);
    # surrogateescape: a line with bad bytes is rejected alone, not its whole chunk
    with open(path, "r", encoding="utf-8-sig", errors="surrogateescape") as handle:
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

# The length of the longest abbreviation. A word whose core is longer is
# neither an abbreviation nor an initial: lower() never shortens a string.
_ABBREVIATION_LENGTH = max(map(len, ABBREVIATIONS))

# A maximal run of the terminals . ! ?, then any closing quotes or brackets
# (group 2), then the whitespace that makes it a boundary. It is searched for
# in a copy of the text with each ! and ? replaced by a period: a pattern
# that starts with one literal character is found at C speed, where one that
# starts with a set is tried at every character. The lookbehind lets a match
# start only at the head of a run, so a long run with no whitespace after it
# is tried once, not again from each of its characters (time quadratic in
# the run's length). Group 1 matches, empty, at a lone terminal that the
# abbreviation guard must decide when it is a period: one right after a
# character that is not whitespace, unless an alphanumeric character and
# more characters than the longest abbreviation, none of them whitespace,
# come before it. An alphanumeric character is never stripped from a word's
# edge, so such a word is too long to be an abbreviation or an initial.
_BOUNDARY_RE = re.compile(r"\.(?<!\.\.)(?:(?<=\S\.)(?<![^\W_]\S{%d}\.)(?!\.)())?"
                          r"""\.*(["'”’)\]]*)\s+""" % _ABBREVIATION_LENGTH)


def _is_abbreviation_guard(text: str, dot_index: int) -> bool:
    """True when the period at dot_index, right after a character that is
    not whitespace, ends an abbreviation, not a sentence."""
    # The word is the whitespace-free run before the period. It is cut from a
    # window one character longer than the longest abbreviation, which
    # settles it when it holds whitespace or the start of the text. Else the
    # word only matters when its core, what is left once the opening
    # punctuation stuck to it (as in '("Dr') is stripped, fits in the window
    # after edge characters: then the window doubles. Each call reads at most
    # about twice its word plus the window, and the words of two calls never
    # overlap, as each candidate period has whitespace after it, so
    # segmentation stays linear.
    look_back = _ABBREVIATION_LENGTH + 1
    while True:
        start = dot_index - look_back if dot_index > look_back else 0
        tail = text[start:dot_index]
        word = tail.rsplit(None, 1)[-1]
        core = word.lstrip(_edge_chars(word))
        if not core or len(core) > _ABBREVIATION_LENGTH:
            return False
        if start == 0 or len(word) < len(tail):
            break
        look_back *= 2
    if len(core) == 1 and core.isalpha():
        return True  # initials such as "J. Smith"
    return core.lower() in ABBREVIATIONS


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
    for match in _BOUNDARY_RE.finditer(text.replace("!", ".").replace("?", ".")):
        if (match.start(1) >= 0 and text[match.start()] == "."
                and _is_abbreviation_guard(text, match.start())):
            continue
        yield (start, match.end(2))
        start = match.end()
    end = len(text.rstrip())
    if start < end:
        yield (start, end)


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


# A sentence's token count is read from bytes: bytes.translate deletes the
# ASCII edge characters and bytes.split() cuts at the ASCII whitespace that
# str.split() cuts at, but for these four separators, so they become spaces.
_ASCII_EDGE_BYTES = _ASCII_EDGE_CHARS.encode()
_SEPARATORS_TO_SPACES = bytes.maketrans(b"\x1c\x1d\x1e\x1f", b"    ")
_NON_ASCII_RE = re.compile(r"[^\x00-\x7f]")


def _countable_bytes(text: str) -> bytes:
    """The UTF-8 bytes of non-ASCII text, its whitespace units kept apart
    for the count: each non-ASCII whitespace character becomes a space and
    each non-ASCII P*/S* character is deleted. Every other non-ASCII
    character is kept, and its bytes are never whitespace or deleted."""
    data = text.encode("utf-8", "surrogatepass")
    for ch in set(_NON_ASCII_RE.findall(text)):
        if ch.isspace():
            data = data.replace(ch.encode(), b" ")
        elif _is_edge_strippable(ch):
            data = data.replace(ch.encode(), b"")
    return data


def token_texts(text: str) -> list[str]:
    """The texts of tokenize(text), without their character spans.

    The same rule: str.split() cuts at the str.isspace characters that end
    _token_spans's units, and strip() removes what its lstrip and rstrip do.
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
    return list(filter(None, map(str.strip, text.split(), repeat(_edge_chars(text)))))


def _token_spans(text: str) -> Iterator[tuple[int, int]]:
    """The character span of each token of text, in order: a whitespace-separated
    unit with its edge characters stripped; a unit of edge characters only is none."""
    strip_chars = _edge_chars(text)
    for match in _UNIT_RE.finditer(text):
        unit = match.group()
        # strip_chars holds every edge-strippable character of text, so the
        # strips stop at the unit's first and last kept characters.
        core = unit.lstrip(strip_chars)
        if core:
            start = match.end() - len(core)
            yield start, start + len(core.rstrip(strip_chars))


def tokenize(text: str) -> list[Token]:
    """Whitespace tokenization with edge punctuation stripping and lowercasing.

    Units that are all punctuation are dropped. Each token's span is the
    slice of the given text the token was built from (before case folding).
    """
    return [Token(text[start:end].lower(), (start, end)) for start, end in _token_spans(text)]


def token_end(text: str, n: int) -> int:
    """The character offset just past the n-th token of text, the end of
    tokenize(text)[n - 1].span, found without building any token. Raises
    ValueError when text has no n-th token."""
    if n > 0:
        for _, end in islice(_token_spans(text), n - 1, n):
            return end
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
        # len(token_texts(raw)) without building a token: the whitespace units
        # that still hold a character once every edge character is deleted
        data = raw.encode() if raw.isascii() else _countable_bytes(raw)
        count = len(data.translate(_SEPARATORS_TO_SPACES, _ASCII_EDGE_BYTES).split())
        if count:
            sentences.append(_sentence((count, raw)))
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
