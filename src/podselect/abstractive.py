"""Phase-2 hand-off: token budget capping and the summarization backend seam.

Backends are intentionally thin: anything with a ``backend_id`` and a
``generate(episode_id, text, max_length)`` method plugs in. The repo ships
two, an identity backend for offline runs and an HTTP client for a remote
model server.
"""

from __future__ import annotations

import functools
import json
import logging
import time
from dataclasses import dataclass
from http.client import HTTPConnection, HTTPException, HTTPSConnection, InvalidURL
from typing import Protocol
from urllib.parse import urlsplit

from .corpus import Document, tokenize
from .errors import BackendError, ConfigError, ProtocolError
from .selection import DEFAULT_TOKEN_BUDGET, SelectionResult

logger = logging.getLogger(__name__)

ATTEMPTS = 3
BACKOFF_SECONDS = 0.5  # the wait before the second attempt; each later wait doubles


@dataclass(frozen=True)
class BackendInput:
    """Budget-capped text ready to hand to an abstractive backend."""

    episode_id: str
    text: str
    token_count: int
    truncated_mid_sentence: bool = False


@dataclass(frozen=True)
class Summary:
    episode_id: str
    text: str
    backend_id: str
    latency_ms: float | None = None

    def to_record(self) -> dict:
        return {"id": self.episode_id, "summary": self.text, "backend": self.backend_id}


def enforce_budget(selection: SelectionResult, doc: Document,
                   max_tokens: int = DEFAULT_TOKEN_BUDGET) -> BackendInput:
    """Cap a selection at max_tokens, preferring sentence boundaries.

    Trailing sentences are dropped until the total fits. Only when the very
    first selected sentence is by itself over the budget does the text get
    cut mid-sentence, at exactly max_tokens tokens, and the result is
    flagged. Applying the cap to text that already fits changes nothing, so
    the operation is idempotent.

    The cut re-tokenizes that one sentence for its byte spans, so each
    sentence's tokens must equal token_texts(sentence.raw_text), as
    build_document guarantees.
    """
    if max_tokens < 1:
        raise ValueError(f"max_tokens must be >= 1, got {max_tokens}")
    for index in selection.sentence_indices:
        if not 0 <= index < len(doc.sentences):
            raise ValueError(
                f"selection for {selection.episode_id!r} references sentence "
                f"{index}, document has {len(doc.sentences)}"
            )

    kept: list[int] = []
    total = 0
    for index in selection.sentence_indices:
        cost = len(doc.sentences[index].tokens)
        if total + cost > max_tokens:
            break
        kept.append(index)
        total += cost

    if not kept and selection.sentence_indices:
        # single oversized sentence: hard cut after max_tokens tokens
        sentence = doc.sentences[selection.sentence_indices[0]]
        cut = tokenize(sentence.raw_text)[max_tokens - 1].byte_span[1]
        text = sentence.raw_text.encode("utf-8")[:cut].decode("utf-8")
        return BackendInput(
            episode_id=selection.episode_id,
            text=text,
            token_count=max_tokens,
            truncated_mid_sentence=True,
        )

    text = " ".join(doc.sentences[i].raw_text for i in kept)
    return BackendInput(
        episode_id=selection.episode_id,
        text=text,
        token_count=total,
        truncated_mid_sentence=False,
    )


class Backend(Protocol):
    backend_id: str

    def generate(self, episode_id: str, text: str, max_length: int | None = None) -> str:
        ...


class NullBackend:
    """Identity backend: returns the extractive text untouched."""

    backend_id = "null"

    def generate(self, episode_id: str, text: str, max_length: int | None = None) -> str:
        return text


class RemoteBackend:
    """HTTP client for a remote summarization service.

    POSTs ``{"id", "text", "max_length"?}`` to ``<endpoint>/summarize``, on a
    new connection per attempt, and expects ``{"id", "summary"}`` back. Other
    4xx responses than 408 and 429, and malformed bodies (a protocol error),
    fail at once; any other failure is retried with exponential backoff.
    """

    backend_id = "remote"

    def __init__(self, endpoint: str, timeout: float = 30.0, sleep=time.sleep):
        self.url = endpoint.rstrip("/") + "/summarize"
        parts = urlsplit(self.url)
        if parts.scheme not in ("http", "https") or not parts.hostname:
            raise ConfigError(f"endpoint {endpoint!r} is not an http(s):// URL with a host")
        connection_type = HTTPSConnection if parts.scheme == "https" else HTTPConnection
        try:  # a port that is not a number, or a host http.client refuses
            self._connect = functools.partial(connection_type, parts.hostname, parts.port,
                                              timeout=timeout)
            self._connect()  # only checks: a connection opens on its first request
        except (ValueError, InvalidURL) as exc:
            raise ConfigError(f"endpoint {endpoint!r}: {exc}") from exc
        self._target = parts.path + (f"?{parts.query}" if parts.query else "")
        self._sleep = sleep

    def generate(self, episode_id: str, text: str, max_length: int | None = None) -> str:
        payload: dict = {"id": episode_id, "text": text}
        if max_length is not None:
            payload["max_length"] = max_length
        body = json.dumps(payload).encode("utf-8")
        for attempt in range(ATTEMPTS):
            if attempt > 0:
                self._sleep(BACKOFF_SECONDS * (2 ** (attempt - 1)))
            connection = self._connect()
            try:
                connection.request("POST", self._target, body,
                                   {"Content-Type": "application/json"})
                response = connection.getresponse()
                status, data = response.status, response.read()
            except (OSError, HTTPException) as exc:
                status, last_failure = None, f"{type(exc).__name__}: {exc}"
            else:
                if 200 <= status < 300:
                    return self._parse(data, episode_id)
                last_failure = f"HTTP {status}"
            finally:
                connection.close()
            logger.warning("backend attempt %d/%d failed for %s: %s",
                           attempt + 1, ATTEMPTS, episode_id, last_failure)
            if status is not None and 400 <= status < 500 and status not in (408, 429):
                break  # no other client error can succeed when sent again
        raise BackendError(
            f"backend failed for {episode_id!r} after {attempt + 1} attempts "
            f"({last_failure})",
            attempts=attempt + 1,
        )

    @staticmethod
    def _parse(body: bytes, episode_id: str) -> str:
        try:
            data = json.loads(body)
        except ValueError as exc:
            raise ProtocolError(
                f"backend returned non-JSON body for {episode_id!r}: {exc}"
            ) from exc
        if not isinstance(data, dict) or not isinstance(data.get("summary"), str):
            raise ProtocolError(
                f"backend response for {episode_id!r} lacks a string 'summary' field"
            )
        return data["summary"]


def summarize(backend_input: BackendInput, backend: Backend,
              max_length: int | None = None) -> Summary:
    """Run one capped selection through a backend, timing the call."""
    started = time.perf_counter()
    text = backend.generate(backend_input.episode_id, backend_input.text, max_length)
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    return Summary(
        episode_id=backend_input.episode_id,
        text=text,
        backend_id=backend.backend_id,
        latency_ms=elapsed_ms,
    )
