"""Phase-2 hand-off: token budget capping and the summarization backend seam.

Backends are intentionally thin: anything with a ``backend_id`` and a
``generate(episode_id, text, max_length)`` method plugs in. The repo ships
two, an identity backend for offline runs and an HTTP client for a remote
model server. A backend call is one attempt; summarize_all owns the retry
policy and the threads that send the attempts.
"""

from __future__ import annotations

import functools
import heapq
import json
import logging
import threading
import time
from typing import NamedTuple, Protocol
from urllib.parse import urlsplit

from .corpus import Document, token_end
from .errors import BackendError, ConfigError, ProtocolError
from .selection import DEFAULT_TOKEN_BUDGET, SelectionResult, _require_budget

logger = logging.getLogger(__name__)

ATTEMPTS = 3
BACKOFF_SECONDS = 0.5  # the wait before the second attempt; each later wait doubles


class BackendInput(NamedTuple):
    """Budget-capped text ready to hand to an abstractive backend."""

    episode_id: str
    text: str
    token_count: int
    truncated_mid_sentence: bool = False


class Summary(NamedTuple):
    episode_id: str
    text: str
    backend_id: str

    def to_record(self) -> dict:
        return {"id": self.episode_id, "summary": self.text, "backend": self.backend_id}

    @classmethod
    def from_record(cls, record: dict) -> Summary:
        """Read a summaries-file line back. 'id' and 'summary' are required,
        and 'backend' defaults to unknown; the first bad field raises KeyError
        or ValueError."""
        episode_id, text = record["id"], record["summary"]
        backend_id = record.get("backend", "unknown")
        if not isinstance(episode_id, str) or not isinstance(text, str):
            raise ValueError("'id' and 'summary' must be strings")
        if not isinstance(backend_id, str):
            raise ValueError("'backend' must be a string")
        return cls(episode_id, text, backend_id)


def enforce_budget(selection: SelectionResult, doc: Document,
                   max_tokens: int = DEFAULT_TOKEN_BUDGET) -> BackendInput:
    """Cap a selection at max_tokens, preferring sentence boundaries.

    Trailing sentences are dropped until the total fits. Only when the very
    first selected sentence is by itself over the budget does the text get
    cut mid-sentence, at exactly max_tokens tokens, and the result is
    flagged. Applying the cap to text that already fits changes nothing, so
    the operation is idempotent.

    The cut counts the tokens of that one sentence's text, so each sentence's
    token_count must be len(token_texts(sentence.raw_text)), as
    build_document makes it. A max_tokens below 1 raises ConfigError, as
    every reader of the token budget does.
    """
    _require_budget(max_tokens)
    for index in selection.sentence_indices:
        if not 0 <= index < len(doc.sentences):
            raise ValueError(
                f"selection for {selection.episode_id!r} references sentence "
                f"{index}, document has {len(doc.sentences)}"
            )

    kept: list[int] = []
    total = 0
    for index in selection.sentence_indices:
        cost = doc.sentences[index].token_count
        if total + cost > max_tokens:
            break
        kept.append(index)
        total += cost

    if not kept and selection.sentence_indices:
        # single oversized sentence: hard cut after max_tokens tokens
        sentence = doc.sentences[selection.sentence_indices[0]]
        cut = token_end(sentence.raw_text, max_tokens)
        return BackendInput(
            episode_id=selection.episode_id,
            text=sentence.raw_text[:cut],
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

    POSTs ``{"id", "text", "max_length"?}`` to the endpoint's path joined with
    ``/summarize``, its query kept and its fragment dropped, on a new
    connection per call (over https, all of them share one TLS context), and
    expects ``{"id", "summary"}`` back. Each call is one attempt: a non-2xx
    response raises BackendError with its status, a connection or timeout
    failure raises one without, and a malformed body or a summary that is not
    valid Unicode text raises ProtocolError.
    summarize_all decides which of them to retry. An endpoint that no
    request could be sent to is refused when the backend is built.

    http.client is imported here rather than at module level: it pulls in
    ssl, socket and email, which no other backend needs.
    """

    backend_id = "remote"

    def __init__(self, endpoint: str, timeout: float = 30.0):
        from http.client import HTTPConnection, HTTPSConnection, InvalidURL

        # refused here, not on each attempt: an unclosed [ in the host, a port
        # that is not a number, a host http.client cannot use or the socket
        # cannot IDNA-encode (an empty label, one over 63 characters), and a
        # path or query with whitespace, control or non-ASCII characters
        try:
            # urlsplit deletes these wherever they stand, so they are refused first
            if any(ch in endpoint for ch in "\t\r\n"):
                raise ValueError("URL can't contain control characters")
            parts = urlsplit(endpoint)
            if parts.scheme not in ("http", "https") or not parts.hostname:
                raise ConfigError(f"endpoint {endpoint!r} is not an http(s):// URL with a host")
            # the query goes with every request; the fragment is never sent
            self._target = (parts.path.rstrip("/") + "/summarize"
                            + (f"?{parts.query}" if parts.query else ""))
            connection_type = HTTPConnection
            if parts.scheme == "https":
                import ssl

                # the context HTTPSConnection would build for each connection,
                # built once: each build loads the trust store, tens of
                # milliseconds of CPU that hold the GIL
                context = ssl._create_default_https_context()  # PEP 476's hook
                context.set_alpn_protocols(["http/1.1"])
                if context.post_handshake_auth is not None:
                    context.post_handshake_auth = True
                connection_type = functools.partial(HTTPSConnection, context=context)
            self._connect = functools.partial(connection_type, parts.hostname, parts.port,
                                              timeout=timeout)
            # only checks: a connection opens on its first request
            self._connect().putrequest("POST", self._target)
            parts.hostname.encode("idna")
        except (ValueError, InvalidURL) as exc:  # UnicodeError is a ValueError
            raise ConfigError(f"endpoint {endpoint!r}: {exc}") from exc

    def generate(self, episode_id: str, text: str, max_length: int | None = None) -> str:
        from http.client import HTTPException

        payload: dict = {"id": episode_id, "text": text}
        if max_length is not None:
            payload["max_length"] = max_length
        connection = self._connect()
        try:
            connection.request("POST", self._target, json.dumps(payload).encode("utf-8"),
                               {"Content-Type": "application/json"})
            response = connection.getresponse()
            status, data = response.status, response.read()
        except (OSError, HTTPException) as exc:
            raise BackendError(f"{type(exc).__name__}: {exc}") from exc
        finally:
            connection.close()
        if not 200 <= status < 300:
            raise BackendError(f"HTTP {status}", status=status)
        return self._parse(data, episode_id)

    @staticmethod
    def _parse(body: bytes, episode_id: str) -> str:
        try:
            data = json.loads(body)
        except (ValueError, RecursionError) as exc:  # RecursionError: nested too deeply
            raise ProtocolError(
                f"backend returned non-JSON body for {episode_id!r}: {exc}"
            ) from exc
        summary = data.get("summary") if isinstance(data, dict) else None
        if not isinstance(summary, str):
            raise ProtocolError(
                f"backend response for {episode_id!r} lacks a string 'summary' field"
            )
        # JSON escapes such as \ud800 parse, and could not be written out
        try:
            summary.encode("utf-8")
        except UnicodeEncodeError:
            raise ProtocolError(
                f"backend summary for {episode_id!r} is not valid Unicode text") from None
        return summary


def _retry_delay(error: BackendError, attempt: int) -> float | None:
    """Seconds to wait before retrying an episode whose attempt number `attempt`
    failed with `error`, or None when it gets no further attempt.

    A protocol error and a 4xx other than 408 and 429 are not retried: the
    same request would be refused again.
    """
    if attempt >= ATTEMPTS or isinstance(error, ProtocolError):
        return None
    if error.status is not None and 400 <= error.status < 500 and error.status not in (408, 429):
        return None
    return BACKOFF_SECONDS * 2 ** (attempt - 1)


def summarize_all(inputs: list[BackendInput], backend: Backend, max_length: int | None,
                  jobs: int) -> list[Summary | BackendError]:
    """Run capped selections through a backend, at most `jobs` requests at a time.

    Returns, in input order, each input's Summary or the BackendError that
    ended its attempts. The workers are min(jobs, len(inputs)) threads, the
    calling thread among them, taking attempts from one queue ordered by due
    time. A failed attempt that _retry_delay allows goes back into the queue,
    due its backoff after the failure, and the worker that sent it takes the
    next due attempt at once: a backoff holds no request slot. An exception
    other than BackendError, such as a Ctrl-C, is raised here at once, without
    waiting for requests in flight: each helper, a daemon thread, stops at its
    next take(). On success every helper has ended before this returns.
    """
    outcomes: list[Summary | BackendError | None] = [None] * len(inputs)
    now = time.monotonic()
    due = [(now, position, 1) for position in range(len(inputs))]  # a heap of (due, position, attempt)
    unfinished = len(inputs)
    failure: BaseException | None = None
    changed = threading.Condition()

    def take() -> tuple[int, int] | None:
        """The next (position, attempt) once it is due; None when no attempt is left."""
        with changed:
            while unfinished and failure is None:
                if not due:  # every unfinished episode is in flight
                    changed.wait()
                elif (wait := due[0][0] - time.monotonic()) > 0:
                    changed.wait(wait)
                else:
                    return heapq.heappop(due)[1:]
            return None

    def attempt_one(position: int, attempt: int) -> None:
        nonlocal unfinished
        item = inputs[position]
        try:
            text = backend.generate(item.episode_id, item.text, max_length)
        except BackendError as exc:
            failed_at = time.monotonic()
            logger.warning("backend attempt %d/%d failed for %s: %s",
                           attempt, ATTEMPTS, item.episode_id, exc)
            delay = _retry_delay(exc, attempt)
            if delay is not None:
                with changed:
                    heapq.heappush(due, (failed_at + delay, position, attempt + 1))
                    changed.notify_all()
                return
            tries = "1 attempt" if attempt == 1 else f"{attempt} attempts"
            outcome = BackendError(
                f"backend failed for {item.episode_id!r} after {tries} ({exc})",
                attempts=attempt, status=exc.status)
        else:
            outcome = Summary(episode_id=item.episode_id, text=text,
                              backend_id=backend.backend_id)
        with changed:
            outcomes[position] = outcome
            unfinished -= 1
            changed.notify_all()

    def work() -> None:
        nonlocal failure
        try:
            while (next_attempt := take()) is not None:
                attempt_one(*next_attempt)
        except BaseException as exc:  # raised below, while the helpers stop
            with changed:
                failure = failure or exc
                changed.notify_all()

    helpers = [threading.Thread(target=work, daemon=True)
               for _ in range(min(jobs, len(inputs)) - 1)]
    for helper in helpers:
        helper.start()
    work()
    if failure is None:  # every episode has its outcome, so no helper is sending
        for helper in helpers:
            helper.join()
    if failure is not None:
        raise failure
    return outcomes


def summarize(backend_input: BackendInput, backend: Backend,
              max_length: int | None = None) -> Summary:
    """Run one capped selection through a backend: summarize_all over one input.

    Raises the BackendError that ended its attempts.
    """
    (outcome,) = summarize_all([backend_input], backend, max_length, jobs=1)
    if isinstance(outcome, BackendError):
        raise outcome
    return outcome
