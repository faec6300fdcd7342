"""Exception types shared across the toolkit."""

from __future__ import annotations


class PodselectError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(PodselectError):
    """Invalid configuration or usage. The CLI maps this to exit code 2."""


class RecordParseError(PodselectError):
    """A line of a JSONL input could not be read (see corpus.read_records).

    The episodes file logs and skips such lines, so one bad line does not
    abort a batch run; a selections or summaries file stops at the first.
    """

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class EmptyDocumentError(PodselectError):
    """A transcript produced no sentences with tokens."""


class InsufficientContentError(PodselectError):
    """Too little data for the step: a document with fewer sentences than
    topics (select skips it), or under 3 kept episodes to split (exit 1)."""


class MissingReferenceError(PodselectError):
    """One or more summaries have no reference description."""

    def __init__(self, episode_ids):
        self.episode_ids = sorted(episode_ids)
        super().__init__(
            "missing references for episodes: " + ", ".join(self.episode_ids)
        )


class BackendError(PodselectError):
    """The summarization backend failed: one attempt, or the last of an episode's attempts.

    `status` is the HTTP status of a refused attempt (None when no response
    came back); `attempts` is set on the error that ends an episode's attempts.
    """

    def __init__(self, message: str, attempts: int | None = None,
                 status: int | None = None):
        super().__init__(message)
        self.attempts = attempts
        self.status = status


class ProtocolError(BackendError):
    """The backend's response did not match the wire contract."""
