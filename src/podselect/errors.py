"""Exception types shared across the toolkit."""

from __future__ import annotations


class PodselectError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(PodselectError):
    """Invalid configuration or usage. The CLI maps this to exit code 2."""


class RecordParseError(PodselectError):
    """A corpus record could not be parsed.

    Logged and collected during ingestion, not propagated, so one bad line
    does not abort a batch run.
    """

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number
        self.message = message


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
    """The summarization backend failed after its configured retries."""

    def __init__(self, message: str, attempts: int | None = None):
        super().__init__(message)
        self.attempts = attempts


class ProtocolError(BackendError):
    """The backend's response did not match the wire contract."""
