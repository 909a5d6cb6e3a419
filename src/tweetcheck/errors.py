"""Exception types shared across the package."""

from __future__ import annotations


class TweetCheckError(Exception):
    """Base class for all errors raised by this package."""


class NetworkError(TweetCheckError):
    """A live HTTP request failed at the transport level."""


class FixtureMiss(TweetCheckError):
    """Replay mode was asked for a request that was never recorded."""

    def __init__(self, key: str, url: str, record_id: str | None = None):
        self.key = key
        self.url = url
        self.record_id = record_id
        prefix = f"record {record_id}: " if record_id else ""
        super().__init__(f"{prefix}no fixture {key} for {url}")


class CorruptFixture(FixtureMiss):
    """A recorded fixture file exists but cannot be read back."""

    def __init__(self, key: str, url: str, reason: str):
        super().__init__(key, url)
        self.reason = reason
        self.args = (f"corrupt fixture {key} for {url}: {reason}",)


class MissingFixtures(TweetCheckError):
    """One or more fixtures were missing during an evaluation run."""

    def __init__(self, misses: list[FixtureMiss]):
        self.misses = misses
        lines = ", ".join(f"{m.record_id or '?'} -> {m.url}" for m in misses)
        super().__init__(f"{len(misses)} missing fixture(s): {lines}")


class ParseError(TweetCheckError):
    """A fetched page could not be interpreted as the expected document."""


class CaptchaDetected(TweetCheckError):
    """The search engine served a bot challenge instead of results."""


class FormatError(TweetCheckError):
    """A dataset row is malformed."""

    def __init__(self, line_no: int, field: str, message: str):
        self.line_no = line_no
        self.field = field
        super().__init__(f"line {line_no}, field {field}: {message}")


class ValidationError(TweetCheckError):
    """A dataset record breaks an invariant."""

    def __init__(self, record_id: str, message: str):
        self.record_id = record_id
        super().__init__(f"record {record_id}: {message}")


class EmptyDatasetError(TweetCheckError):
    """Metrics over an empty dataset are undefined."""
