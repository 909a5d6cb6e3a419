"""Exception types shared across the package.

Each class declares, as its ``exit_code``, the exit code (64, 65, 66 or 69)
of a command it ends; this is the one place each code is written, and
:func:`tweetcheck.cli.main` alone ends a command that raises one.

An engine query that ends in one of :data:`QUERY_FAILURES` fails that engine
only, a fixture miss included; every command words such a failure with
:func:`describe_failure`.
"""

from __future__ import annotations


class TweetCheckError(Exception):
    """Base class for all errors raised by this package; an operational failure."""

    exit_code = 69


class ConfigError(TweetCheckError):
    """A usage error: a command line, or a configuration file or value, that cannot be used."""

    exit_code = 64


class NetworkError(TweetCheckError):
    """A request failed: at the transport level, or with a non-2xx status
    (``HTTP {status} for {url}``), recorded or live."""


class FixtureMiss(TweetCheckError):
    """Replay mode was asked for a request that was never recorded."""

    exit_code = 66

    def __init__(self, key: str, url: str):
        self.key = key
        self.url = url
        super().__init__(f"no fixture {key} for {url}")


class CorruptFixture(FixtureMiss):
    """A recorded fixture file exists but cannot be read back."""

    def __init__(self, key: str, url: str, reason: str):
        super().__init__(key, url)
        self.reason = reason
        self.args = (f"corrupt fixture {key} for {url}: {reason}",)


class ParseError(TweetCheckError):
    """A fetched page could not be interpreted as the expected document."""


class CaptchaDetected(TweetCheckError):
    """The search engine served a bot challenge instead of results."""


class DatasetError(TweetCheckError):
    """A dataset cannot be used: unreadable, malformed, breaking an invariant or empty."""

    exit_code = 65


class FormatError(DatasetError):
    """A dataset row is malformed."""

    def __init__(self, line_no: int, field: str, message: str):
        self.line_no = line_no
        self.field = field
        super().__init__(f"line {line_no}, field {field}: {message}")


class ValidationError(DatasetError):
    """A dataset record breaks an invariant."""

    def __init__(self, record_id: str, message: str):
        self.record_id = record_id
        super().__init__(f"record {record_id}: {message}")


#: The failures an engine query may end in without stopping the run.
QUERY_FAILURES = (NetworkError, FixtureMiss, CaptchaDetected, ParseError)


def describe_failure(exc: TweetCheckError) -> str:
    """How a failed engine query, or any error that stops a command, is worded on stderr."""
    if isinstance(exc, CaptchaDetected):
        return f"bot challenge: {exc}"
    if isinstance(exc, ParseError):
        return f"unparseable page: {exc}"
    if isinstance(exc, DatasetError):
        return f"dataset error: {exc}"
    return str(exc)
