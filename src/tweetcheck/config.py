"""Plain key=value configuration with three-layer precedence.

Defaults are defined in code, per engine in the engine table
(:data:`tweetcheck.adapters.ENGINES`); an optional configuration file
overrides them; the TWEETCHECK_MODE environment variable overrides the
fetch mode only; command-line flags override everything.

Recognized keys::

    mode = live | record | replay
    fixtures = <directory>
    user_agent = <printable ASCII string>
    politeness_delay_ms = <int, 0 to 86400000>
    timeout_s = <float, above 0 and at most 86400>
    verify.max_articles = <int, at least 1>
    endpoint.<engine> = <http(s) URL template; {query} is its only field>

where <engine> is one of: snopes, reuters, web, web-snopes, politwoops.
How an engine shapes its query and reads its results page is not
configurable: that is the engine's row of
:data:`tweetcheck.adapters.ENGINES`, as the rating selectors are
:data:`tweetcheck.ratings.DEFAULT_RATING_SELECTORS`.

This module is the one place defaults and overrides meet, and they meet
once, in :func:`build_config`, whose :class:`AppConfig` nothing changes
afterwards. :attr:`AppConfig.engines` is the read-only engine table itself,
copied only when an ``endpoint.*`` key replaces a row. Every value a live
run could not use is reported as it is read, as a :class:`ConfigError`
naming its key or flag: a number out of its range, an endpoint that does
not make a URL a request may go to, or a user agent that cannot be
sent in a header.
"""

from __future__ import annotations

import math
import os
from pathlib import Path
from string import Formatter
from collections.abc import Mapping
from types import MappingProxyType

from .adapters import ENGINES, EngineSettings
from .errors import ConfigError
from .fetch import DEFAULT_DELAY_MS, DEFAULT_TIMEOUT_S, DEFAULT_USER_AGENT, FetchMode, Fetcher, FetchRequest, FixtureStore
from .model import Record, SourceId

MODE_ENV_VAR = "TWEETCHECK_MODE"


def load_keyvalues(path: str | Path) -> dict[str, str]:
    """Parse a plain key=value file; "#" lines and blank lines are ignored.

    A leading UTF-8 byte-order mark is skipped. Raises :class:`ConfigError`
    naming the file if it cannot be read.
    """
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except OSError as exc:  # missing, a directory, no permission
        raise ConfigError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"cannot read {path}: not UTF-8 text ({exc.reason})") from None
    values: dict[str, str] = {}
    for line_no, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{line_no}: expected key=value, got {stripped!r}")
        key, _, value = stripped.partition("=")
        values[key.strip()] = value.strip()
    return values


def _parse_mode(value: str) -> FetchMode:
    try:
        return FetchMode(value.lower())
    except ValueError:
        expected = "/".join(mode.value for mode in FetchMode)
        raise ConfigError(f"unknown mode {value!r} (expected {expected})") from None


def source_by_name(name: str) -> SourceId:
    try:
        return SourceId(name)
    except ValueError:
        raise ConfigError(f"unknown engine name {name!r}") from None


class AppConfig(Record):
    """Resolved runtime settings for the CLI and library entry points.

    ``engines`` is every engine's row of the engine table, this
    configuration's overrides applied; by default the read-only table itself.
    """

    mode: FetchMode = FetchMode.LIVE
    fixtures_dir: Path | None = None
    user_agent: str = DEFAULT_USER_AGENT
    politeness_delay_ms: int = DEFAULT_DELAY_MS
    timeout_s: float = DEFAULT_TIMEOUT_S
    max_articles: int = 3
    engines: Mapping[SourceId, EngineSettings] = ENGINES

    def build_fetcher(self) -> Fetcher:
        """The fetcher for this configuration; a :class:`ConfigError` before any
        request if record or replay mode has no fixtures directory, or record
        mode one it could not write to."""
        store = FixtureStore(self.fixtures_dir) if self.fixtures_dir else None
        if self.mode is FetchMode.RECORD and store is not None:  # without one, Fetcher refuses the mode
            # Recording makes the directory when it saves the first fixture.
            existing = next(path for path in (store.root, *store.root.parents) if path.exists())
            if not existing.is_dir():
                raise ConfigError(f"fixtures {store.root}: {existing} is not a directory")
        return Fetcher(
            self.mode,
            store,
            user_agent=self.user_agent,
            delay_ms=self.politeness_delay_ms,
            timeout_s=self.timeout_s,
        )


def _parse_number(key: str, value: str, kind: type[int] | type[float]) -> int | float:
    try:
        return kind(value)
    except ValueError:
        raise ConfigError(f"{key} expects {'an integer' if kind is int else 'a number'}, got {value!r}") from None


def in_range(key: str, value: int | float, low: int | float, high: float = math.inf) -> int | float:
    """``value`` if ``low < value <= high`` (NaN never is), else a
    :class:`ConfigError` naming ``key``.

    The one range check for every number a configuration file or flag sets."""
    if not low < value:
        raise ConfigError(f"{key} must be greater than {low}, got {value}")
    if not value <= high:
        raise ConfigError(f"{key} must be at most {high}, got {value}")
    return value


def _endpoint(key: str, template: str) -> str:
    """``template`` if its one replacement field is ``{query}`` (no conversion,
    no format spec) and it makes a URL a :class:`~tweetcheck.fetch.FetchRequest`
    may go to, else a :class:`ConfigError` naming ``key``."""
    try:
        fields = {field[1:] for field in Formatter().parse(template) if field[1] is not None}
        if fields == {("query", "", None)}:
            FetchRequest(template.format(query="q"))
            return template
    except ValueError:  # unbalanced braces, or a URL no request may go to
        pass
    raise ConfigError(f"{key} must be an http or https URL whose only field is {{query}}, got {template!r}")


def build_config(
    config_path: str | Path | None = None,
    env: Mapping[str, str] | None = None,
    **flags,
) -> AppConfig:
    """Defaults < the file at ``config_path`` < :data:`MODE_ENV_VAR` in ``env``
    (the process environment by default) < ``flags``, each an :class:`AppConfig`
    field's value or None if not given; ``max_articles`` is checked as ``--max-articles``."""
    env = os.environ if env is None else env
    fields = {} if config_path is None else _file_fields(load_keyvalues(config_path))
    if env.get(MODE_ENV_VAR):
        fields["mode"] = _parse_mode(env[MODE_ENV_VAR])
    if flags.get("max_articles") is not None:
        in_range("--max-articles", flags["max_articles"], 0)
    fields.update((name, value) for name, value in flags.items() if value is not None)
    return AppConfig(**fields)


def _file_fields(values: dict[str, str]) -> dict[str, object]:
    """The :class:`AppConfig` fields a configuration file sets, each value checked as it is read."""
    fields: dict[str, object] = {}
    for key, value in values.items():
        if key == "mode":
            fields["mode"] = _parse_mode(value)
        elif key == "fixtures":
            fields["fixtures_dir"] = Path(value)
        elif key == "user_agent":
            if not (value.isascii() and value.isprintable()):  # else it cannot be sent
                raise ConfigError(f"user_agent must be printable ASCII, got {value!r}")
            fields["user_agent"] = value
        elif key == "politeness_delay_ms":  # 0 or more, and at most a day as is the timeout
            fields["politeness_delay_ms"] = in_range(key, _parse_number(key, value, int), -1, 86_400_000)
        elif key == "timeout_s":
            fields["timeout_s"] = in_range(key, _parse_number(key, value, float), 0, 86_400)
        elif key == "verify.max_articles":
            fields["max_articles"] = in_range(key, _parse_number(key, value, int), 0)
        elif key.startswith("endpoint."):
            source = source_by_name(key.removeprefix("endpoint."))
            row = ENGINES[source].replace(endpoint=_endpoint(key, value))
            fields["engines"] = MappingProxyType({**fields.get("engines", ENGINES), source: row})  # ENGINES unchanged
        else:
            raise ConfigError(f"unknown configuration key: {key!r}")
    return fields
