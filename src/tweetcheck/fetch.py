"""Single gateway for all HTTP traffic, with live, record, and replay modes.

Every downstream parser receives a :class:`FetchResponse`, so the whole
pipeline is testable offline: record once, then replay byte-identically
with zero network access. Fixtures are one file per request, named by the
SHA-256 of the normalized request line, with a diff-able ASCII header
followed by the raw body bytes.

The network stack (``requests`` and what it pulls in) is imported only when
a live or record fetcher is built without an injected transport, so replay
and the offline commands never load it. Live bodies are streamed and cut
off past :data:`MAX_BODY_BYTES`.
"""

from __future__ import annotations

import hashlib
import logging
import os
import threading
import time
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Optional, Sequence, TypeVar, Union
from urllib.parse import urlsplit, urlunsplit

from .errors import CorruptFixture, FixtureMiss, NetworkError

if TYPE_CHECKING:
    import requests

logger = logging.getLogger(__name__)

DEFAULT_USER_AGENT = "tweetcheck/0.1 (automated fact-check evidence retrieval)"
DEFAULT_DELAY_MS = 1000
DEFAULT_TIMEOUT_S = 30.0
MAX_REDIRECTS = 5
#: Largest live response body, after decompression; a larger one is a network error.
MAX_BODY_BYTES = 16 * 1024 * 1024
_BODY_CHUNK_BYTES = 64 * 1024
#: Hosts queried at the same time by :meth:`Fetcher.run_per_host`.
MAX_HOST_WORKERS = 4

# Politeness bookkeeping is deliberately module-global: concurrent fetchers
# must share one per-host clock. Each host gets its own lock, held across
# the request itself, so same-host request starts are provably separated by
# the delay while other hosts proceed in parallel.
_POLITENESS_LOCK = threading.Lock()
_HOST_LOCKS: dict[str, threading.Lock] = {}
_HOST_NEXT_SLOT: dict[str, float] = {}


class FetchMode(Enum):
    LIVE = "live"
    RECORD = "record"
    REPLAY = "replay"


@dataclass(frozen=True)
class FetchRequest:
    """A GET request to an absolute URL."""

    url: str
    accept_language: Optional[str] = None
    method: str = "GET"

    def __post_init__(self):
        parts = urlsplit(self.url)
        if not parts.scheme or not parts.netloc:
            raise ValueError(f"url must be absolute: {self.url!r}")
        if self.method != "GET":
            raise ValueError("only GET is supported")


@dataclass(frozen=True)
class FetchResponse:
    """An HTTP response with the body preserved byte-exact (post-decompression)."""

    status: int
    final_url: str
    body: bytes
    content_type: str = ""

    def __post_init__(self):
        if not 100 <= self.status <= 599:
            raise ValueError(f"status out of range: {self.status}")

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300


def normalize_url_for_key(url: str) -> str:
    """Lowercase scheme and host, strip any trailing "/" from the path."""
    parts = urlsplit(url)
    path = parts.path.rstrip("/")
    return urlunsplit((parts.scheme.lower(), parts.netloc.lower(), path, parts.query, parts.fragment))


def fixture_key(req: FetchRequest) -> str:
    """64-char hex digest identifying a request: SHA-256 of "<METHOD> <normalized-url>"."""
    line = f"{req.method} {normalize_url_for_key(req.url)}"
    return hashlib.sha256(line.encode("utf-8")).hexdigest()


class FixtureStore:
    """Directory of recorded responses, one ``<digest>.fixture`` file per key.

    File layout: four ASCII header lines (status, final URL, content type,
    body byte length), a blank line, then the raw body bytes.
    """

    def __init__(self, root: str | os.PathLike):
        self.root = Path(root)

    def path_for(self, key: str) -> Path:
        return self.root / f"{key}.fixture"

    def exists(self, key: str) -> bool:
        return self.path_for(key).is_file()

    def load(self, key: str, url: str = "") -> FetchResponse:
        """The recorded response; :class:`FixtureMiss` if there is none,
        :class:`CorruptFixture` if the file cannot be read back."""
        path = self.path_for(key)
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            raise FixtureMiss(key, url) from None
        except OSError as exc:  # e.g. a directory or an unreadable file in its place
            raise CorruptFixture(key, url, f"unreadable: {exc.strerror}") from exc
        head = data.split(b"\n", 4)
        if len(head) < 5:
            raise CorruptFixture(key, url, "bad header: truncated")
        status_line, final_url, content_type, length_line, rest = head
        if not rest.startswith(b"\n"):
            raise CorruptFixture(key, url, "missing blank line after header")
        body = rest[1:]
        try:
            expected = int(length_line)
            response = FetchResponse(
                status=int(status_line),
                final_url=final_url.decode("utf-8"),
                body=body,
                content_type=content_type.decode("utf-8"),
            )
            urlsplit(response.final_url)  # later stages must be able to parse it
        except ValueError as exc:  # UnicodeDecodeError is one too
            raise CorruptFixture(key, url, f"bad header: {exc}") from exc
        if len(body) != expected:
            raise CorruptFixture(
                key, url, f"length mismatch: header says {expected} bytes, body has {len(body)}"
            )
        return response

    def save(self, key: str, response: FetchResponse) -> Path:
        import tempfile  # only recording writes fixtures

        self.root.mkdir(parents=True, exist_ok=True)
        header = (
            f"{response.status}\n{response.final_url}\n"
            f"{response.content_type}\n{len(response.body)}\n\n"
        )
        path = self.path_for(key)
        fd, tmp_name = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(header.encode("utf-8"))
                handle.write(response.body)
            os.replace(tmp_name, path)  # last write wins, never a torn file
        except BaseException:
            if os.path.exists(tmp_name):
                os.unlink(tmp_name)
            raise
        return path


def _host_lock(host: str) -> threading.Lock:
    with _POLITENESS_LOCK:
        lock = _HOST_LOCKS.get(host)
        if lock is None:
            lock = _HOST_LOCKS[host] = threading.Lock()
        return lock


def _reset_politeness_clock() -> None:
    with _POLITENESS_LOCK:
        _HOST_LOCKS.clear()
        _HOST_NEXT_SLOT.clear()


def _host(url: str) -> str:
    return (urlsplit(url).hostname or "").lower()


Transport = Callable[[FetchRequest], FetchResponse]
T = TypeVar("T")


class Fetcher:
    """Mode-aware fetch gateway.

    Live performs the request with a per-host politeness delay; record does
    the same and persists the response under its fixture key; replay serves
    recorded responses only and never touches the network. One fetcher may
    be used from several threads at once. :meth:`close` (or leaving a
    ``with`` block) closes its pooled HTTP sessions once requests are done.
    """

    def __init__(
        self,
        mode: FetchMode,
        store: Optional[FixtureStore] = None,
        *,
        user_agent: str = DEFAULT_USER_AGENT,
        delay_ms: int = DEFAULT_DELAY_MS,
        timeout_s: float = DEFAULT_TIMEOUT_S,
        transport: Optional[Transport] = None,
    ):
        if mode in (FetchMode.RECORD, FetchMode.REPLAY) and store is None:
            raise ValueError(f"{mode.value} mode requires a fixture store")
        if transport is None and mode is not FetchMode.REPLAY:
            # Load the network stack now, on the constructing thread and
            # before any pool starts, so offline runs never import it and
            # no worker races the import.
            import requests  # noqa: F401
        self.mode = mode
        self.store = store
        self.user_agent = user_agent
        self.delay_ms = delay_ms
        self.timeout_s = timeout_s
        # A requests.Session is not safe to share between threads, so each
        # request takes an idle one (or a new one) and puts it back after.
        self._idle_sessions: list[requests.Session] = []
        self._sessions_lock = threading.Lock()
        self._transport = transport if transport is not None else self._requests_transport

    def __enter__(self) -> "Fetcher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Close the idle pooled sessions and their keep-alive connections."""
        with self._sessions_lock:
            sessions, self._idle_sessions = self._idle_sessions, []
        for session in sessions:
            session.close()

    def fetch(self, req: FetchRequest) -> FetchResponse:
        """Resolve one request according to the mode.

        Non-2xx statuses are responses, not errors; callers interpret them.
        Raises :class:`FixtureMiss` in replay mode for unrecorded requests
        and :class:`NetworkError` on live transport failure.
        """
        key = fixture_key(req)
        if self.mode is FetchMode.REPLAY:
            assert self.store is not None
            return self.store.load(key, req.url)
        response = self._polite_request(req)
        if self.mode is FetchMode.RECORD:
            assert self.store is not None
            self.store.save(key, response)
        return response

    def run_per_host(
        self, jobs: Sequence[tuple[str, Callable[[], T]]]
    ) -> list[Union[T, Exception]]:
        """Run ``(url, job)`` pairs, each host's jobs one after another.

        Jobs for different hosts (by the host of their URL) run at the same
        time, at most :data:`MAX_HOST_WORKERS` hosts at once; jobs for one
        host keep their input order. Returns each job's result, or the
        exception it raised, in input order. Replay never waits on the
        network, so it runs every job inline.
        """
        by_host: dict[str, list[int]] = {}
        for index, (url, _) in enumerate(jobs):
            by_host.setdefault(_host(url), []).append(index)
        outcomes: list[Union[T, Exception]] = [None] * len(jobs)  # type: ignore[list-item]

        def run(indices: list[int]) -> None:
            for index in indices:
                try:
                    outcomes[index] = jobs[index][1]()
                except Exception as exc:  # handed back to the caller in order
                    outcomes[index] = exc

        groups = list(by_host.values())
        if self.mode is FetchMode.REPLAY or len(groups) < 2:
            for indices in groups:
                run(indices)
            return outcomes
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=min(MAX_HOST_WORKERS, len(groups))) as pool:
            for future in [pool.submit(run, indices) for indices in groups]:
                future.result()
        return outcomes

    def _polite_request(self, req: FetchRequest) -> FetchResponse:
        delay_s = self.delay_ms / 1000.0
        if delay_s <= 0:
            return self._transport(req)
        host = _host(req.url)
        with _host_lock(host):
            now = time.monotonic()
            slot = _HOST_NEXT_SLOT.get(host, now)
            if slot > now:
                time.sleep(slot - now)
            started = time.monotonic()
            try:
                return self._transport(req)
            finally:
                # failed requests still contacted the host; keep the spacing
                _HOST_NEXT_SLOT[host] = started + delay_s

    def _requests_transport(self, req: FetchRequest) -> FetchResponse:
        import requests  # already loaded by __init__

        headers = {"User-Agent": self.user_agent}
        if req.accept_language:
            headers["Accept-Language"] = req.accept_language
        with self._sessions_lock:
            session = self._idle_sessions.pop() if self._idle_sessions else None
        if session is None:
            session = requests.Session()  # opens no connection until used
            session.max_redirects = MAX_REDIRECTS
        try:
            resp = session.get(
                req.url, headers=headers, timeout=self.timeout_s, allow_redirects=True, stream=True
            )
            with resp:  # a body left unread closes its connection
                body = _read_capped_body(req.url, resp)
        except requests.RequestException as exc:
            raise NetworkError(f"GET {req.url} failed: {exc}") from exc
        finally:
            with self._sessions_lock:
                self._idle_sessions.append(session)
        return FetchResponse(
            status=resp.status_code,
            final_url=resp.url,
            body=body,
            content_type=resp.headers.get("Content-Type", ""),
        )


def _read_capped_body(url: str, resp: "requests.Response") -> bytes:
    """The decompressed body; :class:`NetworkError` once it passes :data:`MAX_BODY_BYTES`."""
    declared = resp.headers.get("Content-Length", "")
    if declared.isdigit() and int(declared) > MAX_BODY_BYTES:
        raise NetworkError(
            f"GET {url} failed: Content-Length {declared} exceeds the {MAX_BODY_BYTES}-byte cap"
        )
    chunks: list[bytes] = []
    size = 0
    for chunk in resp.iter_content(_BODY_CHUNK_BYTES):
        size += len(chunk)
        if size > MAX_BODY_BYTES:
            raise NetworkError(f"GET {url} failed: body exceeds the {MAX_BODY_BYTES}-byte cap")
        chunks.append(chunk)
    return b"".join(chunks)


def fetch(
    req: FetchRequest,
    mode: FetchMode,
    store: Optional[FixtureStore] = None,
    **kwargs,
) -> FetchResponse:
    """One-shot convenience wrapper around :class:`Fetcher`."""
    with Fetcher(mode, store, **kwargs) as fetcher:
        return fetcher.fetch(req)
