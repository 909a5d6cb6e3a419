"""Single gateway for all HTTP traffic, with live, record, and replay modes.

Every downstream parser receives a :class:`FetchResponse`, so the whole
pipeline is testable offline: record once, then replay byte-identically
with zero network access. Only a 2xx response is returned: any other status
is a :class:`~tweetcheck.errors.NetworkError`, in replay as it was live,
because record mode saves the response before raising. Fixtures are one
file per request, named by the SHA-256 of the normalized request line,
with a diff-able ASCII header followed by the raw body bytes.

The network stack (``requests`` and what it pulls in) is imported only when
a live or record fetcher is built without an injected transport, so replay
and the offline commands never load it. A transport makes one request: a
live body is cut off past :data:`MAX_BODY_BYTES`, a 3xx body left unread.
The fetcher follows at most :data:`MAX_REDIRECTS` redirects, each a request.
"""

from __future__ import annotations

import hashlib
import logging
import os
import re
import threading
import time
from collections.abc import Callable, Sequence
from enum import Enum
from pathlib import Path
from urllib.parse import urljoin, urlsplit

from .errors import ConfigError, CorruptFixture, FixtureMiss, NetworkError, TweetCheckError
from .model import Record
from . import urls

logger = logging.getLogger(__name__)

DEFAULT_USER_AGENT = "tweetcheck/0.1 (automated fact-check evidence retrieval)"
DEFAULT_DELAY_MS = 1000
DEFAULT_TIMEOUT_S = 30.0
#: Most redirects one fetch follows; a response asking for one more is a network error.
MAX_REDIRECTS = 5
#: Largest live response body, after decompression; a larger one is a network error.
MAX_BODY_BYTES = 16 * 1024 * 1024
_MAX_FIXTURE_BYTES = MAX_BODY_BYTES + 1024 * 1024 + 1  # the body's cap, room for a header, one byte over
_BODY_CHUNK_BYTES = 64 * 1024
#: A line break in a header value and the spaces or tabs that fold it.
_FOLD = re.compile(r"(?:\r\n?|\n)[ \t]*")
#: Hosts queried at the same time by :meth:`Fetcher.run_per_host`.
MAX_HOST_WORKERS = 4

# Politeness bookkeeping is deliberately module-global, so concurrent fetchers
# share it: one table holds each host's entry, a lock and the monotonic time its
# next request may start, read and written only under that lock. The lock is held
# across the request at every delay, 0 included: at most one request per host is in
# flight and same-host starts are the delay apart, while other hosts run in parallel.
_HOSTS: dict[str, list] = {}


class FetchMode(Enum):
    LIVE = "live"
    RECORD = "record"
    REPLAY = "replay"


class FetchRequest(Record):
    """A GET request to an absolute http or https URL with a host, no userinfo, no malformed port
    and UTF-8 text: every URL a request goes to, a redirect's hop too, is checked here alone."""

    url: str

    def __post_init__(self):
        parts = urlsplit(self.url)
        if not parts.scheme or not parts.hostname:
            raise ValueError(f"url must be absolute: {self.url!r}")
        if parts.scheme not in ("http", "https"):
            raise ValueError(f"url must be http or https: {self.url!r}")
        if "@" in parts.netloc:  # RFC 3986 section 3.2.1; requests would send it as Authorization
            raise ValueError(f"url must not carry userinfo: {self.url!r}")
        parts.port  # raises ValueError for a malformed port
        try:
            self.url.encode("utf-8")
        except UnicodeEncodeError:  # a lone surrogate
            raise ValueError(f"url is not UTF-8 text: {self.url!r}") from None


class FetchResponse(Record):
    """An HTTP response with the body preserved byte-exact (post-decompression)."""

    status: int
    final_url: str
    body: bytes
    content_type: str = ""
    location: str = ""  # a redirect's Location, read as Latin-1 like any header; followed, never stored

    def __post_init__(self):
        if not 100 <= self.status <= 599:
            raise ValueError(f"status out of range: {self.status}")


def fixture_key(req: FetchRequest) -> str:
    """64-char hex digest identifying a request: SHA-256 of "GET <normalized-url>"."""
    line = f"GET {urls.normalize_url_for_key(req.url)}"
    return hashlib.sha256(line.encode("utf-8")).hexdigest()


class FixtureStore:
    """Directory of recorded responses, one ``<digest>.fixture`` file per key.

    File layout: four ASCII header lines (status, final URL, content type,
    body byte length), a blank line, then the raw body bytes. A final URL or
    content type holding a line break cannot be written.
    """

    def __init__(self, root: str | os.PathLike):
        self.root = Path(root)

    def path_for(self, key: str) -> Path:
        return self.root / f"{key}.fixture"

    def load(self, key: str, url: str = "") -> FetchResponse:
        """The recorded response; :class:`FixtureMiss` if there is none,
        :class:`CorruptFixture` if the file cannot be read back."""
        import stat  # loaded with os

        try:  # without blocking, so that a FIFO in the fixture's place cannot hang the open
            with open(self.path_for(key), "rb", opener=lambda name, flags: os.open(name, flags | os.O_NONBLOCK)) as handle:
                info = os.fstat(handle.fileno())
                if not stat.S_ISREG(info.st_mode):
                    raise CorruptFixture(key, url, "not a regular file")
                data = handle.read(min(info.st_size, _MAX_FIXTURE_BYTES))
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
        if len(body) > MAX_BODY_BYTES:
            raise CorruptFixture(key, url, f"body exceeds the {MAX_BODY_BYTES}-byte cap")
        if len(body) != expected:
            raise CorruptFixture(
                key, url, f"length mismatch: header says {expected} bytes, body has {len(body)}"
            )
        return response

    def save(self, key: str, response: FetchResponse) -> Path:
        """Write the response under ``key``; a :class:`TweetCheckError` naming
        the file if it cannot be written."""
        import tempfile  # only recording writes fixtures

        header = (
            f"{response.status}\n{response.final_url}\n"
            f"{response.content_type}\n{len(response.body)}\n\n"
        )
        path = self.path_for(key)
        for field in (response.final_url, response.content_type):
            if "\r" in field or "\n" in field:
                raise TweetCheckError(f"cannot write fixture {path}: line break in header field {field!r}")
        try:
            self.root.mkdir(parents=True, exist_ok=True)
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
        except OSError as exc:  # e.g. a directory in the fixture's place, or a full disk
            raise TweetCheckError(f"cannot write fixture {path}: {exc.strerror or exc}") from exc
        return path


def _reset_politeness_clock() -> None:
    _HOSTS.clear()


#: Makes one request; a redirect comes back with its ``location``, unfollowed.
Transport = Callable[[FetchRequest], FetchResponse]


class Fetcher:
    """Mode-aware fetch gateway.

    Live performs the request with a per-host politeness delay; record does
    the same and persists the response under its fixture key; replay serves
    recorded responses only and never touches the network. One fetcher may
    be used from several threads at once. :meth:`close` (or leaving a
    ``with`` block) closes its per-host HTTP sessions once requests are done.
    """

    def __init__(
        self,
        mode: FetchMode,
        store: FixtureStore | None = None,
        *,
        user_agent: str = DEFAULT_USER_AGENT,
        delay_ms: int = DEFAULT_DELAY_MS,
        timeout_s: float = DEFAULT_TIMEOUT_S,
        transport: Transport | None = None,
    ):
        if mode in (FetchMode.RECORD, FetchMode.REPLAY) and store is None:
            raise ConfigError(f"{mode.value} mode needs a fixtures directory")
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
        # host has its own, used only under that host's politeness lock.
        self._sessions: dict[str, requests.Session] = {}
        self._transport = transport if transport is not None else self._requests_transport

    def __enter__(self) -> "Fetcher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Close every host's session and its keep-alive connections; call it
        once the last request has returned."""
        sessions, self._sessions = self._sessions, {}
        for session in sessions.values():
            session.close()

    def fetch(self, req: FetchRequest) -> FetchResponse:
        """Resolve one request according to the mode; only a 2xx response is returned.

        Live and record follow each redirect as one more request, which waits for its own
        host's turn. Raises :class:`NetworkError` on live transport failure or a redirect that
        cannot be followed (a hop to a URL :class:`FetchRequest` refuses, say one with userinfo,
        is never sent) and, in every mode, ``HTTP {status} for {url}`` for a non-2xx response
        (which record mode saves first, so replay fails the same way). Raises
        :class:`FixtureMiss` in replay mode for unrecorded requests.
        """
        if self.mode is FetchMode.REPLAY:
            response = self.store.load(fixture_key(req), req.url)
        else:
            hop = req
            for _ in range(MAX_REDIRECTS + 1):
                response = self._polite_request(hop)
                if not response.location:
                    break
                try:  # a Location must be UTF-8, one urljoin takes, and lead to an http(s) URL
                    hop = FetchRequest(urljoin(response.final_url, response.location.encode("latin-1").decode("utf-8")))
                except ValueError as exc:
                    raise NetworkError(f"GET {req.url} failed: {exc}") from exc
            else:
                raise NetworkError(f"GET {req.url} failed: Exceeded {MAX_REDIRECTS} redirects.")
            if self.mode is FetchMode.RECORD:
                self.store.save(fixture_key(req), response)
        if not 200 <= response.status < 300:
            raise NetworkError(f"HTTP {response.status} for {req.url}")
        return response

    def run_per_host(self, jobs: Sequence[tuple[str, Callable[[], object]]]) -> list[object]:
        """Run ``(url, job)`` pairs, each host's jobs one after another.

        Jobs for different hosts (by the host of their URL) run at the same
        time, at most :data:`MAX_HOST_WORKERS` hosts at once; jobs for one
        host keep their input order. Returns each job's result in input
        order. An exception a job raises propagates, and no later job of its
        host runs (in replay, no later job at all); a job that may fail
        without stopping the run returns its failure as a value. Replay
        never waits on the network, so it runs every job inline.
        """
        by_host: dict[str, list[int]] = {}
        for index, (url, _) in enumerate(jobs):
            by_host.setdefault(urls.host(url), []).append(index)
        results: list[object] = [None] * len(jobs)

        def run(indices: list[int]) -> None:
            for index in indices:
                results[index] = jobs[index][1]()

        groups = list(by_host.values())
        if self.mode is FetchMode.REPLAY or len(groups) < 2:
            for indices in groups:
                run(indices)
            return results
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=min(MAX_HOST_WORKERS, len(groups))) as pool:
            for future in [pool.submit(run, indices) for indices in groups]:
                future.result()
        return results

    def _polite_request(self, req: FetchRequest) -> FetchResponse:
        # setdefault adds a new host's entry atomically, so every caller gets the same one
        entry = _HOSTS.setdefault(urls.host(req.url), [threading.Lock(), 0.0])
        with entry[0]:
            wait = entry[1] - time.monotonic()
            if wait > 0:
                time.sleep(wait)
            started = time.monotonic()
            try:
                return self._transport(req)
            finally:
                # failed requests still contacted the host; keep the spacing
                entry[1] = started + self.delay_ms / 1000.0

    def _requests_transport(self, req: FetchRequest) -> FetchResponse:
        import requests  # already loaded by __init__

        headers = {"User-Agent": self.user_agent}
        host = urls.host(req.url)  # the caller holds this host's lock
        session = self._sessions.get(host)
        if session is None:
            session = self._sessions[host] = requests.Session()  # opens no connection until used
            # Even with allow_redirects=False, requests runs its redirect
            # resolver once to prepare Response.next, and that reads the 3xx
            # body whole. Nothing here uses Response.next.
            session.resolve_redirects = lambda *args, **kwargs: iter(())
        try:
            resp = session.get(req.url, headers=headers, timeout=self.timeout_s, allow_redirects=False, stream=True)
            with resp:  # a body left unread closes its connection
                if resp.is_redirect:  # a 3xx with a Location, whose body may never end
                    return FetchResponse(resp.status_code, resp.url, b"", location=resp.headers["Location"])
                body = _read_capped_body(req.url, resp)
            return FetchResponse(
                status=resp.status_code,
                final_url=resp.url,
                body=body,
                # A header folded across lines keeps its line breaks;
                # RFC 9112 section 5.2 has the recipient unfold it.
                content_type=_FOLD.sub(" ", resp.headers.get("Content-Type", "")),
            )
        except (requests.RequestException, ValueError) as exc:  # ValueError: say a status past 599
            raise NetworkError(f"GET {req.url} failed: {exc}") from exc


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
