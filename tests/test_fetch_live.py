"""Live-transport tests against a local HTTP server (no external network)."""

import gzip
import importlib
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from tweetcheck.errors import NetworkError
from tweetcheck.fetch import Fetcher, FetchMode, FetchRequest, FixtureStore

#: Body cap the size tests run under, so that no test moves megabytes.
SMALL_CAP = 64
AT_CAP = b"x" * SMALL_CAP
OVER_CAP = b"y" * (SMALL_CAP + 1)

# path -> (body, declared Content-Length or None, extra headers)
_SIZED_ROUTES = {
    "/at-cap": (AT_CAP, len(AT_CAP), {}),
    "/at-cap-unsized": (AT_CAP, None, {}),
    "/over-cap": (OVER_CAP, len(OVER_CAP), {}),
    "/over-cap-unsized": (OVER_CAP, None, {}),
    # declares far more than it sends: only an early check refuses it by its header
    "/over-cap-declared": (b"tiny", 10 * SMALL_CAP, {}),
    "/gzip-at-cap": (gzip.compress(AT_CAP), None, {"Content-Encoding": "gzip"}),
    "/gzip-over-cap": (gzip.compress(OVER_CAP), None, {"Content-Encoding": "gzip"}),
}


class _Handler(BaseHTTPRequestHandler):
    seen_headers: list[dict] = []

    def do_GET(self):
        type(self).seen_headers.append(dict(self.headers))
        if self.path in _SIZED_ROUTES:
            body, declared, headers = _SIZED_ROUTES[self.path]
            self.send_response(200)
            if declared is not None:
                self.send_header("Content-Length", str(declared))
            for name, value in headers.items():
                self.send_header(name, value)
            self.end_headers()
            self.wfile.write(body)
        elif self.path == "/hop1":
            self.send_response(302)
            self.send_header("Location", "/hop2")
            self.end_headers()
        elif self.path == "/hop2":
            self.send_response(302)
            self.send_header("Location", "/final")
            self.end_headers()
        elif self.path == "/final":
            body = b"arrived"
            self.send_response(200)
            self.send_header("Content-Type", "text/html; charset=utf-8")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        elif self.path == "/loop":
            self.send_response(302)
            self.send_header("Location", "/loop")
            self.end_headers()
        elif self.path == "/missing":
            body = b"gone"
            self.send_response(404)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        else:
            self.send_response(500)
            self.end_headers()

    def log_message(self, *args):
        pass


@pytest.fixture(scope="module")
def server():
    httpd = HTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{httpd.server_address[1]}"
    httpd.shutdown()
    httpd.server_close()


class TestLiveTransport:
    def test_redirects_followed_and_final_url_recorded(self, server):
        fetcher = Fetcher(FetchMode.LIVE, delay_ms=0)
        response = fetcher.fetch(FetchRequest(url=f"{server}/hop1"))
        assert response.status == 200
        assert response.body == b"arrived"
        assert response.final_url == f"{server}/final"
        assert response.content_type.startswith("text/html")

    def test_redirect_loop_is_a_network_error(self, server):
        fetcher = Fetcher(FetchMode.LIVE, delay_ms=0)
        with pytest.raises(NetworkError):
            fetcher.fetch(FetchRequest(url=f"{server}/loop"))

    def test_user_agent_header_sent(self, server):
        _Handler.seen_headers.clear()
        fetcher = Fetcher(FetchMode.LIVE, delay_ms=0, user_agent="probe-agent/9")
        fetcher.fetch(FetchRequest(url=f"{server}/final"))
        assert _Handler.seen_headers[-1].get("User-Agent") == "probe-agent/9"

    def test_accept_language_forwarded(self, server):
        _Handler.seen_headers.clear()
        fetcher = Fetcher(FetchMode.LIVE, delay_ms=0)
        fetcher.fetch(FetchRequest(url=f"{server}/final", accept_language="en-US"))
        assert _Handler.seen_headers[-1].get("Accept-Language") == "en-US"

    def test_non_2xx_returned_not_raised(self, server):
        fetcher = Fetcher(FetchMode.LIVE, delay_ms=0)
        response = fetcher.fetch(FetchRequest(url=f"{server}/missing"))
        assert response.status == 404
        assert response.body == b"gone"

    def test_record_mode_persists_redirected_response(self, server, tmp_path):
        store = FixtureStore(tmp_path / "fx")
        recorder = Fetcher(FetchMode.RECORD, store, delay_ms=0)
        recorded = recorder.fetch(FetchRequest(url=f"{server}/hop1"))
        replayed = Fetcher(FetchMode.REPLAY, store).fetch(FetchRequest(url=f"{server}/hop1"))
        assert replayed == recorded
        assert replayed.final_url == f"{server}/final"

    def test_close_empties_the_session_pool(self, server):
        with Fetcher(FetchMode.LIVE, delay_ms=0) as fetcher:
            fetcher.fetch(FetchRequest(url=f"{server}/final"))
            assert len(fetcher._idle_sessions) == 1
        assert fetcher._idle_sessions == []

    def test_connection_refused_is_a_network_error(self):
        fetcher = Fetcher(FetchMode.LIVE, delay_ms=0, timeout_s=2)
        with pytest.raises(NetworkError):
            fetcher.fetch(FetchRequest(url="http://127.0.0.1:1/nothing-here"))


class TestBodyCap:
    @pytest.fixture(autouse=True)
    def _small_cap(self, monkeypatch):
        # the package's own `fetch` function shadows the module as an attribute
        module = importlib.import_module("tweetcheck.fetch")
        monkeypatch.setattr(module, "MAX_BODY_BYTES", SMALL_CAP)

    @pytest.mark.parametrize("path", ["/at-cap", "/at-cap-unsized", "/gzip-at-cap"])
    def test_body_exactly_at_the_cap_is_returned_byte_exact(self, server, path):
        with Fetcher(FetchMode.LIVE, delay_ms=0) as fetcher:
            response = fetcher.fetch(FetchRequest(url=f"{server}{path}"))
        assert response.status == 200
        assert response.body == AT_CAP

    @pytest.mark.parametrize("path", ["/over-cap", "/over-cap-unsized", "/gzip-over-cap"])
    def test_body_over_the_cap_is_a_network_error(self, server, path):
        with Fetcher(FetchMode.LIVE, delay_ms=0) as fetcher:
            with pytest.raises(NetworkError, match="exceeds the 64-byte cap"):
                fetcher.fetch(FetchRequest(url=f"{server}{path}"))
            # the session went back to the pool and still works
            assert fetcher.fetch(FetchRequest(url=f"{server}/final")).body == b"arrived"

    def test_declared_length_over_the_cap_is_refused_before_reading(self, server):
        with Fetcher(FetchMode.LIVE, delay_ms=0) as fetcher:
            with pytest.raises(NetworkError, match="Content-Length 640 exceeds the 64-byte cap"):
                fetcher.fetch(FetchRequest(url=f"{server}/over-cap-declared"))

    def test_record_mode_saves_nothing_for_an_over_cap_body(self, server, tmp_path):
        store = FixtureStore(tmp_path / "fx")
        with Fetcher(FetchMode.RECORD, store, delay_ms=0) as recorder:
            with pytest.raises(NetworkError):
                recorder.fetch(FetchRequest(url=f"{server}/over-cap"))
        assert not store.root.exists() or not any(store.root.iterdir())
