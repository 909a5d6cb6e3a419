"""Live-transport tests against a local HTTP server (no external network)."""

import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from tweetcheck.errors import NetworkError
from tweetcheck.fetch import Fetcher, FetchMode, FetchRequest, FixtureStore


class _Handler(BaseHTTPRequestHandler):
    seen_headers: list[dict] = []

    def do_GET(self):
        type(self).seen_headers.append(dict(self.headers))
        if self.path == "/hop1":
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
