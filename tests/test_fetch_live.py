"""Live-transport tests against a local HTTP server (no external network)."""

import gc
import gzip
import importlib
import threading
import time
import warnings
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from tweetcheck.adapters import ENGINES
from tweetcheck.cli import main
from tweetcheck.errors import NetworkError
from tweetcheck.fetch import MAX_REDIRECTS, Fetcher, FetchMode, FetchRequest, FixtureStore
from tweetcheck.model import SourceId, TweetClaim
from tweetcheck.queries import build_query, encode_query

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

#: Answers no server should send, each of which the HTTP stack takes without
#: complaint: path, any query string aside -> (status, Location or None, what
#: the failure says after "GET <url> failed: ").
HOSTILE_ROUTES = {
    "/redirect-to-bad-ipv6": (302, "http://[::1", "Invalid IPv6 URL"),
    "/redirect-to-bad-netloc": (302, "//[", "Invalid IPv6 URL"),
    # the Location is written as the bytes ff fe
    "/redirect-not-utf8": (302, "\xff\xfe", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    "/status-700": (700, None, "status out of range: 700"),
}

#: How long the endless redirect body is written if the client keeps reading.
ENDLESS_BODY_S = 5.0


class _Handler(BaseHTTPRequestHandler):
    seen_headers: list[dict] = []
    seen_paths: list[str] = []

    def do_GET(self):
        type(self).seen_headers.append(dict(self.headers))
        type(self).seen_paths.append(self.path)
        hostile = HOSTILE_ROUTES.get(self.path.split("?", 1)[0])
        if hostile is not None:
            status, location, _ = hostile
            self.send_response(status)
            if location is not None:
                self.send_header("Location", location)
            self.send_header("Content-Length", "0")
            self.end_headers()
        elif self.path in _SIZED_ROUTES:
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
        elif self.path == "/folded":
            body = b"folded"
            self.send_response(200)
            self.send_header("Content-Type", "text/html;\r\n charset=utf-8")  # obs-fold
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        elif self.path == "/absolute":
            self.send_response(302)
            self.send_header("Location", f"http://127.0.0.1:{self.server.server_address[1]}/final")
            self.end_headers()
        elif self.path == "/dir/relative":
            self.send_response(301)
            self.send_header("Location", "../final")
            self.end_headers()
        elif self.path == "/endless-302":
            # a redirect whose body never ends, until the client hangs up
            self.send_response(302)
            self.send_header("Location", "/final")
            self.end_headers()
            deadline = time.monotonic() + ENDLESS_BODY_S
            try:
                while time.monotonic() < deadline:
                    self.wfile.write(b"z" * 4096)
            except (BrokenPipeError, ConnectionResetError):
                pass
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

    @pytest.mark.parametrize("path", ["/absolute", "/dir/relative"])
    def test_location_resolved_against_the_current_url(self, server, path):
        with Fetcher(FetchMode.LIVE, delay_ms=0) as fetcher:
            response = fetcher.fetch(FetchRequest(url=f"{server}{path}"))
        assert (response.status, response.body) == (200, b"arrived")
        assert response.final_url == f"{server}/final"

    def test_redirect_loop_stops_after_max_redirects(self, server):
        _Handler.seen_paths.clear()
        with Fetcher(FetchMode.LIVE, delay_ms=0) as fetcher:
            with pytest.raises(NetworkError, match=f"Exceeded {MAX_REDIRECTS} redirects"):
                fetcher.fetch(FetchRequest(url=f"{server}/loop"))
        assert _Handler.seen_paths == ["/loop"] * (MAX_REDIRECTS + 1)

    def test_redirect_body_is_not_read(self, server):
        # reading the 302's body would take until the server gives up
        started = time.monotonic()
        with Fetcher(FetchMode.LIVE, delay_ms=0) as fetcher:
            response = fetcher.fetch(FetchRequest(url=f"{server}/endless-302"))
        assert time.monotonic() - started < ENDLESS_BODY_S / 2
        assert (response.body, response.final_url) == (b"arrived", f"{server}/final")

    def test_user_agent_header_sent(self, server):
        _Handler.seen_headers.clear()
        fetcher = Fetcher(FetchMode.LIVE, delay_ms=0, user_agent="probe-agent/9")
        fetcher.fetch(FetchRequest(url=f"{server}/final"))
        assert _Handler.seen_headers[-1].get("User-Agent") == "probe-agent/9"

    def test_non_2xx_is_a_network_error(self, server):
        with Fetcher(FetchMode.LIVE, delay_ms=0) as fetcher:
            with pytest.raises(NetworkError) as exc:
                fetcher.fetch(FetchRequest(url=f"{server}/missing"))
        assert str(exc.value) == f"HTTP 404 for {server}/missing"

    def test_record_mode_persists_redirected_response(self, server, tmp_path):
        store = FixtureStore(tmp_path / "fx")
        recorder = Fetcher(FetchMode.RECORD, store, delay_ms=0)
        recorded = recorder.fetch(FetchRequest(url=f"{server}/hop1"))
        replayed = Fetcher(FetchMode.REPLAY, store).fetch(FetchRequest(url=f"{server}/hop1"))
        assert replayed == recorded
        assert replayed.final_url == f"{server}/final"

    def test_folded_content_type_is_recorded_unfolded_and_replays(self, server, tmp_path):
        store = FixtureStore(tmp_path / "fx")
        request = FetchRequest(url=f"{server}/folded")
        with Fetcher(FetchMode.RECORD, store, delay_ms=0) as recorder:
            recorder.fetch(request)
        replayed = Fetcher(FetchMode.REPLAY, store).fetch(request)
        assert (replayed.content_type, replayed.body) == ("text/html; charset=utf-8", b"folded")

    def test_one_session_per_host_and_close_closes_them_all(self, server):
        by_name = server.replace("127.0.0.1", "localhost")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with Fetcher(FetchMode.LIVE, delay_ms=0) as fetcher:
                fetcher.fetch(FetchRequest(url=f"{server}/final"))
                fetcher.fetch(FetchRequest(url=f"{by_name}/final"))
                sessions = dict(fetcher._sessions)
                assert sorted(sessions) == ["127.0.0.1", "localhost"]
                fetcher.fetch(FetchRequest(url=f"{server}/hop1"))
                assert fetcher._sessions == sessions  # the same host's session again
            assert fetcher._sessions == {}
            assert all(not session.adapters["http://"].poolmanager.pools for session in sessions.values())
            del sessions
            gc.collect()
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []

    @pytest.mark.parametrize("path", list(HOSTILE_ROUTES))
    def test_hostile_answer_is_a_network_error_naming_the_request(self, server, path):
        with Fetcher(FetchMode.LIVE, delay_ms=0) as fetcher:
            with pytest.raises(NetworkError) as exc:
                fetcher.fetch(FetchRequest(url=f"{server}{path}"))
            # the host's session still works
            assert fetcher.fetch(FetchRequest(url=f"{server}/final")).body == b"arrived"
        assert str(exc.value) == f"GET {server}{path} failed: {HOSTILE_ROUTES[path][2]}"

    def test_connection_refused_is_a_network_error(self):
        fetcher = Fetcher(FetchMode.LIVE, delay_ms=0, timeout_s=2)
        with pytest.raises(NetworkError):
            fetcher.fetch(FetchRequest(url="http://127.0.0.1:1/nothing-here"))


@pytest.mark.parametrize("path", list(HOSTILE_ROUTES))
def test_verify_reports_a_hostile_answer_as_a_failed_engine(server, tmp_path, capsys, path):
    body = "a hostile answer to a live query"
    spec = ENGINES[SourceId.SNOPES_SEARCH].spec
    url = f"{server}{path}?q={encode_query(build_query(TweetClaim(body=body), spec), spec.encoding)}"
    config = tmp_path / "tweetcheck.conf"
    config.write_text(f"politeness_delay_ms = 0\nendpoint.snopes = {server}{path}?q={{query}}\n", encoding="utf-8")
    code = main(["verify", body, "--engine", "snopes", "--mode", "live", "--config", str(config)])
    captured = capsys.readouterr()
    assert code == 69
    assert captured.out == ""
    assert captured.err == (
        f"tweetcheck: snopes: GET {url} failed: {HOSTILE_ROUTES[path][2]}\n"
        "tweetcheck: every engine failed; cannot verify\n"
    )


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
            # the host's session still works
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
