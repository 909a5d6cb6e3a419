import hashlib
import os
import threading
import time

import pytest

from tweetcheck import fetch
from tweetcheck.errors import ConfigError, CorruptFixture, FixtureMiss, NetworkError, TweetCheckError
from tweetcheck.fetch import (
    Fetcher,
    FetchMode,
    FetchRequest,
    FetchResponse,
    FixtureStore,
    fixture_key,
)

from conftest import StubPage, StubTransport, record_pages, refusing_transport


class TestFixtureKey:
    def test_normalization_and_hash_match_hand_computation(self):
        # normalized by hand: scheme/host lowercased, trailing slash stripped
        expected = hashlib.sha256(b"GET https://www.snopes.com/search/x").hexdigest()
        assert fixture_key(FetchRequest(url="https://www.Snopes.com/search/x/")) == expected
        assert fixture_key(FetchRequest(url="https://www.snopes.com/search/x")) == expected

    def test_query_string_is_significant(self):
        a = fixture_key(FetchRequest(url="https://host.example/search?q=1"))
        b = fixture_key(FetchRequest(url="https://host.example/search?q=2"))
        assert a != b

    def test_path_case_is_significant(self):
        a = fixture_key(FetchRequest(url="https://host.example/A"))
        b = fixture_key(FetchRequest(url="https://host.example/a"))
        assert a != b


class TestFetchRequest:
    # An empty host is refused too, so no fixture key is built from a URL
    # like http:////x/y, which urlunsplit normalizes differently across
    # Python versions.
    @pytest.mark.parametrize("url", ["/search/x", "http:////x/y", "http:///x"])
    def test_relative_url_rejected(self, url):
        with pytest.raises(ValueError, match="url must be absolute"):
            FetchRequest(url=url)

    # A netloc with no host in it names no one to ask either.
    @pytest.mark.parametrize("url", ["http://@/x", "http://:80/x"])
    def test_url_without_a_host_rejected(self, url):
        with pytest.raises(ValueError, match="url must be absolute"):
            FetchRequest(url=url)

    @pytest.mark.parametrize("url", ["ftp://www.snopes.com/x", "ws://host.example/x", "git+https://host.example/x"])
    def test_url_that_is_not_http_rejected(self, url):
        with pytest.raises(ValueError, match="url must be http or https"):
            FetchRequest(url=url)

    def test_scheme_is_case_insensitive(self):
        assert FetchRequest(url="HTTPS://host.example/x").url == "HTTPS://host.example/x"

    def test_url_that_is_not_utf8_rejected(self):
        with pytest.raises(ValueError, match="url is not UTF-8 text"):
            FetchRequest(url="https://www.snopes.com/\udcff")

    # Userinfo would be sent as an Authorization header, to whatever host a page names.
    @pytest.mark.parametrize("url", ["https://u:p@www.snopes.com/x", "http://evil@host.example/", "http://@host.example/"])
    def test_url_with_userinfo_rejected(self, url):
        with pytest.raises(ValueError) as caught:
            FetchRequest(url=url)
        assert str(caught.value) == f"url must not carry userinfo: {url!r}"

    @pytest.mark.parametrize("url", ["https://www.snopes.com:80x/x", "http://host.example:99999/", "http://host.example:-1/"])
    def test_url_with_a_malformed_port_rejected(self, url):
        with pytest.raises(ValueError, match="Port"):
            FetchRequest(url=url)


class TestFetchResponse:
    @pytest.mark.parametrize("status", [99, 600, 0])
    def test_status_range_enforced(self, status):
        with pytest.raises(ValueError):
            FetchResponse(status=status, final_url="https://x/", body=b"")


class TestRecordReplay:
    URL = "https://host.example/page?x=1"

    def _record(self, tmp_path, body: bytes, status=200):
        pages = {
            self.URL: StubPage(
                body, status=status, content_type="text/html; charset=utf-8",
                final_url="https://host.example/final",
            )
        }
        return record_pages(tmp_path / "fx", pages)

    def test_round_trip_is_byte_identical(self, tmp_path):
        body = b"\x00\xff binary \r\n\r\n bytes \x80"
        store = self._record(tmp_path, body)
        replayed = Fetcher(FetchMode.REPLAY, store, transport=refusing_transport).fetch(
            FetchRequest(url=self.URL)
        )
        assert replayed.body == body
        assert replayed.status == 200
        assert replayed.final_url == "https://host.example/final"
        assert replayed.content_type == "text/html; charset=utf-8"

    def test_replay_of_unrecorded_url_misses(self, tmp_path):
        store = self._record(tmp_path, b"x")
        fetcher = Fetcher(FetchMode.REPLAY, store, transport=refusing_transport)
        with pytest.raises(FixtureMiss):
            fetcher.fetch(FetchRequest(url="https://host.example/other"))

    def test_replay_opens_no_network_connection(self, tmp_path):
        # refusing_transport raises AssertionError if ever touched
        store = self._record(tmp_path, b"payload")
        fetcher = Fetcher(FetchMode.REPLAY, store, transport=refusing_transport)
        for _ in range(3):
            assert fetcher.fetch(FetchRequest(url=self.URL)).body == b"payload"

    def test_key_normalization_applies_to_replay_lookups(self, tmp_path):
        store = self._record(tmp_path, b"payload")
        fetcher = Fetcher(FetchMode.REPLAY, store, transport=refusing_transport)
        assert fetcher.fetch(FetchRequest(url="https://HOST.example/page?x=1")).body == b"payload"

    def test_non_2xx_is_recorded_then_a_network_error_in_both_modes(self, tmp_path):
        store = FixtureStore(tmp_path / "fx")
        transport = StubTransport({self.URL: StubPage(b"not found", status=404)})
        request = FetchRequest(url=self.URL)
        for fetcher in (
            Fetcher(FetchMode.RECORD, store, delay_ms=0, transport=transport),
            Fetcher(FetchMode.REPLAY, store, transport=refusing_transport),
        ):
            with pytest.raises(NetworkError) as exc:
                fetcher.fetch(request)
            assert str(exc.value) == f"HTTP 404 for {self.URL}"
        recorded = store.load(fixture_key(request))
        assert (recorded.status, recorded.body) == (404, b"not found")

    def test_re_recording_is_idempotent(self, tmp_path):
        store = self._record(tmp_path, b"same bytes")
        key = fixture_key(FetchRequest(url=self.URL))
        first = store.path_for(key).read_bytes()
        self._record(tmp_path, b"same bytes")
        assert store.path_for(key).read_bytes() == first

    def test_record_mode_requires_store(self):
        with pytest.raises(ConfigError):
            Fetcher(FetchMode.RECORD)

    def test_live_fetch_computes_no_fixture_key(self, monkeypatch):
        def no_key(req):
            raise AssertionError("a live fetch needs no fixture key")

        monkeypatch.setattr("tweetcheck.fetch.fixture_key", no_key)
        fetcher = Fetcher(FetchMode.LIVE, delay_ms=0, transport=StubTransport({self.URL: StubPage(b"page")}))
        assert fetcher.fetch(FetchRequest(url=self.URL)).body == b"page"

    def test_network_error_propagates(self, tmp_path):
        fetcher = Fetcher(FetchMode.LIVE, transport=StubTransport({}))
        with pytest.raises(NetworkError):
            fetcher.fetch(FetchRequest(url="https://host.example/missing"))


class TestFixtureStoreFormat:
    def test_header_layout(self, tmp_path):
        store = FixtureStore(tmp_path)
        response = FetchResponse(
            status=200, final_url="https://a/b", body=b"HELLO", content_type="text/html"
        )
        path = store.save("k" * 64, response)
        raw = path.read_bytes()
        assert raw == b"200\nhttps://a/b\ntext/html\n5\n\nHELLO"

    def test_unwritable_fixture_is_an_error_naming_the_file(self, tmp_path):
        store = FixtureStore(tmp_path)
        path = store.path_for("k" * 64)
        path.mkdir()
        with pytest.raises(TweetCheckError) as exc:
            store.save("k" * 64, FetchResponse(status=200, final_url="https://a/", body=b"HELLO"))
        assert str(exc.value) == f"cannot write fixture {path}: Is a directory"
        assert isinstance(exc.value.__cause__, IsADirectoryError)
        assert [p.name for p in tmp_path.iterdir()] == [path.name]  # no temp file left behind

    @pytest.mark.parametrize("field", ["final_url", "content_type"])
    @pytest.mark.parametrize("brk", ["\r\n ", "\n", "\r"])
    def test_line_break_in_a_header_field_is_refused(self, tmp_path, field, brk):
        store = FixtureStore(tmp_path / "fx")
        response = FetchResponse(status=200, final_url="https://a/", body=b"HELLO", content_type="text/html")
        response = response.replace(**{field: getattr(response, field) + brk + "x"})
        path = store.path_for("k" * 64)
        with pytest.raises(TweetCheckError, match=f"^cannot write fixture {path}: line break in header field"):
            store.save("k" * 64, response)
        assert not store.root.exists()

    def test_truncated_file_reports_miss(self, tmp_path):
        store = FixtureStore(tmp_path)
        key = "k" * 64
        store.save(key, FetchResponse(status=200, final_url="https://a/", body=b"HELLO"))
        path = store.path_for(key)
        path.write_bytes(path.read_bytes()[:-2])
        with pytest.raises(FixtureMiss):
            store.load(key, "https://a/")

    def test_absent_file_is_a_plain_miss(self, tmp_path):
        with pytest.raises(FixtureMiss) as caught:
            FixtureStore(tmp_path).load("k" * 64, "https://a/")
        assert not isinstance(caught.value, CorruptFixture)
        assert str(caught.value) == f"no fixture {'k' * 64} for https://a/"

    def test_unreadable_file_is_reported_as_corrupt(self, tmp_path):
        store = FixtureStore(tmp_path)
        store.path_for("k" * 64).mkdir()
        with pytest.raises(CorruptFixture, match="unreadable: Is a directory"):
            store.load("k" * 64, "https://a/")

    @pytest.mark.parametrize(
        "raw, reason",
        [
            (b"200\nhttps://a/\ntext/html\n", "bad header: truncated"),
            (b"", "bad header: truncated"),
            (b"OK\nhttps://a/\ntext/html\n5\n\nHELLO", "bad header: invalid literal"),
            (b"200\nhttps://a/\ntext/html\nfive\n\nHELLO", "bad header: invalid literal"),
            (b"700\nhttps://a/\ntext/html\n5\n\nHELLO", "bad header: status out of range"),
            (b"200\nhttps://\xff/\ntext/html\n5\n\nHELLO", "bad header: 'utf-8' codec"),
            (b"200\nhttp://[::1\ntext/html\n5\n\nHELLO", "bad header: Invalid IPv6 URL"),
            (b"200\nhttps://a/\ntext/html\n5\nHELLO", "missing blank line after header"),
            (b"200\nhttps://a/\ntext/html\n5\n\nHELL", "length mismatch: header says 5 bytes, body has 4"),
            (b"200\nhttps://a/\ntext/html\n5\n\nHELLO!", "length mismatch: header says 5 bytes, body has 6"),
        ],
    )
    def test_corrupt_file_is_reported_as_corrupt(self, tmp_path, raw, reason):
        store = FixtureStore(tmp_path)
        key = "k" * 64
        store.path_for(key).write_bytes(raw)
        with pytest.raises(CorruptFixture) as caught:
            store.load(key, "https://a/")
        assert isinstance(caught.value, FixtureMiss)  # existing handlers still apply
        assert (caught.value.key, caught.value.url) == (key, "https://a/")
        assert caught.value.reason.startswith(reason)
        assert str(caught.value) == f"corrupt fixture {key} for https://a/: {caught.value.reason}"

    def test_a_fifo_in_a_fixtures_place_is_corrupt_and_does_not_block(self, tmp_path):
        store = FixtureStore(tmp_path)
        key = "k" * 64
        os.mkfifo(store.path_for(key))
        caught = []

        def load():
            try:
                store.load(key, "https://a/")
            except CorruptFixture as exc:
                caught.append(exc)

        loader = threading.Thread(target=load, daemon=True)  # a blocking open would never return
        loader.start()
        loader.join(timeout=10)
        assert not loader.is_alive()
        assert [exc.reason for exc in caught] == ["not a regular file"]

    def test_a_body_over_the_cap_is_corrupt(self, tmp_path, monkeypatch):
        monkeypatch.setattr(fetch, "MAX_BODY_BYTES", 4)
        store = FixtureStore(tmp_path)
        key = "k" * 64
        store.path_for(key).write_bytes(b"200\nhttps://a/\ntext/html\n5\n\nHELLO")
        with pytest.raises(CorruptFixture) as caught:
            store.load(key, "https://a/")
        assert caught.value.reason == "body exceeds the 4-byte cap"
        store.path_for(key).write_bytes(b"200\nhttps://a/\ntext/html\n4\n\nHELL")
        assert store.load(key, "https://a/").body == b"HELL"  # at the cap


class _TimedTransport:
    def __init__(self):
        self.times: list[float] = []

    def __call__(self, req):
        self.times.append(time.monotonic())
        return FetchResponse(status=200, final_url=req.url, body=b"ok")


class TestPoliteness:
    DELAY_MS = 120

    def test_same_host_requests_are_separated(self):
        transport = _TimedTransport()
        fetcher = Fetcher(FetchMode.LIVE, delay_ms=self.DELAY_MS, transport=transport)
        fetcher.fetch(FetchRequest(url="https://polite.example/a"))
        fetcher.fetch(FetchRequest(url="https://polite.example/b"))
        assert transport.times[1] - transport.times[0] >= self.DELAY_MS / 1000 - 0.005

    def test_enforced_globally_across_fetchers(self):
        transport = _TimedTransport()
        one = Fetcher(FetchMode.LIVE, delay_ms=self.DELAY_MS, transport=transport)
        two = Fetcher(FetchMode.LIVE, delay_ms=self.DELAY_MS, transport=transport)
        one.fetch(FetchRequest(url="https://shared.example/a"))
        two.fetch(FetchRequest(url="https://shared.example/b"))
        assert transport.times[1] - transport.times[0] >= self.DELAY_MS / 1000 - 0.005

    def test_distinct_hosts_not_delayed(self):
        transport = _TimedTransport()
        fetcher = Fetcher(FetchMode.LIVE, delay_ms=500, transport=transport)
        start = time.monotonic()
        fetcher.fetch(FetchRequest(url="https://one.example/"))
        fetcher.fetch(FetchRequest(url="https://two.example/"))
        assert time.monotonic() - start < 0.4

    def test_concurrent_callers_are_spaced(self):
        transport = _TimedTransport()
        fetcher = Fetcher(FetchMode.LIVE, delay_ms=60, transport=transport)

        def fire():
            fetcher.fetch(FetchRequest(url="https://swarm.example/"))

        threads = [threading.Thread(target=fire) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        times = sorted(transport.times)
        assert times[1] - times[0] >= 0.055
        assert times[2] - times[1] >= 0.055

    def test_callers_of_two_fetchers_racing_onto_a_new_host_are_spaced(self):
        # All four reach the host at once, before it has an entry, so the
        # entry each one waits on must be the same.
        transport = _TimedTransport()
        fetchers = [Fetcher(FetchMode.LIVE, delay_ms=60, transport=transport) for _ in range(2)]
        barrier = threading.Barrier(4)

        def fire(fetcher):
            barrier.wait()
            fetcher.fetch(FetchRequest(url="https://fresh.example/"))

        threads = [threading.Thread(target=fire, args=(fetchers[i % 2],)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        times = sorted(transport.times)
        assert len(times) == 4
        for earlier, later in zip(times, times[1:]):
            assert later - earlier >= 0.055
