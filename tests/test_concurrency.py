"""Host-concurrent fetching: results stay deterministic and requests stay polite."""

import random
import sys
import threading
import time
from collections import defaultdict
from urllib.parse import urlsplit

import pytest

from tweetcheck.cli import main
from tweetcheck.config import AppConfig
from tweetcheck.dataset import serialize_dataset
from tweetcheck.evaluation import EVAL_SOURCES
from tweetcheck.fetch import (
    MAX_HOST_WORKERS,
    Fetcher,
    FetchMode,
    FetchRequest,
    FetchResponse,
    FixtureStore,
)
from tweetcheck.model import SourceId, TweetClaim
from tweetcheck.pipeline import evidence_lines, verify_claim

from conftest import (
    PANDEMIC_BODY,
    StubPage,
    StubTransport,
    engine_query_url,
    eval_records,
    mixed_pandemic_pages,
    pandemic_pages,
    record_pages,
    refusing_transport,
    replay_fetcher,
)


def _host(url: str) -> str:
    return urlsplit(url).hostname or ""


class JitterTransport:
    """Wraps a transport; sleeps a seeded 0-20 ms per request first."""

    def __init__(self, inner, seed):
        self.inner = inner
        self.seed = seed

    def __call__(self, req: FetchRequest) -> FetchResponse:
        time.sleep(random.Random(f"{self.seed}:{req.url}").uniform(0, 0.020))
        return self.inner(req)


class TimingTransport:
    """Wraps a transport; sleeps a fixed time and records (host, start, end)."""

    def __init__(self, inner, sleep_s):
        self.inner = inner
        self.sleep_s = sleep_s
        self.calls: list[tuple[str, float, float]] = []
        self.lock = threading.Lock()

    def __call__(self, req: FetchRequest) -> FetchResponse:
        start = time.monotonic()
        time.sleep(self.sleep_s)
        response = self.inner(req)
        with self.lock:
            self.calls.append((_host(req.url), start, time.monotonic()))
        return response


def summary(run):
    return (
        [line for item in run.verdict.evidence for line in evidence_lines(item)],
        [(e.source, e.url, e.rank, e.rating, e.matched_text) for e in run.verdict.evidence],
        list(run.engine_errors.items()),
        run.verdict.outcome,
        run.verdict.conflict,
    )


class TestRunPerHost:
    def _fetcher(self, mode=FetchMode.LIVE):
        return Fetcher(mode, FixtureStore("never-written"), delay_ms=0, transport=refusing_transport)

    def test_results_in_input_order(self):
        jobs = [
            ("https://a.example/1", lambda: 1),
            ("https://b.example/1", lambda: 2),
            ("https://a.example/2", lambda: 3),
            ("https://c.example/1", lambda: 4),
        ]
        assert self._fetcher().run_per_host(jobs) == [1, 2, 3, 4]

    @pytest.mark.parametrize("mode", [FetchMode.LIVE, FetchMode.REPLAY])
    def test_an_exception_propagates(self, mode):
        ran = []

        def boom():
            raise ValueError("boom")

        jobs = [
            ("https://a.example/1", boom),
            ("https://a.example/2", lambda: ran.append("a2")),
            ("https://b.example/1", lambda: ran.append("b1")),
        ]
        with pytest.raises(ValueError, match="boom"):
            self._fetcher(mode).run_per_host(jobs)
        assert ran == ([] if mode is FetchMode.REPLAY else ["b1"])  # a's later job never runs; b's does live

    def test_same_host_serial_in_order_and_hosts_bounded(self):
        lock = threading.Lock()
        active: dict[str, int] = defaultdict(int)
        order: dict[str, list[int]] = defaultdict(list)
        peak = {"hosts": 0, "same_host": 0}

        def job(host, index):
            def run():
                with lock:
                    active[host] += 1
                    order[host].append(index)
                    peak["hosts"] = max(peak["hosts"], sum(1 for n in active.values() if n))
                    peak["same_host"] = max(peak["same_host"], active[host])
                time.sleep(0.005)
                with lock:
                    active[host] -= 1
                return index
            return run

        hosts = [f"h{n}.example" for n in range(MAX_HOST_WORKERS + 2)]
        jobs = [(f"https://{host}/{i}", job(host, i)) for i in range(4) for host in hosts]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            outcomes = self._fetcher().run_per_host(jobs)
        finally:
            sys.setswitchinterval(previous)
        assert outcomes == [i for i in range(4) for _ in hosts]
        assert all(order[host] == [0, 1, 2, 3] for host in hosts)
        assert peak["same_host"] == 1
        assert 1 < peak["hosts"] <= MAX_HOST_WORKERS

    def test_replay_runs_inline(self):
        caller = threading.get_ident()
        jobs = [(f"https://h{n}.example/", threading.get_ident) for n in range(3)]
        assert self._fetcher(FetchMode.REPLAY).run_per_host(jobs) == [caller] * 3


class TestVerifyConcurrency:
    def test_live_runs_match_replay_under_jitter(self, tmp_path):
        pages = mixed_pandemic_pages()
        store = record_pages(tmp_path / "fx", pages)
        config = AppConfig(mode=FetchMode.REPLAY, fixtures_dir=store.root)
        claim = TweetClaim(body=PANDEMIC_BODY)
        expected = summary(verify_claim(claim, config, replay_fetcher(store)))
        assert expected[2] and expected[0]  # both errors and evidence are exercised

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for seed in range(50):
                fetcher = Fetcher(
                    FetchMode.LIVE, delay_ms=2, transport=JitterTransport(StubTransport(pages), seed)
                )
                assert summary(verify_claim(claim, config, fetcher)) == expected, seed
        finally:
            sys.setswitchinterval(previous)

    def test_same_host_spaced_and_hosts_overlap(self):
        delay_ms = 40
        transport = TimingTransport(StubTransport(pandemic_pages()), sleep_s=0.015)
        fetcher = Fetcher(FetchMode.LIVE, delay_ms=delay_ms, transport=transport)
        config = AppConfig(mode=FetchMode.LIVE)
        verify_claim(TweetClaim(body=PANDEMIC_BODY), config, fetcher)

        starts: dict[str, list[float]] = defaultdict(list)
        for host, start, _ in transport.calls:
            starts[host].append(start)
        assert any(len(times) > 1 for times in starts.values())
        for host, times in starts.items():
            times.sort()
            gaps = [b - a for a, b in zip(times, times[1:])]
            # the transport stamps its start a moment after the gateway's clock does
            assert all(gap >= delay_ms / 1000 - 0.001 for gap in gaps), (host, gaps)
        overlapping = {
            (a[0], b[0])
            for a in transport.calls
            for b in transport.calls
            if a[0] != b[0] and a[1] < b[2] and b[1] < a[2]
        }
        assert overlapping


class TestRecordConcurrency:
    def _pages(self) -> dict[str, StubPage]:
        empty = StubPage(b"<html><body></body></html>")
        pages = {
            engine_query_url(source, record.tweet_body): empty
            for source in EVAL_SOURCES
            for record in eval_records()
        }
        # failures spread over engines and records, so their order shows
        failing = [
            (SourceId.SNOPES_SEARCH, 1),
            (SourceId.REUTERS_SEARCH, 0),
            (SourceId.REUTERS_SEARCH, 2),
            (SourceId.WEB_SEARCH, 2),
            (SourceId.WEB_SEARCH_SITE_SNOPES, 0),
        ]
        for source, index in failing:
            del pages[engine_query_url(source, eval_records()[index].tweet_body)]
        return pages

    def _record(self, tmp_path, monkeypatch, capsys, fixtures, engines, seed):
        transport = JitterTransport(StubTransport(self._pages()), seed)
        monkeypatch.setattr(Fetcher, "_requests_transport", lambda self, req: transport(req))
        dataset = tmp_path / "corpus.tsv"
        dataset.write_text(serialize_dataset(eval_records()), encoding="utf-8")
        config = tmp_path / "tweetcheck.conf"
        config.write_text("politeness_delay_ms=1\n", encoding="utf-8")
        argv = ["record", "--dataset", str(dataset), "--fixtures", str(fixtures), "--config", str(config)]
        for engine in engines:
            argv += ["--engine", engine]
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, [
            line for line in captured.err.splitlines() if line.startswith("tweetcheck: record")
        ]

    @pytest.mark.parametrize("seed", range(3))
    def test_concurrent_record_matches_one_engine_at_a_time(self, tmp_path, monkeypatch, capsys, seed):
        names = [source.value for source in EVAL_SOURCES]
        code, out, failures = self._record(
            tmp_path, monkeypatch, capsys, tmp_path / "together", names, seed
        )
        assert code == 69
        assert out == "recorded 3 record(s) x 4 engine(s), 5 failure(s)\n"
        assert [line.split(" failed:")[0] for line in failures] == [
            "tweetcheck: record e2 via snopes",
            "tweetcheck: record e1 via reuters",
            "tweetcheck: record e3 via reuters",
            "tweetcheck: record e3 via web",
            "tweetcheck: record e1 via web-snopes",
        ]

        serial_failures = []
        for name in names:
            _, _, lines = self._record(
                tmp_path, monkeypatch, capsys, tmp_path / "one-by-one", [name], seed
            )
            serial_failures += lines
        assert failures == serial_failures
        together = sorted(p.name for p in (tmp_path / "together").iterdir())
        one_by_one = sorted(p.name for p in (tmp_path / "one-by-one").iterdir())
        assert together == one_by_one
        assert len(together) == 4 * 3 - 5
