import contextlib
import io
import os
import subprocess
import sys
import tempfile
import unicodedata
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import tweetcheck
from tweetcheck.cli import main, printable
from tweetcheck.dataset import GroundTruthRecord, serialize_dataset
from tweetcheck.adapters import ENGINES
from tweetcheck.errors import (
    CaptchaDetected,
    ConfigError,
    CorruptFixture,
    DatasetError,
    FixtureMiss,
    FormatError,
    NetworkError,
    ParseError,
    TweetCheckError,
    ValidationError,
)
from tweetcheck.evaluation import EVAL_SOURCES, evaluate_engine
from tweetcheck.fetch import MAX_BODY_BYTES, Fetcher, FetchRequest, FixtureStore, fixture_key

from conftest import (
    JOBS_BODY,
    PANDEMIC_BODY,
    REUTERS_PANDEMIC_ARTICLE,
    SNOPES_PANDEMIC_ARTICLE,
    StubPage,
    StubTransport,
    engine_query_url,
    eval_pages,
    eval_records,
    mixed_pandemic_pages,
    page,
    pandemic_pages,
    record_pages,
    replay_fetcher,
)
from tweetcheck.model import SourceId
from test_pipeline import _ARTICLES, _RATINGS, _RESULTS, _fixtures, put_fixture


def write_dataset(tmp_path: Path) -> Path:
    path = tmp_path / "corpus.tsv"
    path.write_text(serialize_dataset(eval_records()), encoding="utf-8")
    return path


def gibberish_pages() -> dict[str, StubPage]:
    body = "qzv wxm glorp fnord nothing will ever match this"
    return {
        engine_query_url(SourceId.SNOPES_SEARCH, body): StubPage(page("snopes_serp_empty.html")),
        engine_query_url(SourceId.REUTERS_SEARCH, body): StubPage(page("reuters_serp_empty.html")),
        engine_query_url(SourceId.WEB_SEARCH, body): StubPage(page("google_serp_empty.html")),
        engine_query_url(SourceId.WEB_SEARCH_SITE_SNOPES, body): StubPage(page("google_serp_empty.html")),
        engine_query_url(SourceId.POLITWOOPS, body): StubPage(page("politwoops_empty.html")),
    }


GIBBERISH_BODY = "qzv wxm glorp fnord nothing will ever match this"

#: Every query setting a configuration file could once set, with a value it accepted.
FORMER_QUERY_KEYS = [
    (f"query.{source.value}.{setting}", value)
    for source in SourceId
    for setting, value in [
        ("max_chars", "100"), ("encoding", "plus"), ("truncation", "char-prefix"), ("quote_phrase", "false"),
    ]
]

#: Every key that once named a selector file.
FORMER_SELECTOR_KEYS = [
    *(f"selectors.{source.value}" for source in SourceId),
    "rating-selectors.snopes",
    "rating-selectors.reuters",
]


class TestVerify:
    def test_pandemic_claim_is_fabricated(self, pandemic_store, capsys):
        code = main([
            "verify", PANDEMIC_BODY,
            "--engine", "snopes", "--engine", "reuters",
            "--mode", "replay", "--fixtures", str(pandemic_store.root),
            "--max-articles", "1",
        ])
        out = capsys.readouterr().out
        assert code == 1
        assert out == (
            f"Article found at URL: {SNOPES_PANDEMIC_ARTICLE}\n"
            "Truth rating: False\n"
            f"Article found at URL: {REUTERS_PANDEMIC_ARTICLE}\n"
            "Truth rating: False\n"
            "Verdict: Fabricated\n"
        )

    def test_default_article_budget_includes_unrated_articles(self, pandemic_store, capsys):
        code = main([
            "verify", PANDEMIC_BODY,
            "--mode", "replay", "--fixtures", str(pandemic_store.root),
        ])
        out = capsys.readouterr().out
        assert code == 1
        assert "Truth rating: UNKNOWN (missing)" in out
        assert out.endswith("Verdict: Fabricated\n")

    def test_replay_output_is_deterministic(self, pandemic_store, capsys):
        args = [
            "verify", PANDEMIC_BODY,
            "--mode", "replay", "--fixtures", str(pandemic_store.root),
        ]
        main(args)
        first = capsys.readouterr().out
        main(args)
        second = capsys.readouterr().out
        assert first == second

    def test_jobs_claim_confirmed_on_politwoops(self, jobs_store, capsys):
        code = main([
            "verify", JOBS_BODY,
            "--engine", "politwoops",
            "--mode", "replay", "--fixtures", str(jobs_store.root),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert out == (
            "That tweet was successfully queried on Politwoops\n"
            "Verdict: Authentic\n"
        )

    def test_gibberish_claim_is_unverifiable(self, tmp_path, capsys):
        store = record_pages(tmp_path / "fx", gibberish_pages())
        code = main([
            "verify", GIBBERISH_BODY,
            "--mode", "replay", "--fixtures", str(store.root),
        ])
        out = capsys.readouterr().out
        assert code == 2
        assert out == "Verdict: Unverifiable\n"

    def test_conflicting_evidence_flagged(self, tmp_path, capsys):
        # politwoops confirms the tweet while a fact-check rates it False
        pages = dict(gibberish_pages())
        politwoops_hit = (
            '<html><body><div class="results"><div class="tweet">'
            '<span class="screen-name">@Someone</span>'
            f'<div class="tweet-content"><p>{GIBBERISH_BODY}</p></div>'
            '<a href="/politwoops/tweet/42">link</a>'
            "</div></div></body></html>"
        ).encode()
        snopes_serp = (
            '<html><body><div class="search-results">'
            '<a href="https://www.snopes.com/fact-check/gibberish-claim/">r</a>'
            "</div></body></html>"
        ).encode()
        article = page("snopes_article_pandemic.html")
        pages[engine_query_url(SourceId.POLITWOOPS, GIBBERISH_BODY)] = StubPage(politwoops_hit)
        pages[engine_query_url(SourceId.SNOPES_SEARCH, GIBBERISH_BODY)] = StubPage(snopes_serp)
        pages["https://www.snopes.com/fact-check/gibberish-claim/"] = StubPage(article)
        store = record_pages(tmp_path / "fx", pages)
        code = main([
            "verify", GIBBERISH_BODY,
            "--mode", "replay", "--fixtures", str(store.root),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "Verdict: Authentic" in out
        assert "Conflicting evidence detected." in out

    def test_empty_body_is_usage_error(self, capsys):
        assert main(["verify", "   "]) == 64

    def test_body_that_is_not_utf8_is_usage_error(self, tmp_path, capsys):
        # Python hands over argument bytes that are not UTF-8 as lone surrogates.
        code = main(["verify", "abc \udcff def", "--mode", "replay", "--fixtures", str(tmp_path / "fx")])
        assert code == 64
        assert capsys.readouterr().err == "tweetcheck: claim body is not UTF-8 text\n"

    def test_unknown_engine_is_usage_error(self, capsys):
        assert main(["verify", "some body", "--engine", "bing"]) == 64

    def test_all_engines_failing_is_operational_error(self, tmp_path, capsys):
        empty_store = record_pages(tmp_path / "fx", {})
        code = main([
            "verify", "anything at all",
            "--mode", "replay", "--fixtures", str(empty_store.root),
        ])
        assert code == 69

    def test_engines_run_once_each_in_engine_order(self, tmp_path, capsys):
        empty_store = record_pages(tmp_path / "fx", {})
        code = main([
            "verify", PANDEMIC_BODY, "--engine", "web", "--engine", "snopes", "--engine", "web",
            "--mode", "replay", "--fixtures", str(empty_store.root),
        ])
        assert code == 69
        lines = _tweetcheck_lines(capsys.readouterr().err)
        assert len(lines) == 3
        assert lines[0].startswith("tweetcheck: snopes: no fixture ")
        assert lines[1].startswith("tweetcheck: web: no fixture ")
        assert lines[2] == "tweetcheck: every engine failed; cannot verify"

    def test_replay_without_fixtures_dir_is_usage_error(self, capsys):
        assert main(["verify", "body", "--mode", "replay"]) == 64

    @pytest.mark.parametrize(
        "line, flag, message",
        [
            ("", ["--max-articles", "0"], "--max-articles must be greater than 0, got 0"),
            ("verify.max_articles = 0", [], "verify.max_articles must be greater than 0, got 0"),
            ("timeout_s = 0", [], "timeout_s must be greater than 0, got 0.0"),
            ("timeout_s = abc", [], "timeout_s expects a number, got 'abc'"),
            # The values below crashed a live run: OverflowError from the socket
            # layer or from time.sleep, ValueError or KeyError from formatting
            # the endpoint, UnicodeEncodeError from sending the header.
            ("timeout_s = inf", [], "timeout_s must be at most 86400, got inf"),
            ("timeout_s = 1e12", [], "timeout_s must be at most 86400, got 1000000000000.0"),
            ("politeness_delay_ms = 10000000000000", [],
             "politeness_delay_ms must be at most 86400000, got 10000000000000"),
            ("politeness_delay_ms = -5", [], "politeness_delay_ms must be greater than -1, got -5"),
            ("endpoint.snopes = notaurl/{query}", [],
             "endpoint.snopes must be an http or https URL whose only field is {query}, got 'notaurl/{query}'"),
            ("endpoint.snopes = https://x.example/search", [],
             "endpoint.snopes must be an http or https URL whose only field is {query}, got 'https://x.example/search'"),
            ("endpoint.snopes = https://x.example/{q}", [],
             "endpoint.snopes must be an http or https URL whose only field is {query}, got 'https://x.example/{q}'"),
            ("endpoint.snopes = https://x.example/{query", [],
             "endpoint.snopes must be an http or https URL whose only field is {query}, got 'https://x.example/{query'"),
            ("user_agent = tc \u2713", [], "user_agent must be printable ASCII, got 'tc \u2713'"),
            # Query shapes are per-engine constants: a former query setting is an
            # unknown key, even with the value its engine uses.
            *[
                (f"{key} = {value}", ["--engine", "web"], f"unknown configuration key: {key!r}")
                for key, value in FORMER_QUERY_KEYS
            ],
        ],
        ids=[
            "flag", "file", "timeout", "timeout-not-a-number", "timeout-inf", "timeout-huge", "delay-huge",
            "delay-negative",
            "endpoint-not-a-url", "endpoint-no-field", "endpoint-other-field", "endpoint-unbalanced", "user-agent-not-ascii",
            *[key for key, _ in FORMER_QUERY_KEYS],
        ],
    )
    def test_out_of_range_value_is_usage_error(self, tmp_path, capsys, monkeypatch, line, flag, message):
        monkeypatch.setattr(
            Fetcher,
            "_requests_transport",
            lambda self, req: (_ for _ in ()).throw(AssertionError("network touched")),
        )
        config = tmp_path / "tweetcheck.conf"
        config.write_text(line + "\n", encoding="utf-8")
        code = main(["verify", PANDEMIC_BODY, "--mode", "live", "--config", str(config), *flag])
        captured = capsys.readouterr()
        assert code == 64
        assert captured.out == ""
        assert captured.err == f"tweetcheck: {message}\n"


class TestEngineFailures:
    """A failed engine query is worded in one place, and each command prints it once."""

    # how the engines mixed_pandemic_pages fails are described
    WORDING = {
        SourceId.WEB_SEARCH: "bot challenge: {url}: bot challenge page served",
        SourceId.REUTERS_SEARCH: "unparseable page: {url}: not an HTML page (application/json)",
    }

    def test_verify_prints_one_stderr_line_per_failed_engine(self, tmp_path):
        store = record_pages(tmp_path / "fx", mixed_pandemic_pages())
        # a fresh interpreter, so that log records reach stderr as they do outside the tests
        verify = subprocess.run(
            [sys.executable, "-m", "tweetcheck.cli", "verify", PANDEMIC_BODY,
             "--mode", "replay", "--fixtures", str(store.root)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(Path(tweetcheck.__file__).resolve().parents[1])},
            timeout=60,
        )
        assert verify.returncode == 1, verify.stderr
        for source, wording in self.WORDING.items():
            url = engine_query_url(source, PANDEMIC_BODY)
            assert [line for line in verify.stderr.splitlines() if url in line] == [
                f"tweetcheck: {source.value}: {wording.format(url=url)}"
            ]

    @pytest.mark.parametrize("source", list(WORDING))
    def test_verify_eval_and_record_describe_a_failure_alike(
        self, tmp_path, monkeypatch, capsys, source
    ):
        pages = mixed_pandemic_pages()
        described = self.WORDING[source].format(url=engine_query_url(source, PANDEMIC_BODY))
        store = record_pages(tmp_path / "fx", pages)

        main(["verify", PANDEMIC_BODY, "--mode", "replay", "--fixtures", str(store.root)])
        verify_lines = capsys.readouterr().err.splitlines()
        assert f"tweetcheck: {source.value}: {described}" in verify_lines

        record = GroundTruthRecord(
            id="p1", tweet_body=PANDEMIC_BODY, authentic=False,
            snopes_url=SNOPES_PANDEMIC_ARTICLE, reuters_url=REUTERS_PANDEMIC_ARTICLE,
        )
        report = evaluate_engine(ENGINES[source], [record], replay_fetcher(store))
        assert report.outcomes[0].error == described
        dataset = tmp_path / "corpus.tsv"
        dataset.write_text(serialize_dataset([record]), encoding="utf-8")
        assert main([
            "eval", "--dataset", str(dataset), "--engine", source.value,
            "--mode", "replay", "--fixtures", str(store.root),
        ]) == 0
        eval_lines = capsys.readouterr().err.splitlines()

        _stub_network(monkeypatch, pages)
        config = _quiet_config(tmp_path)
        main([
            "record", "--dataset", str(dataset), "--engine", source.value,
            "--fixtures", str(tmp_path / "recorded"), "--config", str(config),
        ])
        record_lines = capsys.readouterr().err.splitlines()
        assert record_lines == [f"tweetcheck: record p1 via {source.value} failed: {described}"]
        assert eval_lines == record_lines


class TestEval:
    def test_table_output(self, eval_store, tmp_path, capsys):
        dataset = write_dataset(tmp_path)
        code = main([
            "eval", "--dataset", str(dataset), "--engine", "snopes",
            "--mode", "replay", "--fixtures", str(eval_store.root),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "Snopes built-in search" in out
        assert "0.5000" in out and "0.3333" in out

    def test_machine_output(self, eval_store, tmp_path, capsys):
        dataset = write_dataset(tmp_path)
        code = main([
            "eval", "--dataset", str(dataset), "--engine", "snopes",
            "--format", "machine",
            "--mode", "replay", "--fixtures", str(eval_store.root),
        ])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0
        assert lines[0] == "e1\tsnopes\t1\t1.0000\t1"
        assert lines[-1] == "#SUMMARY\tsnopes\t0.5000\t0.3333"

    def test_unknown_engine_is_usage_error(self, tmp_path, capsys):
        dataset = write_dataset(tmp_path)
        assert main(["eval", "--dataset", str(dataset), "--engine", "altavista"]) == 64

    def test_politwoops_engine_rejected(self, tmp_path, capsys):
        dataset = write_dataset(tmp_path)
        assert main(["eval", "--dataset", str(dataset), "--engine", "politwoops"]) == 64

    def test_missing_fixture_exits_66_with_url(self, tmp_path, capsys):
        dataset = write_dataset(tmp_path)
        pages = {k: v for k, v in eval_pages().items() if "alpha" in k}
        store = record_pages(tmp_path / "fx", pages)
        code = main([
            "eval", "--dataset", str(dataset), "--engine", "snopes",
            "--mode", "replay", "--fixtures", str(store.root),
        ])
        err = capsys.readouterr().err
        assert code == 66
        assert "snopes.com/search" in err
        assert err.splitlines() == [
            f"tweetcheck: record {r.id} via snopes failed: no fixture {fixture_key(FetchRequest(url=url))} for {url}"
            for r in eval_records()[1:]
            for url in [engine_query_url(SourceId.SNOPES_SEARCH, r.tweet_body)]
        ]

    def test_missing_fixture_stderr_line(self, tmp_path, capsys):
        dataset = write_dataset(tmp_path)
        pages = {k: v for k, v in eval_pages().items() if "beta" not in k}
        store = record_pages(tmp_path / "fx", pages)
        code = main([
            "eval", "--dataset", str(dataset), "--engine", "snopes",
            "--mode", "replay", "--fixtures", str(store.root),
        ])
        beta = engine_query_url(SourceId.SNOPES_SEARCH, eval_records()[1].tweet_body)
        key = fixture_key(FetchRequest(url=beta))
        captured = capsys.readouterr()
        assert code == 66
        assert captured.out == ""
        assert captured.err == f"tweetcheck: record e2 via snopes failed: no fixture {key} for {beta}\n"

    def test_corrupt_fixture_exits_66_named_corrupt(self, tmp_path, capsys):
        dataset = write_dataset(tmp_path)
        store = record_pages(tmp_path / "fx", eval_pages())
        beta = engine_query_url(SourceId.SNOPES_SEARCH, eval_records()[1].tweet_body)
        path = store.path_for(fixture_key(FetchRequest(url=beta)))
        path.write_bytes(path.read_bytes()[:-1])
        code = main([
            "eval", "--dataset", str(dataset), "--engine", "snopes",
            "--mode", "replay", "--fixtures", str(store.root),
        ])
        assert code == 66
        assert capsys.readouterr().err.startswith(
            f"tweetcheck: record e2 via snopes failed: corrupt fixture {fixture_key(FetchRequest(url=beta))} "
            f"for {beta}: length mismatch: header says"
        )

    def test_fixture_miss_reported_with_every_other_failure(self, tmp_path, capsys):
        records = eval_records()
        second, third = (engine_query_url(SourceId.WEB_SEARCH, r.tweet_body) for r in records[1:])
        store = record_pages(tmp_path / "fx", {
            second: StubPage(page("google_serp_captcha.html")),
            third: StubPage(page("google_serp_empty.html")),
        })
        first = engine_query_url(SourceId.WEB_SEARCH, records[0].tweet_body)
        code = main([
            "eval", "--dataset", str(write_dataset(tmp_path)), "--engine", "web",
            "--mode", "replay", "--fixtures", str(store.root),
        ])
        captured = capsys.readouterr()
        assert code == 66
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"tweetcheck: record e1 via web failed: no fixture {fixture_key(FetchRequest(url=first))} for {first}",
            f"tweetcheck: record e2 via web failed: bot challenge: {second}: bot challenge page served",
            "tweetcheck: record e3 via web failed: skipped after a bot challenge",
        ]

    def test_failed_queries_printed_before_an_unchanged_table(self, tmp_path, capsys):
        records = eval_records()
        pages = {
            engine_query_url(SourceId.WEB_SEARCH, r.tweet_body): StubPage(page("google_serp_empty.html"))
            for r in records
        }
        first = engine_query_url(SourceId.WEB_SEARCH, records[0].tweet_body)
        pages[first] = StubPage(page("google_serp_captcha.html"))
        store = record_pages(tmp_path / "fx", pages)
        code = main([
            "eval", "--dataset", str(write_dataset(tmp_path)), "--engine", "web",
            "--mode", "replay", "--fixtures", str(store.root),
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out == "Search engine  MRR     Mean P@1\nWeb search     0.0000  0.0000\n"
        assert captured.err.splitlines() == [
            f"tweetcheck: record e1 via web failed: bot challenge: {first}: bot challenge page served",
            "tweetcheck: record e2 via web failed: skipped after a bot challenge",
            "tweetcheck: record e3 via web failed: skipped after a bot challenge",
        ]

    def test_corrupt_dataset_exits_65(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("one\tfield\n", encoding="utf-8")
        assert main(["eval", "--dataset", str(bad)]) == 65

    def test_empty_record_id_exits_65(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text(serialize_dataset(eval_records()).replace("e2\t", "\t"), encoding="utf-8")
        assert main(["eval", "--dataset", str(bad)]) == 65
        assert "field id: must be non-empty" in capsys.readouterr().err

    def test_missing_dataset_file_exits_65(self, tmp_path, capsys):
        assert main(["eval", "--dataset", str(tmp_path / "nope.tsv")]) == 65


@pytest.mark.parametrize("command", ["eval", "record"])
def test_empty_dataset_exits_65_before_any_query(tmp_path, capsys, monkeypatch, command):
    monkeypatch.setattr(
        Fetcher,
        "_requests_transport",
        lambda self, req: (_ for _ in ()).throw(AssertionError("network touched")),
    )
    empty = tmp_path / "empty.tsv"
    empty.write_text("# no records yet\n", encoding="utf-8")
    fixtures = tmp_path / "fx"
    code = main([command, "--dataset", str(empty), "--mode", "replay", "--fixtures", str(fixtures)])
    captured = capsys.readouterr()
    assert code == 65
    assert captured.out == ""
    assert captured.err == f"tweetcheck: dataset error: no records in {empty}\n"
    assert not fixtures.exists()


def _refuse_network(monkeypatch) -> None:
    monkeypatch.setattr(
        Fetcher,
        "_requests_transport",
        lambda self, req: (_ for _ in ()).throw(AssertionError("network touched")),
    )


def _stub_network(monkeypatch, pages: dict[str, StubPage]) -> StubTransport:
    transport = StubTransport(pages)
    monkeypatch.setattr(Fetcher, "_requests_transport", lambda self, req: transport(req))
    return transport


def _quiet_config(tmp_path: Path) -> Path:
    config = tmp_path / "tweetcheck.conf"
    config.write_text("politeness_delay_ms=0\n", encoding="utf-8")
    return config


def _tweetcheck_lines(err: str) -> list[str]:
    return [line for line in err.splitlines() if line.startswith("tweetcheck:")]


@pytest.mark.parametrize("command", ["validate-dataset", "eval", "record"])
def test_non_utf8_dataset_exits_65_naming_the_line(tmp_path, capsys, monkeypatch, command):
    _refuse_network(monkeypatch)
    dataset = tmp_path / "latin1.tsv"
    dataset.write_bytes(serialize_dataset(eval_records()).replace("e2\tfalse\t", "e2\tfalse\t\xe9 ").encode("latin-1"))
    fixtures = tmp_path / "fx"
    argv = [command, "--dataset", str(dataset)]
    if command != "validate-dataset":
        argv += ["--fixtures", str(fixtures)]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 65
    assert captured.out == ""
    assert captured.err == "tweetcheck: dataset error: line 3, field row: not UTF-8 text (invalid continuation byte)\n"
    assert not fixtures.exists()


@pytest.mark.parametrize("command", ["validate-dataset", "eval", "record"])
@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_unreadable_dataset_path_exits_65_with_one_line(tmp_path, capsys, monkeypatch, command, kind):
    _refuse_network(monkeypatch)
    dataset = tmp_path / "absent.tsv" if kind == "missing" else tmp_path
    with pytest.raises(OSError) as reason:
        dataset.read_bytes()
    fixtures = tmp_path / "fx"
    argv = [command, "--dataset", str(dataset)]
    if command != "validate-dataset":
        argv += ["--fixtures", str(fixtures)]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 65
    assert captured.out == ""
    assert captured.err == f"tweetcheck: dataset error: {reason.value}\n"
    assert captured.err.startswith(f"tweetcheck: dataset error: [Errno {reason.value.errno}] ")
    assert not fixtures.exists()


#: Each failure class's exit code, as the README's exit-code table gives it.
README_EXIT_CODES = {
    ConfigError: 64,
    DatasetError: 65, FormatError: 65, ValidationError: 65,
    FixtureMiss: 66, CorruptFixture: 66,
    NetworkError: 69, ParseError: 69, CaptchaDetected: 69, TweetCheckError: 69,
}


@pytest.mark.parametrize("error", README_EXIT_CODES, ids=lambda error: error.__name__)
def test_each_failure_class_carries_its_readme_exit_code(error):
    assert error.exit_code == README_EXIT_CODES[error]


def _overlong_body_dataset(tmp_path: Path) -> Path:
    records = eval_records()
    records[1] = records[1].replace(tweet_body="x" * 4001)
    path = tmp_path / "overlong.tsv"
    path.write_text(serialize_dataset(records), encoding="utf-8")
    return path


def test_validate_dataset_lists_an_overlong_body(tmp_path, capsys):
    code = main(["validate-dataset", "--dataset", str(_overlong_body_dataset(tmp_path))])
    captured = capsys.readouterr()
    assert code == 65
    assert captured.out == "record e2: tweet_body: claim body exceeds the 4000 character sanity bound\n"


@pytest.mark.parametrize("command", ["eval", "record"])
def test_overlong_body_exits_65_before_any_query(tmp_path, capsys, monkeypatch, command):
    _refuse_network(monkeypatch)
    fixtures = tmp_path / "fx"
    code = main([command, "--dataset", str(_overlong_body_dataset(tmp_path)), "--fixtures", str(fixtures)])
    captured = capsys.readouterr()
    assert code == 65
    assert captured.out == ""
    assert captured.err == (
        "tweetcheck: dataset error: record e2: tweet_body: claim body exceeds the 4000 character sanity bound\n"
    )
    assert not fixtures.exists()


@pytest.mark.parametrize("command", ["record", "verify", "scrape"])
@pytest.mark.parametrize("inside", [False, True])
def test_fixtures_path_through_a_file_exits_64_before_any_request(tmp_path, capsys, monkeypatch, command, inside):
    _refuse_network(monkeypatch)
    a_file = tmp_path / "fixtures.txt"
    a_file.write_text("not a directory\n", encoding="utf-8")
    fixtures = a_file / "fx" if inside else a_file
    argv = {
        "record": ["record", "--dataset", str(write_dataset(tmp_path))],
        "verify": ["verify", PANDEMIC_BODY, "--mode", "record"],
        "scrape": ["scrape", SNOPES_PANDEMIC_ARTICLE, "--mode", "record"],
    }[command]
    code = main([*argv, "--fixtures", str(fixtures)])
    captured = capsys.readouterr()
    assert code == 64
    assert captured.out == ""
    assert captured.err == f"tweetcheck: fixtures {fixtures}: {a_file} is not a directory\n"


@pytest.mark.parametrize("mode", ["replay", "live"])
def test_record_with_another_mode_exits_64_before_any_request(tmp_path, capsys, monkeypatch, mode):
    # record always records: a --mode naming another mode was once ignored,
    # and record went to the network
    _refuse_network(monkeypatch)
    fixtures = tmp_path / "fx"
    code = main(["record", "--dataset", str(write_dataset(tmp_path)), "--mode", mode, "--fixtures", str(fixtures)])
    captured = capsys.readouterr()
    assert code == 64
    assert captured.out == ""
    assert captured.err == f"tweetcheck: record cannot run with --mode {mode}; it always records\n"
    assert not fixtures.exists()


class TestRecord:
    def test_record_then_replay_eval_matches(self, tmp_path, monkeypatch, capsys):
        transport = _stub_network(monkeypatch, eval_pages())
        dataset = write_dataset(tmp_path)
        fixtures = tmp_path / "fx"
        config = _quiet_config(tmp_path)

        code = main([
            "record", "--dataset", str(dataset), "--engine", "snopes",
            "--fixtures", str(fixtures), "--config", str(config),
        ])
        assert code == 0
        assert transport.requested  # fetches actually happened
        recorded_out = capsys.readouterr().out
        assert "0 failure(s)" in recorded_out

        code = main([
            "eval", "--dataset", str(dataset), "--engine", "snopes",
            "--mode", "replay", "--fixtures", str(fixtures),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "0.5000" in out and "0.3333" in out

    def test_rerecording_is_idempotent(self, tmp_path, monkeypatch, capsys):
        _stub_network(monkeypatch, eval_pages())
        dataset = write_dataset(tmp_path)
        fixtures = tmp_path / "fx"
        config = _quiet_config(tmp_path)
        args = [
            "record", "--dataset", str(dataset), "--engine", "snopes",
            "--fixtures", str(fixtures), "--config", str(config),
        ]
        assert main(args) == 0
        snapshot = {p.name: p.read_bytes() for p in fixtures.iterdir()}
        assert main(args) == 0
        assert {p.name: p.read_bytes() for p in fixtures.iterdir()} == snapshot

    def test_network_failures_reported_with_partial_progress(self, tmp_path, monkeypatch, capsys):
        pages = {k: v for k, v in eval_pages().items() if "alpha" in k}
        _stub_network(monkeypatch, pages)
        dataset = write_dataset(tmp_path)
        fixtures = tmp_path / "fx"
        config = _quiet_config(tmp_path)
        code = main([
            "record", "--dataset", str(dataset), "--engine", "snopes",
            "--fixtures", str(fixtures), "--config", str(config),
        ])
        err = capsys.readouterr().err
        assert code == 69
        assert "e2" in err and "e3" in err
        assert len(list(fixtures.iterdir())) == 1  # e1's page was still recorded

    def test_bot_challenge_stops_the_engine(self, tmp_path, monkeypatch, capsys):
        records = eval_records()
        pages = {
            engine_query_url(SourceId.WEB_SEARCH, r.tweet_body): StubPage(page("google_serp_empty.html"))
            for r in records
        }
        first = engine_query_url(SourceId.WEB_SEARCH, records[0].tweet_body)
        pages[first] = StubPage(page("google_serp_captcha.html"))
        transport = _stub_network(monkeypatch, pages)
        code = main([
            "record", "--dataset", str(write_dataset(tmp_path)), "--engine", "web",
            "--fixtures", str(tmp_path / "fx"), "--config", str(_quiet_config(tmp_path)),
        ])
        captured = capsys.readouterr()
        assert code == 69
        assert transport.requested == [first]  # no further requests to the host
        assert captured.out == "recorded 3 record(s) x 1 engine(s), 3 failure(s)\n"
        failures = [line for line in captured.err.splitlines() if line.startswith("tweetcheck: record")]
        assert [line.split(" failed: ")[0] for line in failures] == [
            f"tweetcheck: record {r.id} via web" for r in records
        ]
        assert failures[0].startswith(f"tweetcheck: record e1 via web failed: bot challenge: {first}")
        assert failures[1:] == [
            f"tweetcheck: record {r.id} via web failed: skipped after a bot challenge" for r in records[1:]
        ]


    def test_records_without_a_relevant_url_are_recorded_not_failed(self, tmp_path, monkeypatch, capsys):
        records = eval_records()
        assert all(r.reuters_url is None for r in records)
        _stub_network(monkeypatch, {
            engine_query_url(SourceId.REUTERS_SEARCH, r.tweet_body): StubPage(page("reuters_serp_empty.html"))
            for r in records
        })
        fixtures = tmp_path / "fx"
        code = main([
            "record", "--dataset", str(write_dataset(tmp_path)), "--engine", "reuters",
            "--fixtures", str(fixtures), "--config", str(_quiet_config(tmp_path)),
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out == "recorded 3 record(s) x 1 engine(s), 0 failure(s)\n"
        assert captured.err == ""
        assert len(list(fixtures.iterdir())) == 3


class TestValidateDataset:
    def test_shipped_corpus_is_default_and_clean(self, capsys):
        code = main(["validate-dataset"])
        out = capsys.readouterr().out
        assert code == 0
        assert out == "dataset OK: 30 records (15 authentic, 15 fabricated)\n"

    def test_seeded_corruption_names_the_record(self, tmp_path, capsys):
        records = eval_records()
        text = serialize_dataset(records)
        # corrupt e2: claim it is authentic without live/archived URLs
        text = text.replace("e2\tfalse", "e2\ttrue")
        bad = tmp_path / "bad.tsv"
        bad.write_text(text, encoding="utf-8")
        code = main(["validate-dataset", "--dataset", str(bad)])
        out = capsys.readouterr().out
        assert code == 65
        assert "e2" in out and "live_url" in out and "archived_url" in out

    def test_malformed_row_exits_65(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("only\tthree\tfields\n", encoding="utf-8")
        assert main(["validate-dataset", "--dataset", str(bad)]) == 65


class TestScrape:
    def test_snopes_article_rating(self, pandemic_store, capsys):
        code = main([
            "scrape", SNOPES_PANDEMIC_ARTICLE,
            "--mode", "replay", "--fixtures", str(pandemic_store.root),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert out == "Truth rating: False\nNormalized kind: False\n"

    def test_reuters_short_url_follows_recorded_redirect(self, pandemic_store, capsys):
        code = main([
            "scrape", "http://reuters.com/article/idUSKCN2242AK",
            "--mode", "replay", "--fixtures", str(pandemic_store.root),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "Truth rating: False" in out

    def test_unsupported_host_is_usage_error(self, capsys):
        assert main(["scrape", "https://example.com/article"]) == 64

    def test_rating_stripped_article_reports_missing(self, tmp_path, capsys):
        url = "https://www.snopes.com/fact-check/stripped/"
        store = record_pages(tmp_path / "fx", {url: StubPage(page("snopes_article_norating.html"))})
        code = main(["scrape", url, "--mode", "replay", "--fixtures", str(store.root)])
        out = capsys.readouterr().out
        assert code == 0
        assert out == "Truth rating: UNKNOWN (missing)\nNormalized kind: Unknown\n"

    def test_missing_fixture_exits_66(self, tmp_path, capsys):
        store = record_pages(tmp_path / "fx", {})
        code = main([
            "scrape", "https://www.snopes.com/fact-check/never-recorded/",
            "--mode", "replay", "--fixtures", str(store.root),
        ])
        assert code == 66

    def test_corrupt_fixture_exits_66(self, tmp_path, capsys):
        url = "https://www.snopes.com/fact-check/torn/"
        store = record_pages(tmp_path / "fx", {url: StubPage(b"<p>Rating: False</p>")})
        key = fixture_key(FetchRequest(url=url))
        store.path_for(key).write_bytes(b"200\n")
        code = main(["scrape", url, "--mode", "replay", "--fixtures", str(store.root)])
        assert code == 66
        assert capsys.readouterr().err == (
            f"tweetcheck: corrupt fixture {key} for {url}: bad header: truncated\n"
        )

    #: ``scrape`` in a child process whose address space is capped at 256 MB,
    #: so that an open which waits for a FIFO's writer fails the test by its
    #: timeout and an unbounded read fails it by running out of memory.
    _CAPPED_MAIN = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (256 << 20, 256 << 20))\n"
        "from tweetcheck.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )

    def _scrape_over(self, tmp_path, put) -> tuple[int, str, str]:
        """Exit code and stderr of a capped ``scrape`` whose fixture ``put(path)``
        replaced, and the stderr line that names it corrupt, less the reason."""
        url = "https://www.snopes.com/fact-check/hostile/"
        store = record_pages(tmp_path / "fx", {url: StubPage(b"<p>Rating: False</p>")})
        key = fixture_key(FetchRequest(url=url))
        store.path_for(key).unlink()
        put(store.path_for(key))
        src = str(Path(tweetcheck.__file__).resolve().parents[1])
        child = subprocess.run(
            [sys.executable, "-c", self._CAPPED_MAIN, "scrape", url, "--mode", "replay", "--fixtures", str(store.root)],
            capture_output=True, text=True, timeout=20, env={**os.environ, "PYTHONPATH": src},
        )
        return child.returncode, child.stderr, f"tweetcheck: corrupt fixture {key} for {url}: "

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs on this platform")
    def test_fifo_in_a_fixtures_place_exits_66(self, tmp_path):
        code, err, prefix = self._scrape_over(tmp_path, os.mkfifo)
        assert (code, err) == (66, prefix + "not a regular file\n")

    @pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero on this platform")
    def test_endless_device_in_a_fixtures_place_exits_66(self, tmp_path):
        code, err, prefix = self._scrape_over(tmp_path, lambda path: path.symlink_to("/dev/zero"))
        assert (code, err) == (66, prefix + "not a regular file\n")

    def test_fixture_body_past_the_cap_exits_66(self, tmp_path):
        # as live and record mode refuse such a body, replay does
        def put(path):
            body_size = MAX_BODY_BYTES + 1
            header = f"200\nhttps://www.snopes.com/fact-check/hostile/\ntext/html\n{body_size}\n\n".encode()
            with open(path, "wb") as sparse:
                sparse.write(header)
                sparse.truncate(len(header) + body_size)

        code, err, prefix = self._scrape_over(tmp_path, put)
        assert (code, err) == (66, prefix + f"body exceeds the {MAX_BODY_BYTES}-byte cap\n")


def test_replay_verify_reads_a_results_page_holding_a_long_character_reference(tmp_path, capsys):
    # int() refuses a decimal reference of over 4,300 digits; it reads as U+FFFD
    reference = "&#" + "1" * 5000 + ";"
    pages = pandemic_pages()
    url = engine_query_url(SourceId.SNOPES_SEARCH, PANDEMIC_BODY)
    pages[url] = StubPage(pages[url].body.replace(
        b"</body>", f'<p>{reference}</p><a href="/search/{reference}">x</a></body>'.encode()
    ))
    store = record_pages(tmp_path / "fx", pages)
    code = main([
        "verify", PANDEMIC_BODY, "--engine", "snopes",
        "--mode", "replay", "--fixtures", str(store.root), "--max-articles", "1",
    ])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ""
    assert captured.out == (
        f"Article found at URL: {SNOPES_PANDEMIC_ARTICLE}\nTruth rating: False\nVerdict: Fabricated\n"
    )


#: A lone surrogate (U+DCFF) as page bytes in each charset whose codec decodes one.
SURROGATE_IN_CHARSET = {"unicode_escape": b"\\udcff", "utf-7": b"+3P8-"}


@pytest.mark.parametrize("charset", sorted(SURROGATE_IN_CHARSET))
class TestSurrogateFromCharset:
    """A page whose charset decodes its bytes to a lone surrogate gets U+FFFD
    in its place, as for an undecodable byte."""

    def test_verify_reads_the_result_as_a_missing_rating(self, tmp_path, capsys, charset):
        href = b"/fact-check/x" + SURROGATE_IN_CHARSET[charset] + b"/"
        results = StubPage(b'<html><body><a href="' + href + b'">x</a></body></html>',
                           content_type=f"text/html; charset={charset}")
        store = record_pages(tmp_path / "fx", {engine_query_url(SourceId.SNOPES_SEARCH, GIBBERISH_BODY): results})
        code = main(["verify", GIBBERISH_BODY, "--engine", "snopes", "--mode", "replay", "--fixtures", str(store.root)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == (
            "Article found at URL: https://www.snopes.com/fact-check/x\ufffd/\n"
            "Truth rating: UNKNOWN (missing)\n"
            "Verdict: Unverifiable\n"
        )
        assert _tweetcheck_lines(captured.err) == []

    def test_scrape_label_carries_the_replacement_character(self, tmp_path, capsys, charset):
        article = b'<div class="rating_title_wrap">False' + SURROGATE_IN_CHARSET[charset] + b"</div>"
        store = record_pages(tmp_path / "fx", {
            SNOPES_PANDEMIC_ARTICLE: StubPage(article, content_type=f"text/html; charset={charset}"),
        })
        code = main(["scrape", SNOPES_PANDEMIC_ARTICLE, "--mode", "replay", "--fixtures", str(store.root)])
        assert code == 0
        assert capsys.readouterr().out == "Truth rating: False\ufffd\nNormalized kind: Unknown\n"


def test_scrape_reads_a_quoted_charset(tmp_path, capsys):
    article = '<div class="rating_title_wrap">Légende</div>'.encode("iso-8859-1")
    store = record_pages(tmp_path / "fx", {
        SNOPES_PANDEMIC_ARTICLE: StubPage(article, content_type='text/html; charset="iso-8859-1"'),
    })
    code = main(["scrape", SNOPES_PANDEMIC_ARTICLE, "--mode", "replay", "--fixtures", str(store.root)])
    assert code == 0
    assert capsys.readouterr().out == "Truth rating: Légende\nNormalized kind: Unknown\n"


#: What the escape rule writes as escapes: every control character (C0, DEL
#: and C1) but tab, and the bidi embeddings, overrides and isolates.
RULE_ESCAPES = frozenset(
    char for char in map(chr, range(0x2100))
    if (unicodedata.category(char) == "Cc" and char != "\t")
    or "\u202a" <= char <= "\u202e" or "\u2066" <= char <= "\u2069"
)

#: ``main`` in a child process, so that its log lines reach stderr formatted.
_CHILD_MAIN = "import sys\nfrom tweetcheck.cli import main\nsys.exit(main(sys.argv[1:]))\n"


class TestPrintedPageText:
    """Page text is printed through one escape rule; the readers see it unchanged."""

    def test_the_rule_escapes_its_characters_and_no_other(self):
        for char in map(chr, range(0x3000)):
            code = ord(char)
            escape = f"\\x{code:02x}" if code < 0x100 else f"\\u{code:04x}"
            assert printable(char) == (escape if char in RULE_ESCAPES else char)

    def test_scrape_escapes_a_rating_label(self, tmp_path, capsys):
        article = '<div class="rating_title_wrap">\x1b]0;owned\x07\x1b[2JFalse\u202e</div>'.encode()
        store = record_pages(tmp_path / "fx", {SNOPES_PANDEMIC_ARTICLE: StubPage(article)})
        code = main(["scrape", SNOPES_PANDEMIC_ARTICLE, "--mode", "replay", "--fixtures", str(store.root)])
        assert code == 0
        assert capsys.readouterr().out == (
            "Truth rating: \\x1b]0;owned\\x07\\x1b[2JFalse\\u202e\nNormalized kind: Unknown\n"
        )

    def _verify(self, tmp_path, source: SourceId, results: bytes) -> tuple[int, str, str]:
        """Exit code, stdout and stderr of ``verify`` in a child process over one results page."""
        store = record_pages(tmp_path / "fx", {engine_query_url(source, GIBBERISH_BODY): StubPage(results)})
        src = str(Path(tweetcheck.__file__).resolve().parents[1])
        child = subprocess.run(
            [sys.executable, "-c", _CHILD_MAIN, "verify", GIBBERISH_BODY, "--engine", source.value,
             "--mode", "replay", "--fixtures", str(store.root)],
            capture_output=True, text=True, timeout=20, env={**os.environ, "PYTHONPATH": src},
        )
        return child.returncode, child.stdout, child.stderr

    @pytest.mark.parametrize("source, results", [
        (SourceId.SNOPES_SEARCH, b'<a href="https://www.snopes.com/fact-check/a\x1b[2J/">x</a>'),
        # the /url?q= target is percent-decoded, "%1B" to an ESC
        (SourceId.WEB_SEARCH,
         b'<div id="search"><a href="/url?q=https://www.snopes.com/fact-check/a%1B%5B2J/&amp;sa=U">x</a></div>'),
    ])
    def test_verify_escapes_a_result_link(self, tmp_path, source, results):
        code, out, err = self._verify(tmp_path, source, results)
        assert code == 2
        assert out == (
            "Article found at URL: https://www.snopes.com/fact-check/a\\x1b[2J/\n"
            "Truth rating: UNKNOWN (missing)\nVerdict: Unverifiable\n"
        )
        # the article was never recorded: the warning quotes its URL, escaped too
        assert "could not scrape https://www.snopes.com/fact-check/a\\x1b[2J/: no fixture " in err
        assert not RULE_ESCAPES & set(err.replace("\n", ""))


def _printed(argv: list[str]) -> tuple[int, str]:
    """main's exit code and all it printed, stdout then stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue() + err.getvalue()


@settings(max_examples=100, deadline=None)
@given(url=st.sampled_from(_ARTICLES), fixture=_fixtures(_RATINGS))
# a label only the text scan finds, holding a C1 CSI and a bidi isolate: few drawn pages carry a label
@example(url=REUTERS_PANDEMIC_ARTICLE, fixture=(200, "text/html", None, "<p>Rating: \x9b2J False\u2066</p>".encode()))
def test_scrape_replay_of_any_article_fixture(url, fixture):
    """Whatever page was recorded for an article, ``scrape`` exits with a code the
    README lists, prints the same twice, and prints nothing the escape rule escapes."""
    with tempfile.TemporaryDirectory() as root:
        put_fixture(FixtureStore(root), url, fixture)
        argv = ["scrape", url, "--mode", "replay", "--fixtures", root]
        first, again = _printed(argv), _printed(argv)
    _assert_printed_safely(first, again, (0, 64, 66, 69))


def _assert_printed_safely(first: tuple[int, str], again: tuple[int, str], codes: tuple[int, ...]) -> None:
    """One command run twice exited with one of ``codes``, printed the same
    both times, and printed nothing the escape rule escapes."""
    code, text = first
    assert code in codes
    assert first == again
    assert not RULE_ESCAPES & set(text.replace("\n", ""))


#: A corpus whose relevant articles are the ones the drawn results pages link to.
_PROPERTY_RECORDS = [
    GroundTruthRecord(id="p1", tweet_body=PANDEMIC_BODY, snopes_url=_ARTICLES[0], reuters_url=_ARTICLES[2],
                      authentic=False),
    GroundTruthRecord(id="p2", tweet_body="another claim body", snopes_url=_ARTICLES[1], reuters_url=_ARTICLES[3],
                      authentic=False),
    GroundTruthRecord(id="p3", tweet_body="a claim no page answers",
                      snopes_url="https://www.snopes.com/fact-check/unanswered/", authentic=False),
]
#: Every query of an eval or record pass over that corpus, engine by engine.
_PROPERTY_QUERIES = tuple(
    engine_query_url(source, record.tweet_body) for source in EVAL_SOURCES for record in _PROPERTY_RECORDS
)
_ANY_RESULTS_PAGES = st.tuples(*(_fixtures(_RESULTS) for _ in _PROPERTY_QUERIES))


def _engine_pass_printed(command: str, root: str, *flags: str) -> tuple[tuple[int, str], tuple[int, str]]:
    """Two runs of ``eval`` or ``record`` over the property corpus, each as :func:`_printed` gives it."""
    dataset = Path(root, "corpus.tsv")
    dataset.write_text(serialize_dataset(_PROPERTY_RECORDS), encoding="utf-8")
    config = _quiet_config(Path(root))
    argv = [command, "--dataset", str(dataset), "--config", str(config), "--fixtures", str(Path(root, "fx")), *flags]
    first, again = _printed(argv), _printed(argv)
    # at most one line per failed query, naming it, or one line for a failed command
    queries = [line.partition(" failed: ")[0] for line in _tweetcheck_lines(first[1])]
    assert len(set(queries)) == len(queries) <= len(_PROPERTY_QUERIES)
    return first, again


@settings(max_examples=100, deadline=None)
@given(pages=_ANY_RESULTS_PAGES, fmt=st.sampled_from(["table", "machine"]))
def test_eval_replay_of_any_results_fixtures(pages, fmt):
    """Whatever results pages were recorded, ``eval`` exits with a code the README
    lists, names each failed query once, prints the same twice, and prints nothing
    the escape rule escapes."""
    with tempfile.TemporaryDirectory() as root:
        Path(root, "fx").mkdir()
        store = FixtureStore(Path(root, "fx"))
        for url, fixture in zip(_PROPERTY_QUERIES, pages):
            put_fixture(store, url, fixture)
        first, again = _engine_pass_printed("eval", root, "--mode", "replay", "--format", fmt)
    _assert_printed_safely(first, again, (0, *README_EXIT_CODES.values()))


@settings(max_examples=100, deadline=None)
@given(pages=_ANY_RESULTS_PAGES)
def test_record_of_any_results_pages(pages):
    """Whatever the engines answer, ``record`` exits with a code the README lists,
    names each failed query once, prints the same twice, and prints nothing the
    escape rule escapes. A drawn fixture file's bytes are served as a page; no
    fixture means the request fails."""
    served = {}
    for url, page in zip(_PROPERTY_QUERIES, pages):
        if isinstance(page, bytes):
            served[url] = StubPage(page)
        elif page is not None:
            status, content_type, final_url, body = page
            served[url] = StubPage(body, status, content_type, final_url)
    transport = StubTransport(served)
    with tempfile.TemporaryDirectory() as root, \
            mock.patch.object(Fetcher, "_requests_transport", lambda self, req: transport(req)):
        first, again = _engine_pass_printed("record", root)
    _assert_printed_safely(first, again, (0, *README_EXIT_CODES.values()))


class TestModeEnvVar:
    def test_env_var_selects_replay(self, pandemic_store, monkeypatch, capsys):
        monkeypatch.setenv("TWEETCHECK_MODE", "REPLAY")
        code = main([
            "scrape", SNOPES_PANDEMIC_ARTICLE, "--fixtures", str(pandemic_store.root),
        ])
        assert code == 0
        assert "Truth rating: False" in capsys.readouterr().out

    def test_flag_overrides_env_var(self, tmp_path, monkeypatch, capsys):
        # env says live (which would hit the network); the flag forces replay
        monkeypatch.setenv("TWEETCHECK_MODE", "live")
        monkeypatch.setattr(
            Fetcher,
            "_requests_transport",
            lambda self, req: (_ for _ in ()).throw(AssertionError("network touched")),
        )
        url = "https://www.snopes.com/fact-check/envtest/"
        store = record_pages(tmp_path / "fx", {url: StubPage(page("snopes_article_pandemic.html"))})
        code = main(["scrape", url, "--mode", "replay", "--fixtures", str(store.root)])
        assert code == 0

    def test_bad_env_value_is_usage_error(self, monkeypatch, capsys):
        monkeypatch.setenv("TWEETCHECK_MODE", "offline")
        assert main(["scrape", "https://www.snopes.com/fact-check/x/"]) == 64


class TestUnreadableConfig:
    """A configuration file that cannot be read is a usage error naming it."""

    @pytest.mark.parametrize("command", ["verify", "eval", "record", "scrape"])
    @pytest.mark.parametrize("kind", ["missing", "directory"])
    def test_exit_64_with_one_line_naming_the_file(self, tmp_path, capsys, command, kind):
        config = tmp_path / "absent.conf" if kind == "missing" else tmp_path
        argv = {
            "verify": ["verify", PANDEMIC_BODY],
            "eval": ["eval", "--dataset", str(write_dataset(tmp_path))],
            "record": ["record", "--dataset", str(write_dataset(tmp_path))],
            "scrape": ["scrape", SNOPES_PANDEMIC_ARTICLE],
        }[command]
        code = main([*argv, "--config", str(config), "--mode", "replay", "--fixtures", str(tmp_path / "fx")])
        captured = capsys.readouterr()
        assert code == 64
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("tweetcheck: ") and str(config) in lines[0]


class TestFormerSelectorKeys:
    """Selectors are per-engine constants: a key that once named a selector
    file is an unknown key, a usage error before any request."""

    @pytest.mark.parametrize("command", ["verify", "eval", "record", "scrape"])
    @pytest.mark.parametrize("key", FORMER_SELECTOR_KEYS)
    def test_exit_64_naming_the_key(self, tmp_path, capsys, monkeypatch, command, key):
        monkeypatch.setattr(
            Fetcher,
            "_requests_transport",
            lambda self, req: (_ for _ in ()).throw(AssertionError("network touched")),
        )
        selectors = tmp_path / "selectors.conf"
        selectors.write_text("", encoding="utf-8")  # sets nothing, so only the key can be at fault
        config = tmp_path / "tweetcheck.conf"
        config.write_text(f"{key} = {selectors}\n", encoding="utf-8")
        argv = {
            "verify": ["verify", PANDEMIC_BODY],
            "eval": ["eval", "--dataset", str(write_dataset(tmp_path))],
            "record": ["record", "--dataset", str(write_dataset(tmp_path)), "--fixtures", str(tmp_path / "fx")],
            "scrape": ["scrape", SNOPES_PANDEMIC_ARTICLE],
        }[command]
        code = main([*argv, "--config", str(config)])
        captured = capsys.readouterr()
        assert code == 64
        assert captured.out == ""
        assert captured.err == f"tweetcheck: unknown configuration key: {key!r}\n"
        assert not (tmp_path / "fx").exists()


class TestUsageErrors:
    """Command lines argparse rejects exit 64, the documented usage-error code."""

    @pytest.mark.parametrize(
        "argv, complaint",
        [
            (["eval"], "the following arguments are required: --dataset"),
            (["verify", "body", "--max-articles", "two"], "invalid int value: 'two'"),
            (["verify", "body", "--mode", "offline"], "invalid choice: 'offline'"),
            (["no-such-command"], "invalid choice: 'no-such-command'"),
            ([], "the following arguments are required: command"),
        ],
    )
    def test_exit_64_with_argparse_message(self, capsys, argv, complaint):
        assert main(argv) == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert complaint in captured.err

    @pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"]])
    def test_help_still_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: tweetcheck")


class TestValidateDatasetFlags:
    def test_takes_dataset_and_verbose(self, tmp_path, capsys):
        assert main(["validate-dataset", "-v", "--dataset", str(write_dataset(tmp_path))]) == 0
        assert capsys.readouterr().out.startswith("dataset OK: 3 records")

    @pytest.mark.parametrize("flag", [["--config", "/missing.conf"], ["--mode", "replay"], ["--fixtures", "fx"]])
    def test_flags_it_never_reads_are_rejected(self, capsys, flag):
        assert main(["validate-dataset", *flag]) == 64
        assert "unrecognized arguments" in capsys.readouterr().err


class TestNon2xxPages:
    """A page that is not a 2xx answer is a failed query, recorded or replayed alike."""

    def _busy_snopes_pages(self) -> tuple[dict[str, StubPage], str]:
        pages = eval_pages()
        busy = engine_query_url(SourceId.SNOPES_SEARCH, eval_records()[0].tweet_body)
        pages[busy] = StubPage(b"<p>Try again later.</p>", status=503)
        return pages, busy

    def test_eval_prints_a_503_results_page_as_a_failure_over_an_unchanged_table(self, tmp_path, capsys):
        pages, busy = self._busy_snopes_pages()
        store = record_pages(tmp_path / "fx", pages)
        code = main([
            "eval", "--dataset", str(write_dataset(tmp_path)), "--engine", "snopes",
            "--mode", "replay", "--fixtures", str(store.root),
        ])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out == "Search engine           MRR     Mean P@1\nSnopes built-in search  0.1667  0.0000\n"
        assert captured.err == f"tweetcheck: record e1 via snopes failed: HTTP 503 for {busy}\n"

    def test_record_counts_a_503_results_page_and_still_writes_its_fixture(
        self, tmp_path, monkeypatch, capsys
    ):
        pages, busy = self._busy_snopes_pages()
        _stub_network(monkeypatch, pages)
        fixtures = tmp_path / "fx"
        code = main([
            "record", "--dataset", str(write_dataset(tmp_path)), "--engine", "snopes",
            "--fixtures", str(fixtures), "--config", str(_quiet_config(tmp_path)),
        ])
        captured = capsys.readouterr()
        assert code == 69
        assert captured.out == "recorded 3 record(s) x 1 engine(s), 1 failure(s)\n"
        assert captured.err == f"tweetcheck: record e1 via snopes failed: HTTP 503 for {busy}\n"
        assert len(list(fixtures.iterdir())) == 3
        assert FixtureStore(fixtures).load(fixture_key(FetchRequest(url=busy))).status == 503

    def test_verify_with_every_engine_answering_503_exits_69(self, tmp_path, capsys):
        urls = {source: engine_query_url(source, PANDEMIC_BODY) for source in SourceId}
        store = record_pages(tmp_path / "fx", {url: StubPage(b"busy", status=503) for url in urls.values()})
        code = main(["verify", PANDEMIC_BODY, "--mode", "replay", "--fixtures", str(store.root)])
        captured = capsys.readouterr()
        assert code == 69
        assert captured.out == ""
        assert _tweetcheck_lines(captured.err) == [
            *(f"tweetcheck: {source.value}: HTTP 503 for {url}" for source, url in urls.items()),
            "tweetcheck: every engine failed; cannot verify",
        ]

    def test_verify_with_an_article_answering_404_prints_a_missing_rating(self, tmp_path, capsys, caplog):
        pages = pandemic_pages()
        pages[SNOPES_PANDEMIC_ARTICLE] = StubPage(b"gone", status=404)
        store = record_pages(tmp_path / "fx", pages)
        code = main(["verify", PANDEMIC_BODY, "--mode", "replay", "--fixtures", str(store.root)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == (
            f"Article found at URL: {SNOPES_PANDEMIC_ARTICLE}\n"
            "Truth rating: UNKNOWN (missing)\n"
            "Article found at URL: https://www.snopes.com/fact-check/trump-pandemic-response-timeline/\n"
            "Truth rating: UNKNOWN (missing)\n"
            f"Article found at URL: {REUTERS_PANDEMIC_ARTICLE}\n"
            "Truth rating: False\n"
            "Article found at URL: https://www.reuters.com/article/us-health-coronavirus-whitehouse/"
            "white-house-briefing-roundup-idUSKBN21X2Y0\n"
            "Truth rating: UNKNOWN (missing)\n"
            "Verdict: Fabricated\n"
        )
        assert _tweetcheck_lines(captured.err) == []
        assert f"could not scrape {SNOPES_PANDEMIC_ARTICLE}: HTTP 404 for {SNOPES_PANDEMIC_ARTICLE}" in caplog.text

    def test_scrape_of_an_article_redirected_off_the_publisher_exits_69(self, tmp_path, capsys):
        consent = "https://consent.example.com/?continue=snopes"
        store = record_pages(tmp_path / "fx", {
            SNOPES_PANDEMIC_ARTICLE: StubPage(b"<p>Rating: False</p>", final_url=consent),
        })
        code = main(["scrape", SNOPES_PANDEMIC_ARTICLE, "--mode", "replay", "--fixtures", str(store.root)])
        captured = capsys.readouterr()
        assert code == 69
        assert captured.out == ""
        assert captured.err == f"tweetcheck: unparseable page: {consent}: not a Snopes or Reuters page\n"

    def test_scrape_of_an_article_answering_404_exits_69(self, tmp_path, capsys):
        store = record_pages(tmp_path / "fx", {SNOPES_PANDEMIC_ARTICLE: StubPage(b"gone", status=404)})
        code = main(["scrape", SNOPES_PANDEMIC_ARTICLE, "--mode", "replay", "--fixtures", str(store.root)])
        captured = capsys.readouterr()
        assert code == 69
        assert captured.out == ""
        assert captured.err == f"tweetcheck: HTTP 404 for {SNOPES_PANDEMIC_ARTICLE}\n"

    def test_scrape_of_a_page_that_is_not_html_is_an_unparseable_page(self, tmp_path, capsys):
        store = record_pages(tmp_path / "fx", {
            SNOPES_PANDEMIC_ARTICLE: StubPage(b"%PDF-1.4", content_type="application/pdf"),
        })
        code = main(["scrape", SNOPES_PANDEMIC_ARTICLE, "--mode", "replay", "--fixtures", str(store.root)])
        captured = capsys.readouterr()
        assert code == 69
        assert captured.err == (
            f"tweetcheck: unparseable page: {SNOPES_PANDEMIC_ARTICLE}: not an HTML page (application/pdf)\n"
        )


@pytest.mark.parametrize("command", ["record", "verify", "scrape"])
def test_a_directory_at_a_fixture_path_exits_69_naming_the_file(tmp_path, capsys, monkeypatch, command):
    _stub_network(monkeypatch, {**eval_pages(), **pandemic_pages()})
    blocked_url, argv = {
        "record": (
            engine_query_url(SourceId.SNOPES_SEARCH, eval_records()[0].tweet_body),
            ["record", "--dataset", str(write_dataset(tmp_path)), "--engine", "snopes"],
        ),
        "verify": (engine_query_url(SourceId.SNOPES_SEARCH, PANDEMIC_BODY), ["verify", PANDEMIC_BODY, "--mode", "record"]),
        "scrape": (SNOPES_PANDEMIC_ARTICLE, ["scrape", SNOPES_PANDEMIC_ARTICLE, "--mode", "record"]),
    }[command]
    fixtures = tmp_path / "fx"
    blocked = FixtureStore(fixtures).path_for(fixture_key(FetchRequest(url=blocked_url)))
    blocked.mkdir(parents=True)
    code = main([*argv, "--fixtures", str(fixtures), "--config", str(_quiet_config(tmp_path))])
    captured = capsys.readouterr()
    assert code == 69
    assert captured.out == ""
    assert _tweetcheck_lines(captured.err) == [f"tweetcheck: cannot write fixture {blocked}: Is a directory"]
    assert not list(fixtures.glob("*.tmp"))


@pytest.mark.parametrize("command", ["eval", "record"])
@pytest.mark.parametrize(
    "change, complaint",
    [
        ({"id": "e1"}, "record e1: duplicate record id"),
        (
            {"snopes_url": "https://www.snopes.com/fact-check/alpha/"},
            "record e2: duplicate snopes_url (also on e1): /fact-check/alpha",
        ),
    ],
    ids=["duplicate-id", "duplicate-article"],
)
def test_a_corpus_validate_dataset_rejects_exits_65_before_any_query(
    tmp_path, capsys, monkeypatch, command, change, complaint
):
    _refuse_network(monkeypatch)
    records = eval_records()
    records[1] = records[1].replace(**change)
    dataset = tmp_path / "corpus.tsv"
    dataset.write_text(serialize_dataset(records), encoding="utf-8")
    assert main(["validate-dataset", "--dataset", str(dataset)]) == 65
    assert capsys.readouterr().out == f"{complaint}\n"
    fixtures = tmp_path / "fx"
    code = main([command, "--dataset", str(dataset), "--fixtures", str(fixtures)])
    captured = capsys.readouterr()
    assert code == 65
    assert captured.out == ""
    assert captured.err == f"tweetcheck: dataset error: {complaint}\n"
    assert not fixtures.exists()


#: The characters of URLs, and characters urlsplit or a host check trips on:
#: controls and line breaks (no tab or LF, which split a corpus row), non-ASCII
#: text, and forms NFKC turns into "#", "/", "?", "@", ":" or "a/c".
URL_ALPHABET = (
    "abcxyzABCXYZ019-._~:/?#[]@!$&'()*+,;=% \\\"<>^`{|}"
    "\x00\x7f\x0b\x0c\r\x1c\x85\xa0\u2028"
    "é中\U0001f642İ"
    "＃／？＠：℀"
)


def _urls(alphabet) -> st.SearchStrategy[str]:
    """Arbitrary text from ``alphabet``, often behind a scheme and a host the program knows."""
    return st.one_of(
        st.text(alphabet, max_size=30),
        st.tuples(
            st.sampled_from(["http://", "https://", "//", "ftp://", ""]),
            st.sampled_from(["www.snopes.com", "snopes.com", "www.reuters.com", "[::1", "[", "x:99999", ""]),
            st.text(alphabet, max_size=20),
        ).map("".join),
    )


any_url = _urls(URL_ALPHABET)
#: Also what a command line hands over: argument bytes that are not UTF-8
#: arrive as lone surrogates, which a corpus file cannot hold.
_ARGUMENT_CHARACTERS = st.one_of(st.sampled_from(URL_ALPHABET), st.just("\udcff"))
any_argument_url = st.one_of(
    _urls(_ARGUMENT_CHARACTERS),
    st.tuples(
        st.sampled_from(["https://www.snopes.com/", "https://www.reuters.com/"]),
        st.text(_ARGUMENT_CHARACTERS, max_size=20),
    ).map("".join),
)


def _run(argv: list[str]) -> tuple[int, list[str]]:
    """main's exit code and its ``tweetcheck:`` stderr lines."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, _tweetcheck_lines(err.getvalue())


class TestAnyUrl:
    """Whatever text a corpus or a user gives as a URL, each command exits with
    a code the README lists and at most one ``tweetcheck:`` line per failure."""

    @pytest.fixture(scope="class")
    def store(self, tmp_path_factory) -> Path:
        body = eval_records()[0].tweet_body
        pages = {
            **{url: stub for url, stub in eval_pages().items() if "alpha" in url},
            engine_query_url(SourceId.REUTERS_SEARCH, body): StubPage(page("reuters_serp_pandemic.html")),
        }
        return record_pages(tmp_path_factory.mktemp("any-url") / "fx", pages).root

    @given(url=any_url, column=st.sampled_from(["snopes_url", "live_url", "archived_url", "reuters_url"]))
    def test_corpus_url_column(self, store, url, column):
        assume(url != "-")  # "-" is the file's mark of an absent URL
        record = eval_records()[0].replace(**{column: url})
        if column != "snopes_url" and (url == "" or column == "reuters_url" and url.endswith("\r")):
            with pytest.raises(ValueError, match=f"field {column}: "):  # it would read back as another URL
                serialize_dataset([record])
            return
        dataset = store.parent / "corpus.tsv"
        dataset.write_text(serialize_dataset([record]), encoding="utf-8")
        code, lines = _run(["validate-dataset", "--dataset", str(dataset)])
        assert code in (0, 65) and lines == []
        eval_code, lines = _run([
            "eval", "--dataset", str(dataset), "--engine", "snopes", "--engine", "reuters",
            "--mode", "replay", "--fixtures", str(store),
        ])
        if code == 65:
            assert eval_code == 65 and len(lines) == 1 and lines[0].startswith("tweetcheck: dataset error: ")
        else:
            assert eval_code == 0 and lines == []

    @given(url=any_argument_url)
    def test_scrape_url(self, store, url):
        code, lines = _run(["scrape", "--mode", "replay", "--fixtures", str(store), "--", url])
        assert code in (0, 64, 66, 69) and len(lines) == (code != 0)

    def test_a_snopes_url_urlsplit_rejects_is_a_finding(self, tmp_path, capsys):
        dataset = tmp_path / "corpus.tsv"
        dataset.write_text(serialize_dataset([eval_records()[0].replace(snopes_url="http://[::1")]), encoding="utf-8")
        assert main(["validate-dataset", "--dataset", str(dataset)]) == 65
        assert capsys.readouterr().out == "record e1: snopes_url host is not snopes.com: 'http://[::1'\n"

    @pytest.mark.parametrize(
        "url, message",
        [
            ("http://[::1/x", "unsupported publisher host: http://[::1/x"),
            ("//www.snopes.com/x", "url must be absolute: '//www.snopes.com/x'"),
            ("ftp://www.snopes.com/fact-check/x", "url must be http or https: 'ftp://www.snopes.com/fact-check/x'"),
            ("https://www.snopes.com/\udcff", "url is not UTF-8 text: 'https://www.snopes.com/\\udcff'"),
        ],
    )
    def test_scrape_of_a_url_it_cannot_fetch_is_a_usage_error(self, capsys, url, message):
        assert main(["scrape", url]) == 64
        assert capsys.readouterr().err == f"tweetcheck: {message}\n"
