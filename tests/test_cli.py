from pathlib import Path

from tweetcheck.cli import main
from tweetcheck.dataset import serialize_dataset
from tweetcheck.fetch import Fetcher, FetchRequest, fixture_key

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
    page,
    record_pages,
)
from tweetcheck.model import SourceId


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

    def test_unknown_engine_is_usage_error(self, capsys):
        assert main(["verify", "some body", "--engine", "bing"]) == 64

    def test_all_engines_failing_is_operational_error(self, tmp_path, capsys):
        empty_store = record_pages(tmp_path / "fx", {})
        code = main([
            "verify", "anything at all",
            "--mode", "replay", "--fixtures", str(empty_store.root),
        ])
        assert code == 69

    def test_replay_without_fixtures_dir_is_usage_error(self, capsys):
        assert main(["verify", "body", "--mode", "replay"]) == 64


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
        assert "missing fixture" in err
        assert "snopes.com/search" in err

    def test_missing_fixture_stderr_line(self, tmp_path, capsys):
        dataset = write_dataset(tmp_path)
        pages = {k: v for k, v in eval_pages().items() if "beta" not in k}
        store = record_pages(tmp_path / "fx", pages)
        code = main([
            "eval", "--dataset", str(dataset), "--engine", "snopes",
            "--mode", "replay", "--fixtures", str(store.root),
        ])
        beta = engine_query_url(SourceId.SNOPES_SEARCH, eval_records()[1].tweet_body)
        assert code == 66
        assert capsys.readouterr().err == f"tweetcheck: missing fixture: record e2: {beta}\n"

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
            f"tweetcheck: corrupt fixture: record e2: {beta}: length mismatch: header says"
        )

    def test_corrupt_dataset_exits_65(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsv"
        bad.write_text("one\tfield\n", encoding="utf-8")
        assert main(["eval", "--dataset", str(bad)]) == 65

    def test_missing_dataset_file_exits_65(self, tmp_path, capsys):
        assert main(["eval", "--dataset", str(tmp_path / "nope.tsv")]) == 65


class TestRecord:
    def _patch_transport(self, monkeypatch, pages):
        transport = StubTransport(pages)
        monkeypatch.setattr(
            Fetcher, "_requests_transport", lambda self, req: transport(req), raising=True
        )
        return transport

    def _quiet_config(self, tmp_path) -> Path:
        config = tmp_path / "tweetcheck.conf"
        config.write_text("politeness_delay_ms=0\n", encoding="utf-8")
        return config

    def test_record_then_replay_eval_matches(self, tmp_path, monkeypatch, capsys):
        transport = self._patch_transport(monkeypatch, eval_pages())
        dataset = write_dataset(tmp_path)
        fixtures = tmp_path / "fx"
        config = self._quiet_config(tmp_path)

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
        self._patch_transport(monkeypatch, eval_pages())
        dataset = write_dataset(tmp_path)
        fixtures = tmp_path / "fx"
        config = self._quiet_config(tmp_path)
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
        self._patch_transport(monkeypatch, pages)
        dataset = write_dataset(tmp_path)
        fixtures = tmp_path / "fx"
        config = self._quiet_config(tmp_path)
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
        transport = self._patch_transport(monkeypatch, pages)
        code = main([
            "record", "--dataset", str(write_dataset(tmp_path)), "--engine", "web",
            "--fixtures", str(tmp_path / "fx"), "--config", str(self._quiet_config(tmp_path)),
        ])
        captured = capsys.readouterr()
        assert code == 69
        assert transport.requested == [first]  # no further requests to the host
        assert captured.out == "recorded 3 record(s) x 1 engine(s), 3 failure(s)\n"
        failures = [line for line in captured.err.splitlines() if line.startswith("tweetcheck: record")]
        assert [line.split(" failed")[0].split(" skipped")[0] for line in failures] == [
            f"tweetcheck: record {r.id} via web" for r in records
        ]
        assert "bot challenge" in failures[0] and "skipped after a bot challenge" in failures[2]


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

    def test_rating_selector_override_changes_extraction(self, tmp_path, capsys):
        url = "https://www.snopes.com/fact-check/custom-markup/"
        body = (
            b"<html><body><article>"
            b'<div class="rating-badge">Misattributed</div>'
            b"<p>Body text without the usual block.</p>"
            b"</article></body></html>"
        )
        store = record_pages(tmp_path / "fx", {url: StubPage(body)})
        selectors = tmp_path / "snopes_rating.conf"
        selectors.write_text("rating=div.rating-badge\n", encoding="utf-8")
        config = tmp_path / "tweetcheck.conf"
        config.write_text(f"rating-selectors.snopes={selectors}\n", encoding="utf-8")
        code = main([
            "scrape", url, "--config", str(config),
            "--mode", "replay", "--fixtures", str(store.root),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert out == "Truth rating: Misattributed\nNormalized kind: Misattributed\n"


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
