from tweetcheck.config import AppConfig
from tweetcheck.fetch import FetchMode
from tweetcheck.model import Outcome, SourceId, TweetClaim

from conftest import (
    JOBS_BODY,
    PANDEMIC_BODY,
    POLITWOOPS_JOBS_DETAIL,
    SNOPES_PANDEMIC_ARTICLE,
    StubPage,
    engine_query_url,
    page,
    pandemic_pages,
    record_pages,
    replay_fetcher,
)
from tweetcheck.pipeline import verify_claim


def run(claim_body, store, engines=None, max_articles=3):
    config = AppConfig(mode=FetchMode.REPLAY, fixtures_dir=store.root, max_articles=max_articles)
    fetcher = replay_fetcher(store)
    return verify_claim(TweetClaim(body=claim_body), config, fetcher, engines)


class TestVerifyClaim:
    def test_pandemic_claim_collects_both_publishers(self, pandemic_store):
        result = run(PANDEMIC_BODY, pandemic_store, max_articles=1,
                     engines=[SourceId.SNOPES_SEARCH, SourceId.REUTERS_SEARCH])
        assert result.verdict.outcome is Outcome.FABRICATED
        sources = [item.source for item in result.verdict.evidence]
        assert sources == [SourceId.SNOPES_SEARCH, SourceId.REUTERS_SEARCH]
        assert not result.engine_errors

    def test_duplicate_articles_deduped_across_engines(self, pandemic_store):
        result = run(PANDEMIC_BODY, pandemic_store)
        urls = [item.url for item in result.verdict.evidence]
        # the same article reached via snopes search and web search appears once
        assert len(urls) == len(set(urls))

    def test_politwoops_match_becomes_evidence(self, jobs_store):
        result = run(JOBS_BODY, jobs_store, engines=[SourceId.POLITWOOPS])
        assert result.verdict.outcome is Outcome.AUTHENTIC
        item = result.verdict.evidence[0]
        assert item.source is SourceId.POLITWOOPS
        assert item.url == POLITWOOPS_JOBS_DETAIL
        assert item.rank == 1
        assert item.matched_text
        assert item.rating is None

    def test_captcha_degrades_to_remaining_engines(self, tmp_path):
        pages = pandemic_pages()
        pages[engine_query_url(SourceId.WEB_SEARCH, PANDEMIC_BODY)] = StubPage(
            page("google_serp_captcha.html")
        )
        store = record_pages(tmp_path / "fx", pages)
        result = run(PANDEMIC_BODY, store)
        assert SourceId.WEB_SEARCH in result.engine_errors
        assert "bot challenge" in result.engine_errors[SourceId.WEB_SEARCH]
        assert result.verdict.outcome is Outcome.FABRICATED  # others still ran

    def test_unavailable_engine_recorded_not_fatal(self, tmp_path):
        pages = {
            key: value
            for key, value in pandemic_pages().items()
            if "snopes.com/search" in key or "snopes.com/fact-check" in key
        }
        store = record_pages(tmp_path / "fx", pages)
        result = run(PANDEMIC_BODY, store,
                     engines=[SourceId.SNOPES_SEARCH, SourceId.REUTERS_SEARCH])
        assert SourceId.REUTERS_SEARCH in result.engine_errors
        assert result.verdict.outcome is Outcome.FABRICATED

    def test_article_budget_limits_scrapes_per_engine(self, pandemic_store):
        result = run(PANDEMIC_BODY, pandemic_store, engines=[SourceId.SNOPES_SEARCH], max_articles=1)
        assert len(result.verdict.evidence) == 1

    def test_engines_run_counted(self, pandemic_store):
        result = run(PANDEMIC_BODY, pandemic_store)
        assert result.engines_run == len(SourceId)

    def test_article_redirected_off_publisher_is_missing_rating(self, tmp_path, caplog):
        pages = pandemic_pages()
        pages[SNOPES_PANDEMIC_ARTICLE] = StubPage(
            b"<html><body><p>Rating: False</p></body></html>",
            final_url="https://consent.example.com/?continue=snopes",
        )
        store = record_pages(tmp_path / "fx", pages)
        result = run(PANDEMIC_BODY, store, engines=[SourceId.SNOPES_SEARCH], max_articles=1)
        assert result.lines == (
            f"Article found at URL: {SNOPES_PANDEMIC_ARTICLE}",
            "Truth rating: UNKNOWN (missing)",
        )
        assert result.verdict.evidence[0].rating.missing
        assert not result.engine_errors
        assert "consent.example.com" in caplog.text
