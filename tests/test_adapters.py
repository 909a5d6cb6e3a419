from urllib.parse import urlsplit

import pytest

from tweetcheck.adapters import (
    ENGINES,
    PolitwoopsHit,
    match_politwoops,
    normalize_text,
    ranked_search,
    search_politwoops,
)
from tweetcheck.errors import CaptchaDetected, NetworkError, ParseError
from tweetcheck.model import SourceId, TweetClaim

from conftest import (
    JOBS_BODY,
    PANDEMIC_BODY,
    POLITWOOPS_JOBS_DETAIL,
    REUTERS_PANDEMIC_ARTICLE,
    SNOPES_PANDEMIC_ARTICLE,
    StubPage,
    engine_query_url,
    page,
    record_pages,
    replay_fetcher,
)

CLAIM_PANDEMIC = TweetClaim(body=PANDEMIC_BODY)
CLAIM_JOBS = TweetClaim(body=JOBS_BODY)


def store_for(tmp_path, source, body, page_bytes, status=200, content_type="text/html; charset=utf-8"):
    url = engine_query_url(source, body)
    return record_pages(tmp_path / "fx", {url: StubPage(page_bytes, status=status, content_type=content_type)})


class TestSearchSnopes:
    def test_pandemic_query_finds_the_fact_check_first(self, pandemic_store):
        results = ranked_search(SourceId.SNOPES_SEARCH, CLAIM_PANDEMIC, replay_fetcher(pandemic_store))
        assert results.urls[0].endswith("/fact-check/2009-trump-tweet-pandemic/")

    def test_zero_results(self, tmp_path):
        store = store_for(tmp_path, SourceId.SNOPES_SEARCH, "no matches here", page("snopes_serp_empty.html"))
        results = ranked_search(SourceId.SNOPES_SEARCH, TweetClaim(body="no matches here"), replay_fetcher(store))
        assert results.urls == ()

    def test_known_anchors_in_page_order_fact_checks_only(self, pandemic_store):
        # manual enumeration of the fixture: three anchors in the result list,
        # of which two are /fact-check/ articles, plus nav/footer links
        results = ranked_search(SourceId.SNOPES_SEARCH, CLAIM_PANDEMIC, replay_fetcher(pandemic_store))
        assert results.urls == (
            "https://www.snopes.com/fact-check/2009-trump-tweet-pandemic/",
            "https://www.snopes.com/fact-check/trump-pandemic-response-timeline/",
        )

    def test_host_restricted(self, pandemic_store):
        results = ranked_search(SourceId.SNOPES_SEARCH, CLAIM_PANDEMIC, replay_fetcher(pandemic_store))
        for url in results.urls:
            host = urlsplit(url).hostname
            assert host == "snopes.com" or host.endswith(".snopes.com")

    def test_three_anchor_fixture_in_page_order(self, tmp_path):
        urls = [f"https://www.snopes.com/fact-check/case-{i}/" for i in (1, 2, 3)]
        body = "three anchors in order"
        serp = (
            '<html><body><div class="search-results">'
            + "".join(f'<article><a href="{u}">r</a></article>' for u in urls)
            + "</div></body></html>"
        ).encode()
        store = store_for(tmp_path, SourceId.SNOPES_SEARCH, body, serp)
        results = ranked_search(SourceId.SNOPES_SEARCH, TweetClaim(body=body), replay_fetcher(store))
        assert list(results.urls) == urls

    def test_non_2xx_is_a_network_error(self, tmp_path):
        store = store_for(tmp_path, SourceId.SNOPES_SEARCH, "server trouble", b"oops", status=503)
        url = engine_query_url(SourceId.SNOPES_SEARCH, "server trouble")
        with pytest.raises(NetworkError) as exc:
            ranked_search(SourceId.SNOPES_SEARCH, TweetClaim(body="server trouble"), replay_fetcher(store))
        assert str(exc.value) == f"HTTP 503 for {url}"

    def test_non_html_page_raises_parse_error(self, tmp_path):
        store = store_for(
            tmp_path, SourceId.SNOPES_SEARCH, "binary answer", b"%PDF-1.4",
            content_type="application/pdf",
        )
        with pytest.raises(ParseError):
            ranked_search(SourceId.SNOPES_SEARCH, TweetClaim(body="binary answer"), replay_fetcher(store))

    def test_deterministic_under_replay(self, pandemic_store):
        fetcher = replay_fetcher(pandemic_store)
        assert ranked_search(SourceId.SNOPES_SEARCH, CLAIM_PANDEMIC, fetcher) == ranked_search(SourceId.SNOPES_SEARCH, CLAIM_PANDEMIC, fetcher)


class TestSearchReuters:
    def test_pandemic_query_finds_article_with_id_token(self, pandemic_store):
        results = ranked_search(SourceId.REUTERS_SEARCH, CLAIM_PANDEMIC, replay_fetcher(pandemic_store))
        assert any("idUSKCN2242AK" in url for url in results.urls)

    def test_article_shape_filter_and_order(self, pandemic_store):
        results = ranked_search(SourceId.REUTERS_SEARCH, CLAIM_PANDEMIC, replay_fetcher(pandemic_store))
        assert results.urls == (
            REUTERS_PANDEMIC_ARTICLE,
            "https://www.reuters.com/article/us-health-coronavirus-whitehouse/white-house-briefing-roundup-idUSKBN21X2Y0",
        )

    def test_zero_results(self, tmp_path):
        store = store_for(tmp_path, SourceId.REUTERS_SEARCH, "nothing at all", page("reuters_serp_empty.html"))
        results = ranked_search(SourceId.REUTERS_SEARCH, TweetClaim(body="nothing at all"), replay_fetcher(store))
        assert results.urls == ()

    def test_five_anchor_fixture_in_page_order(self, tmp_path):
        urls = [f"https://www.reuters.com/article/story-{i}-idUSTEST{i}" for i in range(1, 6)]
        body = "five anchors in order"
        serp = (
            '<html><body><div class="search-result-list">'
            + "".join(f'<div class="search-result"><a href="{u}">r</a></div>' for u in urls)
            + "</div></body></html>"
        ).encode()
        store = store_for(tmp_path, SourceId.REUTERS_SEARCH, body, serp)
        results = ranked_search(SourceId.REUTERS_SEARCH, TweetClaim(body=body), replay_fetcher(store))
        assert list(results.urls) == urls


class TestSearchWeb:
    def test_site_filtered_query_ranks_snopes_article_first(self, pandemic_store):
        results = ranked_search(
            SourceId.WEB_SEARCH_SITE_SNOPES, CLAIM_PANDEMIC, replay_fetcher(pandemic_store)
        )
        assert results.source is SourceId.WEB_SEARCH_SITE_SNOPES
        assert results.urls[0] == SNOPES_PANDEMIC_ARTICLE
        assert results.query_text.endswith(" site:snopes.com")

    def test_ads_excluded_and_duplicates_removed(self, pandemic_store):
        results = ranked_search(SourceId.WEB_SEARCH, CLAIM_PANDEMIC, replay_fetcher(pandemic_store))
        # fixture has: reuters (organic), interleaved ad, snopes (organic),
        # duplicate snopes, twitter (organic), plus top/bottom ad blocks
        assert results.urls == (
            REUTERS_PANDEMIC_ARTICLE,
            SNOPES_PANDEMIC_ARTICLE,
            "https://twitter.com/example/status/1250000000000000000",
        )

    def test_ad_marked_on_the_anchor_itself_excluded(self, tmp_path):
        serp = (
            b'<div id="search"><a data-text-ad="1" href="https://ad.example/">ad</a>'
            b'<a href="https://result.example/">result</a></div>'
        )
        store = store_for(tmp_path, SourceId.WEB_SEARCH, "anchor ad", serp)
        results = ranked_search(SourceId.WEB_SEARCH, TweetClaim(body="anchor ad"), replay_fetcher(store))
        assert results.urls == ("https://result.example/",)

    def test_empty_serp(self, tmp_path):
        store = store_for(tmp_path, SourceId.WEB_SEARCH, "yields nothing", page("google_serp_empty.html"))
        results = ranked_search(SourceId.WEB_SEARCH, TweetClaim(body="yields nothing"), replay_fetcher(store))
        assert results.urls == ()

    def test_captcha_page_detected(self, tmp_path):
        store = store_for(tmp_path, SourceId.WEB_SEARCH, "blocked query", page("google_serp_captcha.html"))
        with pytest.raises(CaptchaDetected):
            ranked_search(SourceId.WEB_SEARCH, TweetClaim(body="blocked query"), replay_fetcher(store))


class TestSearchPolitwoops:
    def test_two_result_cards_parsed(self, jobs_store):
        hits = search_politwoops(CLAIM_JOBS, replay_fetcher(jobs_store))
        assert len(hits) == 2
        assert hits[0].detail_url == POLITWOOPS_JOBS_DETAIL
        assert hits[1].detail_url == "https://projects.propublica.org/politwoops/tweet/1181300000000000000"
        assert hits[0].handle == "HouseDemocrats"

    def test_nonsense_prefix_yields_no_hits(self, tmp_path):
        body = "zqxwv bogus prefix that matches nothing"
        store = store_for(tmp_path, SourceId.POLITWOOPS, body, page("politwoops_empty.html"))
        assert search_politwoops(TweetClaim(body=body), replay_fetcher(store)) == []

    def test_match_found_for_jobs_tweet(self, jobs_store):
        hits = search_politwoops(CLAIM_JOBS, replay_fetcher(jobs_store))
        hit = match_politwoops(CLAIM_JOBS, hits)
        assert hit is not None
        assert hit.detail_url == POLITWOOPS_JOBS_DETAIL
        # both sides normalize to the same string (independently checkable)
        assert normalize_text(hit.tweet_text) == normalize_text(CLAIM_JOBS.body)


class TestMatchPolitwoops:
    def test_entity_encoded_ampersand_matches(self):
        claim = TweetClaim(body="jobs provide living wages, benefits & paid leave.")
        hit = PolitwoopsHit(
            tweet_text="jobs provide living wages, benefits &amp; paid leave.",
            detail_url="https://projects.propublica.org/politwoops/tweet/1",
            handle="x",
        )
        assert match_politwoops(claim, [hit]) is hit

    def test_empty_hit_list(self):
        assert match_politwoops(TweetClaim(body="anything"), []) is None

    def test_whitespace_runs_collapse(self):
        claim = TweetClaim(body="two  spaces\nand a newline")
        hit = PolitwoopsHit(
            tweet_text="two spaces and a newline",
            detail_url="https://projects.propublica.org/politwoops/tweet/2",
            handle="x",
        )
        assert match_politwoops(claim, [hit]) is hit

    def test_different_text_does_not_match(self):
        claim = TweetClaim(body="completely different words")
        hit = PolitwoopsHit(
            tweet_text="not the same tweet at all",
            detail_url="https://projects.propublica.org/politwoops/tweet/3",
            handle="x",
        )
        assert match_politwoops(claim, [hit]) is None

    def test_first_match_wins(self):
        claim = TweetClaim(body="repeated tweet")
        hits = [
            PolitwoopsHit("repeated tweet", "https://projects.propublica.org/politwoops/tweet/4", "a"),
            PolitwoopsHit("Repeated  Tweet", "https://projects.propublica.org/politwoops/tweet/5", "b"),
        ]
        assert match_politwoops(claim, hits) is hits[0]


class TestNormalizeText:
    @pytest.mark.parametrize(
        "raw,expected",
        [
            ("Benefits &amp; Leave", "benefits & leave"),
            ("it’s “fine”", "it's \"fine\""),
            ("  a \n\t b  ", "a b"),
            ("plain", "plain"),
        ],
    )
    def test_cases(self, raw, expected):
        assert normalize_text(raw) == expected


class TestRankedSearchDispatch:
    def test_politwoops_is_not_a_ranked_source(self, jobs_store):
        with pytest.raises(ValueError):
            ranked_search(SourceId.POLITWOOPS, CLAIM_JOBS, replay_fetcher(jobs_store))

    @pytest.mark.parametrize(
        "source",
        [SourceId.SNOPES_SEARCH, SourceId.REUTERS_SEARCH, SourceId.WEB_SEARCH, SourceId.WEB_SEARCH_SITE_SNOPES],
    )
    def test_each_ranked_source_dispatches(self, pandemic_store, source):
        results = ranked_search(source, CLAIM_PANDEMIC, replay_fetcher(pandemic_store))
        assert results.source is source

    def test_default_settings_cover_every_source(self):
        assert list(ENGINES) == list(SourceId)
        for source, settings in ENGINES.items():
            assert settings.source is source
            assert "{query}" in settings.endpoint
