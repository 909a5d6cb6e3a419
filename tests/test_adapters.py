import tracemalloc
from unittest import mock
from urllib.parse import parse_qs, urljoin, urlsplit, urlunsplit

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tweetcheck.adapters import (
    ENGINES,
    PolitwoopsHit,
    match_politwoops,
    normalize_text,
    ranked_search,
    search_politwoops,
)
from tweetcheck.config import AppConfig
from tweetcheck.dataset import GroundTruthRecord
from tweetcheck.errors import CaptchaDetected, NetworkError, ParseError
from tweetcheck.fetch import Fetcher, FetchMode, FetchResponse
from tweetcheck.model import SourceId, TweetClaim
from tweetcheck import urls
from tweetcheck.pipeline import verify_claim
from tweetcheck.ratings import DEFAULT_RATING_SELECTORS, scrape_rating
from tweetcheck.urls import result_link

from conftest import (
    JOBS_BODY,
    PANDEMIC_BODY,
    POLITWOOPS_JOBS_DETAIL,
    REUTERS_PANDEMIC_ARTICLE,
    SNOPES_PANDEMIC_ARTICLE,
    StubPage,
    StubTransport,
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


def _traced_search(search, source, body):
    """What ``search`` reads from ``body`` as ``source``'s results page, and the
    peak memory tracemalloc sees while it reads, after a first read has filled
    the module-level caches."""
    claim = TweetClaim(body="memory bound")
    transport = StubTransport({engine_query_url(source, claim.body): StubPage(body)})
    with Fetcher(FetchMode.LIVE, delay_ms=0, transport=transport) as fetcher:
        search(ENGINES[source], claim, fetcher)
        tracemalloc.start()
        try:
            found = search(ENGINES[source], claim, fetcher)
            return found, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


class TestSearchSnopes:
    def test_pandemic_query_finds_the_fact_check_first(self, pandemic_store):
        results = ranked_search(ENGINES[SourceId.SNOPES_SEARCH], CLAIM_PANDEMIC, replay_fetcher(pandemic_store))
        assert results.urls[0].endswith("/fact-check/2009-trump-tweet-pandemic/")

    def test_zero_results(self, tmp_path):
        store = store_for(tmp_path, SourceId.SNOPES_SEARCH, "no matches here", page("snopes_serp_empty.html"))
        results = ranked_search(
            ENGINES[SourceId.SNOPES_SEARCH], TweetClaim(body="no matches here"), replay_fetcher(store)
        )
        assert results.urls == ()

    def test_known_anchors_in_page_order_fact_checks_only(self, pandemic_store):
        # manual enumeration of the fixture: three anchors in the result list,
        # of which two are /fact-check/ articles, plus nav/footer links
        results = ranked_search(ENGINES[SourceId.SNOPES_SEARCH], CLAIM_PANDEMIC, replay_fetcher(pandemic_store))
        assert results.urls == (
            "https://www.snopes.com/fact-check/2009-trump-tweet-pandemic/",
            "https://www.snopes.com/fact-check/trump-pandemic-response-timeline/",
        )

    def test_host_restricted(self, pandemic_store):
        results = ranked_search(ENGINES[SourceId.SNOPES_SEARCH], CLAIM_PANDEMIC, replay_fetcher(pandemic_store))
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
        results = ranked_search(ENGINES[SourceId.SNOPES_SEARCH], TweetClaim(body=body), replay_fetcher(store))
        assert list(results.urls) == urls

    def test_non_2xx_is_a_network_error(self, tmp_path):
        store = store_for(tmp_path, SourceId.SNOPES_SEARCH, "server trouble", b"oops", status=503)
        url = engine_query_url(SourceId.SNOPES_SEARCH, "server trouble")
        with pytest.raises(NetworkError) as exc:
            ranked_search(ENGINES[SourceId.SNOPES_SEARCH], TweetClaim(body="server trouble"), replay_fetcher(store))
        assert str(exc.value) == f"HTTP 503 for {url}"

    def test_non_html_page_raises_parse_error(self, tmp_path):
        store = store_for(
            tmp_path, SourceId.SNOPES_SEARCH, "binary answer", b"%PDF-1.4",
            content_type="application/pdf",
        )
        with pytest.raises(ParseError):
            ranked_search(ENGINES[SourceId.SNOPES_SEARCH], TweetClaim(body="binary answer"), replay_fetcher(store))

    def test_deterministic_under_replay(self, pandemic_store):
        fetcher = replay_fetcher(pandemic_store)
        row = ENGINES[SourceId.SNOPES_SEARCH]
        assert ranked_search(row, CLAIM_PANDEMIC, fetcher) == ranked_search(row, CLAIM_PANDEMIC, fetcher)


class TestSearchReuters:
    def test_pandemic_query_finds_article_with_id_token(self, pandemic_store):
        results = ranked_search(ENGINES[SourceId.REUTERS_SEARCH], CLAIM_PANDEMIC, replay_fetcher(pandemic_store))
        assert any("idUSKCN2242AK" in url for url in results.urls)

    def test_article_shape_filter_and_order(self, pandemic_store):
        results = ranked_search(ENGINES[SourceId.REUTERS_SEARCH], CLAIM_PANDEMIC, replay_fetcher(pandemic_store))
        assert results.urls == (
            REUTERS_PANDEMIC_ARTICLE,
            "https://www.reuters.com/article/us-health-coronavirus-whitehouse/white-house-briefing-roundup-idUSKBN21X2Y0",
        )

    def test_zero_results(self, tmp_path):
        store = store_for(tmp_path, SourceId.REUTERS_SEARCH, "nothing at all", page("reuters_serp_empty.html"))
        results = ranked_search(
            ENGINES[SourceId.REUTERS_SEARCH], TweetClaim(body="nothing at all"), replay_fetcher(store)
        )
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
        results = ranked_search(ENGINES[SourceId.REUTERS_SEARCH], TweetClaim(body=body), replay_fetcher(store))
        assert list(results.urls) == urls


class TestSearchWeb:
    def test_site_filtered_query_ranks_snopes_article_first(self, pandemic_store):
        results = ranked_search(
            ENGINES[SourceId.WEB_SEARCH_SITE_SNOPES], CLAIM_PANDEMIC, replay_fetcher(pandemic_store)
        )
        assert results.source is SourceId.WEB_SEARCH_SITE_SNOPES
        assert results.urls[0] == SNOPES_PANDEMIC_ARTICLE
        assert results.query_text.endswith(" site:snopes.com")

    def test_ads_excluded_and_duplicates_removed(self, pandemic_store):
        results = ranked_search(ENGINES[SourceId.WEB_SEARCH], CLAIM_PANDEMIC, replay_fetcher(pandemic_store))
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
        results = ranked_search(ENGINES[SourceId.WEB_SEARCH], TweetClaim(body="anchor ad"), replay_fetcher(store))
        assert results.urls == ("https://result.example/",)

    def test_ad_marked_by_a_valueless_attribute_excluded(self, tmp_path):
        # "[data-text-ad]" tests presence: the attribute need carry no value
        serp = (
            b'<div id=search><div data-text-ad><a href="https://ad.example/">ad</a></div>'
            b'<a href="https://result.example/">r</a></div>'
        )
        store = store_for(tmp_path, SourceId.WEB_SEARCH, "valueless ad", serp)
        results = ranked_search(ENGINES[SourceId.WEB_SEARCH], TweetClaim(body="valueless ad"), replay_fetcher(store))
        assert results.urls == ("https://result.example/",)

    def test_empty_serp(self, tmp_path):
        store = store_for(tmp_path, SourceId.WEB_SEARCH, "yields nothing", page("google_serp_empty.html"))
        results = ranked_search(ENGINES[SourceId.WEB_SEARCH], TweetClaim(body="yields nothing"), replay_fetcher(store))
        assert results.urls == ()

    def test_reading_a_results_page_holds_less_than_four_times_its_bytes(self):
        # a tree of the page took about 6.8 times its bytes; the one-pass reader
        # holds the decoded text, one tag's attributes and the links
        words = "fact check claim viral tweet deleted screenshot image context report".split()
        snippet = " ".join(words[k % len(words)] for k in range(52))
        results = "".join(
            f'<div class="g"><div class="r"><a href="/url?q=https://www.snopes.com/fact-check/r-{i}/&amp;sa=U'
            f'&amp;ved={i}"><h3>Result {i} {snippet[:40]}</h3></a></div>'
            f'<div class="s"><span class="st">{snippet}</span></div></div>\n'
            for i in range(300)
        )
        body = (
            '<html><body><div id="tads"><a href="https://ad.example/">ad</a></div>'
            f'<div id="search"><div id="rso">\n{results}</div></div></body></html>\n'
        ).encode()
        assert 160_000 < len(body) < 180_000
        found, peak = _traced_search(ranked_search, SourceId.WEB_SEARCH, body)
        assert len(found.urls) == 300
        assert peak < 4 * len(body), f"peak {peak / len(body):.2f} times the body's bytes"

    def test_captcha_page_detected(self, tmp_path):
        store = store_for(tmp_path, SourceId.WEB_SEARCH, "blocked query", page("google_serp_captcha.html"))
        with pytest.raises(CaptchaDetected):
            ranked_search(ENGINES[SourceId.WEB_SEARCH], TweetClaim(body="blocked query"), replay_fetcher(store))


class TestSearchPolitwoops:
    def test_two_result_cards_parsed(self, jobs_store):
        hits = search_politwoops(ENGINES[SourceId.POLITWOOPS], CLAIM_JOBS, replay_fetcher(jobs_store))
        assert len(hits) == 2
        assert hits[0].detail_url == POLITWOOPS_JOBS_DETAIL
        assert hits[1].detail_url == "https://projects.propublica.org/politwoops/tweet/1181300000000000000"

    def test_valueless_class_attribute_is_no_class(self, tmp_path):
        # "<div class>" made every class selector raise AttributeError
        body = b"<div class>" + page("politwoops_serp_jobs.html")
        store = store_for(tmp_path, SourceId.POLITWOOPS, JOBS_BODY, body)
        hits = search_politwoops(ENGINES[SourceId.POLITWOOPS], CLAIM_JOBS, replay_fetcher(store))
        assert [hit.detail_url for hit in hits][:1] == [POLITWOOPS_JOBS_DETAIL]

    def test_card_links_follow_the_result_link_rules(self, tmp_path):
        # a card's link leads to an http(s) page on the tracker's host, reported
        # with its host lowercased and no fragment, as a result link is
        card = '<div class="tweet"><p class="tweet-content">t</p><a href="{}">x</a></div>'
        hrefs = ["ftp://projects.propublica.org/politwoops/tweet/1",
                 "HTTPS://Projects.ProPublica.org/politwoops/tweet/2#top"]
        store = store_for(tmp_path, SourceId.POLITWOOPS, JOBS_BODY, "".join(map(card.format, hrefs)).encode())
        hits = search_politwoops(ENGINES[SourceId.POLITWOOPS], CLAIM_JOBS, replay_fetcher(store))
        assert [hit.detail_url for hit in hits] == ["https://projects.propublica.org/politwoops/tweet/2"]

    def test_nonsense_prefix_yields_no_hits(self, tmp_path):
        body = "zqxwv bogus prefix that matches nothing"
        store = store_for(tmp_path, SourceId.POLITWOOPS, body, page("politwoops_empty.html"))
        assert search_politwoops(ENGINES[SourceId.POLITWOOPS], TweetClaim(body=body), replay_fetcher(store)) == []

    def test_match_found_for_jobs_tweet(self, jobs_store):
        hits = search_politwoops(ENGINES[SourceId.POLITWOOPS], CLAIM_JOBS, replay_fetcher(jobs_store))
        hit = match_politwoops(CLAIM_JOBS, hits)
        assert hit is not None
        assert hit.detail_url == POLITWOOPS_JOBS_DETAIL
        # both sides normalize to the same string (independently checkable)
        assert normalize_text(hit.tweet_text) == normalize_text(CLAIM_JOBS.body)

    def test_reading_a_tracker_page_holds_less_than_four_times_its_bytes(self):
        # a tree of the page took about 15 times its bytes; the one-pass reader
        # holds the decoded text, one tag's attributes and each card's text and link
        cards = "".join(
            f'<div class="tweet"><div class="tweet-info"><span class="display-name">Member {i}</span>'
            f'<span class="screen-name">@member{i}</span></div><div class="tweet-content"><p>tweet {i}</p>'
            f'</div><a class="tweet-permalink" href="/politwoops/tweet/{i}">Deleted after 2 hours</a></div>\n'
            for i in range(1_300)
        )
        body = f'<html><body><div class="results">\n{cards}</div></body></html>\n'.encode()
        assert 340_000 < len(body) < 380_000
        hits, peak = _traced_search(search_politwoops, SourceId.POLITWOOPS, body)
        assert [hit.tweet_text for hit in hits] == [f"tweet {i}" for i in range(1_300)]
        assert peak < 4 * len(body), f"peak {peak / len(body):.2f} times the body's bytes"


class TestMatchPolitwoops:
    def test_entity_encoded_ampersand_matches(self):
        claim = TweetClaim(body="jobs provide living wages, benefits & paid leave.")
        hit = PolitwoopsHit(
            tweet_text="jobs provide living wages, benefits &amp; paid leave.",
            detail_url="https://projects.propublica.org/politwoops/tweet/1",
        )
        assert match_politwoops(claim, [hit]) is hit

    def test_empty_hit_list(self):
        assert match_politwoops(TweetClaim(body="anything"), []) is None

    def test_whitespace_runs_collapse(self):
        claim = TweetClaim(body="two  spaces\nand a newline")
        hit = PolitwoopsHit(
            tweet_text="two spaces and a newline",
            detail_url="https://projects.propublica.org/politwoops/tweet/2",
        )
        assert match_politwoops(claim, [hit]) is hit

    def test_different_text_does_not_match(self):
        claim = TweetClaim(body="completely different words")
        hit = PolitwoopsHit(
            tweet_text="not the same tweet at all",
            detail_url="https://projects.propublica.org/politwoops/tweet/3",
        )
        assert match_politwoops(claim, [hit]) is None

    def test_first_match_wins(self):
        claim = TweetClaim(body="repeated tweet")
        hits = [
            PolitwoopsHit("repeated tweet", "https://projects.propublica.org/politwoops/tweet/4"),
            PolitwoopsHit("Repeated  Tweet", "https://projects.propublica.org/politwoops/tweet/5"),
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
            # int() refuses a decimal reference of over 4,300 digits
            pytest.param("a &#" + "1" * 5000 + "; b", "a \ufffd b", id="long-reference-past-max"),
            pytest.param("a &#" + "0" * 5000 + "65; b", "a a b", id="long-reference-with-leading-zeros"),
        ],
    )
    def test_cases(self, raw, expected):
        assert normalize_text(raw) == expected


class TestRankedSearchDispatch:
    def test_politwoops_is_not_a_ranked_source(self, jobs_store):
        with pytest.raises(ValueError):
            ranked_search(ENGINES[SourceId.POLITWOOPS], CLAIM_JOBS, replay_fetcher(jobs_store))

    @pytest.mark.parametrize(
        "source",
        [SourceId.SNOPES_SEARCH, SourceId.REUTERS_SEARCH, SourceId.WEB_SEARCH, SourceId.WEB_SEARCH_SITE_SNOPES],
    )
    def test_each_ranked_source_dispatches(self, pandemic_store, source):
        results = ranked_search(ENGINES[source], CLAIM_PANDEMIC, replay_fetcher(pandemic_store))
        assert results.source is source

    def test_default_settings_cover_every_source(self):
        assert list(ENGINES) == list(SourceId)
        for source, settings in ENGINES.items():
            assert settings.source is source
            assert "{query}" in settings.endpoint


class TestPageStep:
    """Every engine's results page goes through one step, which fails the
    query on a bot challenge wherever the engine's row names one."""

    #: A result link of each kind and a tracker card, then the challenge.
    PAGE = (
        '<div id="search"><a href="https://www.snopes.com/fact-check/x/">x</a></div>'
        '<div class="tweet"><p class="tweet-content">challenged query</p><a href="/politwoops/tweet/1">x</a></div>'
    )

    @pytest.mark.parametrize("source", list(ENGINES), ids=lambda source: source.value)
    @pytest.mark.parametrize("key, value, markup, message", [
        ("captcha", "div.challenge", '<div class="challenge">Are you a robot?</div>', "bot challenge page served"),
        ("captcha_text", "press and hold", "<p>Press and <b>HOLD</b> to confirm</p>", "bot challenge marker found"),
    ], ids=["captcha", "captcha_text"])
    def test_a_bot_challenge_the_row_names_fails_the_query(self, source, key, value, markup, message):
        row = ENGINES[source]
        search = search_politwoops if row.ranking is None else ranked_search
        claim = TweetClaim(body="challenged query")
        transport = StubTransport({engine_query_url(source, claim.body): StubPage((self.PAGE + markup).encode())})
        with Fetcher(FetchMode.LIVE, delay_ms=0, transport=transport) as fetcher:
            assert search(row, claim, fetcher)  # the row as shipped reads the page
            with pytest.raises(CaptchaDetected, match=message):
                search(row.replace(selectors={**row.selectors, key: value}), claim, fetcher)


class TestPublisherTable:
    """Every publisher urls.PUBLISHERS declares has what its readers look up."""

    @pytest.mark.parametrize("publisher", sorted(urls.PUBLISHERS))
    def test_a_publisher_has_a_scraper_selectors_and_a_corpus_column(self, publisher):
        site, articles = urls.PUBLISHERS[publisher]
        article = FetchResponse(200, f"https://www.{site}{articles}x", b"<p>no rating</p>", "text/html")
        assert scrape_rating(article).missing  # scraped, not refused as off every publisher
        assert publisher in DEFAULT_RATING_SELECTORS
        assert f"{publisher}_url" in GroundTruthRecord._fields

    def test_each_ranked_engine_names_a_publisher(self):
        named = [row.ranking.publisher for row in ENGINES.values() if row.ranking is not None]
        assert len(named) == 4 and set(named) <= set(urls.PUBLISHERS)


def _unwrap_redirect(url: str) -> str:
    parts = urlsplit(url)
    if parts.path == "/url":
        params = parse_qs(parts.query)
        for key in ("q", "url"):
            if params.get(key):
                return params[key][0]
    return url


def _reference_link(base: str, href: str, unwrap: bool):
    """What ``ranked_search`` made of a link before each was split once: urljoin,
    parse_qs on a redirect wrapper, urlsplit, and the result URL's normal form,
    which has no userinfo; a link whose port urlsplit cannot read is none."""
    try:
        absolute = urljoin(base, href)
        if unwrap:
            absolute = _unwrap_redirect(absolute)
        parts = urlsplit(absolute)
        parts.port
    except ValueError:
        return None
    if parts.scheme not in ("http", "https") or not parts.hostname:
        return None
    authority = parts.netloc.rpartition("@")[2].lower()
    normalized = urlunsplit((parts.scheme.lower(), authority, parts.path, parts.query, ""))
    return normalized, parts.hostname.lower(), parts.path


# Links built from the parts a results page's links have, with what urljoin,
# urlsplit or parse_qs treat specially put in: "[", "//", "\\", ";", "%", dot
# segments, an empty "?" or "#", tab and newline (which urlsplit deletes),
# leading C0 characters, non-ASCII text and NFKC forms of "/" and "a/c" in a
# host. The first two kinds are mostly the shapes split without a join, and
# "ſ", which a case-blind Unicode match takes for "s", must not make "https".
_NEAR_PLAIN_LINKS = st.tuples(
    st.sampled_from([
        "", "", "", "https://www.snopes.com", "HTTP://Www.Google.COM", "http://", "//www.snopes.com", "//h",
        "HTTPſ://h", "http://u@h:80", "http://a%B.snopes.com",
    ]),
    st.sampled_from([
        "/url", "/fact-check/x/", "/", "", "/x/./y", "/x/../y", "/.", "/..", "/a;b", "/a/b;", "/%2e%2e/x", "x/y",
    ]),
    st.sampled_from(["", "?", "?q=https://www.snopes.com/fact-check/x/&sa=U", "?q=%2Fx#f"]),
    st.sampled_from(["", "#", "#f", "#:~:text=x"]),
).map("".join)
_WRAPPER_LINKS = st.tuples(
    st.sampled_from(["", "", "https://www.google.com", "http://"]),
    st.sampled_from(["/url?", "/url?", "/url/?", "/url;?"]),
    st.lists(st.sampled_from([
        "q=https://a.example/x+y", "url=https://b.example/", "q=", "url=", "%71=https://c.example/", "q+=x", "=x", "",
        "q", "sa=U", "q=%2Fx", "q=//h/p", "q=http://[::1", "q=http:%2F%2Fd.example", "q=%01https://f.example/",
        "q=https:/h/p", "q=http:x", "q=http:", "q=http:///p",
    ]), min_size=1, max_size=3).map("&".join),
    st.sampled_from(["", "#f"]),
).map("".join)
_ODD_LINKS = st.tuples(
    st.sampled_from(["", " ", "\x00", "\x1f\t", "\n"]),
    st.sampled_from(["", "http://", "https://", "//", "http:", "http:///", "ftp://", "javascript:"]),
    st.sampled_from(["", "www.snopes.com", "[::1]", "[::1", "x]", "例.com", "℀.com", "h／x", "h\\x", "h\tx"]),
    st.lists(st.sampled_from(["x", "", ".", "..", ";", "%", "\\", "é", "a b", "\t", "\n", "[", "//"]), max_size=4).map(
        "/".join
    ),
    st.sampled_from(["", "?", "?q=http:%2F%2Fd.example", "?q=\x01https://f.example/", "?=x&&q=https://e.example/a%20b+c"]),
    st.sampled_from(["", "#", "#[", "#a?b"]),
).map("".join)
_LINKS = st.one_of(_NEAR_PLAIN_LINKS, _WRAPPER_LINKS, _ODD_LINKS, st.text(max_size=12))
_BASES = st.one_of(
    st.sampled_from(["https://www.google.com/search?q=x", "http://www.snopes.com/search/x/", "https://www.snopes.com"]),
    st.sampled_from(["HTTPS://WWW.GOOGLE.COM/a/b;p?q#f", "", "ftp://h/", "http:/x", "https://[::1]/a/b", "https://[::1/"]),
    _LINKS,
)


class TestResultLink:
    """Each link on a results page is split once, where ``ranked_search`` used
    to join it, unwrap it, split it and normalize it: the answer is the same."""

    @settings(max_examples=1_000, deadline=None)
    @given(base=_BASES, href=_LINKS, unwrap=st.booleans())
    def test_equals_the_join_unwrap_split_chain(self, base, href, unwrap):
        assert result_link(base, href, unwrap) == _reference_link(base, href, unwrap)

    @settings(max_examples=1_000, deadline=None)
    @given(base=_BASES, href=_LINKS, unwrap=st.booleans())
    @example(base="https://www.google.com/search?q=x", href="https://x%41.Snopes.com/fact-check/x/", unwrap=False)
    @example(base="https://www.google.com/search?q=x", href="/url?q=https:////www.google.com/x", unwrap=True)
    def test_host_and_path_are_those_of_the_reported_url(self, base, href, unwrap):
        link = result_link(base, href, unwrap)
        assert link is None or (link[1] and link[1:] == urls.host_and_path(link[0]))

    @pytest.mark.parametrize("href, unwrap, expected", [
        ("/url?q=https://www.snopes.com/fact-check/x/&sa=U", True, "https://www.snopes.com/fact-check/x/"),
        ("/url?url=https://Www.Reuters.com/article/idUSX#top", True, "https://www.reuters.com/article/idUSX"),
        ("/search?q=next&start=10", False, "https://www.google.com/search?q=next&start=10"),
        ("HTTP://A.example/p?x=1#f", False, "http://a.example/p?x=1"),
        # userinfo is not reported: a live fetch would send it as an Authorization header
        ("https://evil:pw@WWW.Snopes.com/fact-check/x/", True, "https://www.snopes.com/fact-check/x/"),
        ("/url?q=https://evil:pw@WWW.Snopes.com/fact-check/x/&sa=U", True, "https://www.snopes.com/fact-check/x/"),
    ])
    def test_plain_shapes_are_not_joined(self, monkeypatch, href, unwrap, expected):
        def refuse(*args):
            raise AssertionError("joined or parsed again")

        monkeypatch.setattr(urls, "urljoin", refuse)
        link = result_link("https://www.google.com/search?q=claim", href, unwrap)
        assert link == _reference_link("https://www.google.com/search?q=claim", href, unwrap)
        assert link[0] == expected

    @pytest.mark.parametrize("href, unwrap", [
        ("https://www.snopes.com:80x/fact-check/x/", False),
        ("https://u@www.snopes.com:80x/fact-check/x/", False),
        ("/url?q=https://www.snopes.com:99999/fact-check/x/", True),
    ])
    def test_a_link_with_a_malformed_port_is_no_result(self, href, unwrap):
        # a request to it could not be made, so verify could not read it
        assert result_link("https://www.google.com/search?q=claim", href, unwrap) is None


def _reference_article(name: str, path: str) -> str | None:
    """The publisher whose article a link to the host ``name`` and the path
    ``path`` is, read from the declaration: its site, and a path under its
    article path that is not that path alone (the publisher's index page)."""
    for publisher, (site, articles) in urls.PUBLISHERS.items():
        if urls.host_matches(name, site) and path.startswith(articles) and path.strip("/") != articles.strip("/"):
            return publisher
    return None


def _one_link_search(source: SourceId, base: str, href: str, picks: bool = False):
    """What ``source``'s row keeps of a results page at ``base`` (the request
    URL if empty) whose one link is ``href``; with ``picks``, the articles a
    verify over that one row reads instead."""
    search = engine_query_url(source, CLAIM_PANDEMIC.body)
    fetcher = Fetcher(FetchMode.LIVE, delay_ms=0, transport=StubTransport({search: StubPage(b"", final_url=base)}))
    with fetcher, mock.patch("tweetcheck.adapters.read_results_page", return_value=([[[href], None]], False, False)):
        if picks:
            return tuple(item.url for item in verify_claim(CLAIM_PANDEMIC, AppConfig(), fetcher, [source]).verdict.evidence)
        return ranked_search(ENGINES[source], CLAIM_PANDEMIC, fetcher).urls


# Links to publisher hosts, look-alikes and their pages, articles or not, some
# wrapped in a web search's redirect, so both answers of the rule are drawn often.
_PUBLISHER_LINKS = st.tuples(
    st.sampled_from(["", "/url?q="]),
    st.sampled_from([
        "https://www.snopes.com", "HTTPS://M.Snopes.COM", "http://snopes.com", "https://www.reuters.com",
        "http://reuters.com", "HTTPS://Www.Reuters.COM", "https://notsnopes.com", "https://www.reuters.com.example",
    ]),
    st.sampled_from([
        "/fact-check/x/", "/fact-check/", "/fact-check/x/?a=1#b", "/article/idUSX", "/article/",
        "/article/uk-x-idUSKCN2242AK#f", "/fact-check", "/Fact-Check/x/", "/fact-check%2Fx", "/article",
        "/world/x-idUSX", "/collections/viral-tweets/", "/news/x/", "",
    ]),
).map("".join)


class TestArticleRule:
    """Verify reads a web result only where a site row of its publisher would
    keep the link, and both agree with the declaration in urls.PUBLISHERS."""

    @settings(max_examples=300, deadline=None)
    @given(base=_BASES, href=st.booleans().flatmap(lambda publisher: _PUBLISHER_LINKS if publisher else _LINKS))
    @example(base="", href="https://x%41.Snopes.com/fact-check/x/")
    @example(base="", href="/url?q=https:////www.snopes.com/fact-check/x/")
    def test_verify_picks_from_a_web_row_what_a_site_row_keeps(self, base, href):
        # An empty href names the results page itself, which no row keeps.
        link = result_link(base or engine_query_url(SourceId.WEB_SEARCH, CLAIM_PANDEMIC.body), href, True) if href else None
        publisher = link and _reference_article(link[1], link[2])
        picked = _one_link_search(SourceId.WEB_SEARCH, base, href, picks=True)
        assert picked == ((link[0],) if publisher else ())
        for source in (SourceId.SNOPES_SEARCH, SourceId.REUTERS_SEARCH):
            # The site row joins the link to its own page: one without a host
            # (say "https:///fact-check/x/") lands on that page's host.
            row_link = link and result_link(engine_query_url(source, CLAIM_PANDEMIC.body), link[0], False)
            row_publisher = row_link and _reference_article(row_link[1], row_link[2])
            kept = _one_link_search(source, "", link[0]) if link else ()
            assert kept == ((row_link[0],) if row_publisher == ENGINES[source].ranking.publisher else ())

    @pytest.mark.parametrize("source, index", [
        (SourceId.SNOPES_SEARCH, "https://www.snopes.com/fact-check/"),
        (SourceId.SNOPES_SEARCH, "https://m.snopes.com/fact-check//"),
        (SourceId.REUTERS_SEARCH, "https://www.reuters.com/article/"),
        (SourceId.REUTERS_SEARCH, "http://reuters.com/article///"),
    ])
    def test_a_site_row_drops_its_publishers_index_page(self, source, index):
        assert _one_link_search(source, "", index) == ()
        assert _one_link_search(source, "", index + "x") != ()

    def test_the_snopes_row_and_verify_agree_on_a_host_with_a_percent(self):
        # urlsplit keeps the case of a host after its "%" (an IPv6 zone's rule)
        href = "https://x%41.Snopes.com/fact-check/x/"
        kept = _one_link_search(SourceId.SNOPES_SEARCH, "", href)
        assert kept == ("https://x%41.snopes.com/fact-check/x/",)
        assert _one_link_search(SourceId.WEB_SEARCH, "", href, picks=True) == kept

    def test_a_wrapped_link_without_a_host_is_no_web_result(self):
        # Python before 3.13 writes "https:////www.google.com/x" back as a link to Google
        assert _one_link_search(SourceId.WEB_SEARCH, "", "/url?q=https:////www.google.com/preferences") == ()
