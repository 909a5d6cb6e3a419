import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from tweetcheck.config import AppConfig
from tweetcheck.fetch import Fetcher, FetchMode, FetchRequest, FetchResponse, FixtureStore, fixture_key
from tweetcheck.model import Outcome, SourceId, TweetClaim

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
    pandemic_pages,
    record_pages,
    replay_fetcher,
)
from tweetcheck.pipeline import evidence_lines, verify_claim


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

    def test_politwoops_card_with_an_unparseable_link_skipped(self, tmp_path):
        card = '<div class="tweet"><p class="tweet-content">{}</p><a href="{}">x</a></div>'
        cards = card.format(JOBS_BODY, "http://[::1/politwoops/tweet/1") + card.format(JOBS_BODY, "/politwoops/tweet/2")
        url = engine_query_url(SourceId.POLITWOOPS, JOBS_BODY)
        store = record_pages(tmp_path / "fx", {url: StubPage(cards.encode())})
        result = run(JOBS_BODY, store, engines=[SourceId.POLITWOOPS])
        assert result.verdict.outcome is Outcome.AUTHENTIC
        assert [(item.url, item.rank) for item in result.verdict.evidence] == [
            ("https://projects.propublica.org/politwoops/tweet/2", 1)
        ]

    def test_politwoops_cards_holding_a_long_character_reference(self, tmp_path):
        # int() refuses a decimal reference of over 4,300 digits. The second card's
        # text holds one once its "&amp;" is decoded, for the matcher to decode.
        reference = "&#" + "1" * 5000 + ";"
        card = '<div class="tweet"><p class="tweet-content">{}</p><a href="/politwoops/tweet/{}">x</a></div>'
        cards = card.format(reference, 1) + card.format("&amp;" + reference[1:], 2) + card.format(JOBS_BODY, 3)
        url = engine_query_url(SourceId.POLITWOOPS, JOBS_BODY)
        store = record_pages(tmp_path / "fx", {url: StubPage(cards.encode())})
        result = run(JOBS_BODY, store, engines=[SourceId.POLITWOOPS])
        assert not result.engine_errors
        assert result.verdict.outcome is Outcome.AUTHENTIC
        assert [item.url for item in result.verdict.evidence] == ["https://projects.propublica.org/politwoops/tweet/3"]

    def test_article_linked_from_a_valueless_ad_not_scraped(self, tmp_path):
        # the ad block "<div data-text-ad>" links a rated Snopes article; the
        # only organic result is no publisher's, so nothing is scraped
        serp = (
            f'<div id=search><div data-text-ad><a href="{SNOPES_PANDEMIC_ARTICLE}">ad</a></div>'
            '<a href="https://result.example/">r</a></div>'
        )
        pages = {
            engine_query_url(SourceId.WEB_SEARCH, PANDEMIC_BODY): StubPage(serp.encode()),
            SNOPES_PANDEMIC_ARTICLE: StubPage(page("snopes_article_pandemic.html")),
        }
        store = record_pages(tmp_path / "fx", pages)
        result = run(PANDEMIC_BODY, store, engines=[SourceId.WEB_SEARCH])
        assert result.verdict.evidence == ()
        assert result.verdict.outcome is Outcome.UNVERIFIABLE

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

    def test_every_enabled_engine_is_queried(self):
        transport = StubTransport(pandemic_pages())
        fetcher = Fetcher(FetchMode.LIVE, delay_ms=0, transport=transport)
        result = verify_claim(TweetClaim(body=PANDEMIC_BODY), AppConfig(), fetcher)
        assert not result.engine_errors
        for source in SourceId:
            assert engine_query_url(source, PANDEMIC_BODY) in transport.requested

    def test_article_redirected_off_publisher_is_missing_rating(self, tmp_path, caplog):
        pages = pandemic_pages()
        pages[SNOPES_PANDEMIC_ARTICLE] = StubPage(
            b"<html><body><p>Rating: False</p></body></html>",
            final_url="https://consent.example.com/?continue=snopes",
        )
        store = record_pages(tmp_path / "fx", pages)
        result = run(PANDEMIC_BODY, store, engines=[SourceId.SNOPES_SEARCH], max_articles=1)
        assert [line for item in result.verdict.evidence for line in evidence_lines(item)] == [
            f"Article found at URL: {SNOPES_PANDEMIC_ARTICLE}",
            "Truth rating: UNKNOWN (missing)",
        ]
        assert result.verdict.evidence[0].rating.missing
        assert not result.engine_errors
        assert "consent.example.com" in caplog.text

    def test_corrupt_search_fixture_is_an_engine_error(self, tmp_path):
        store = record_pages(tmp_path / "fx", pandemic_pages())
        url = engine_query_url(SourceId.REUTERS_SEARCH, PANDEMIC_BODY)
        store.path_for(fixture_key(FetchRequest(url=url))).write_bytes(b"garbage")
        result = run(PANDEMIC_BODY, store, engines=[SourceId.SNOPES_SEARCH, SourceId.REUTERS_SEARCH])
        assert result.engine_errors[SourceId.REUTERS_SEARCH].startswith("corrupt fixture ")
        assert result.verdict.outcome is Outcome.FABRICATED


# Pieces of the pages the engines and publishers serve, plus hostile markup.
_ARTICLES = (
    SNOPES_PANDEMIC_ARTICLE,
    "https://www.snopes.com/fact-check/another-claim/",
    REUTERS_PANDEMIC_ARTICLE,
    "https://www.reuters.com/article/idUSKCN0000001",
)
_RESULTS = (
    *(f'<a href="{url}">result</a>' for url in _ARTICLES),
    *(f'<div id="search"><a href="{url}">result</a></div>' for url in _ARTICLES),
    f'<div id="search"><a href="/url?q={SNOPES_PANDEMIC_ARTICLE}&amp;sa=U">result</a></div>',
    f'<div class="tweet"><p class="tweet-content">{PANDEMIC_BODY}</p>'
    '<a href="/politwoops/tweet/1">tweet</a></div>',
)
_RATINGS = (
    '<div class="rating_title_wrap">False</div>',
    "<div><h2>VERDICT</h2><p>Misattributed. Not a tweet.</p></div>",
    "Rating: True",
    # rating blocks left open, so that the pieces after them make the label
    '<div class="rating_title_wrap">', "<h2>VERDICT</h2><p>", "<p>Rating: ",
)
_MARKUP = (
    '<a href="http://[::1">', '<a href="">', '<div id="search">', '<div id="tads">', "</div>",
    '<form id="captcha-form">', "detected unusual traffic", '<div class="tweet">',
    '<p class="tweet-content">', '<span class="screen-name">', '<div class="rating_title_wrap">',
    "False", "Rating: ", "VERDICT", "<h2>", "</h2>", "<strong>", "<![foo[", "<!--", "&#x110000;",
    "<", ">", "\x00", "\ufffd", "\x1b[2J", "\u202e",
)


def _fixtures(pieces: tuple[str, ...]):
    """Strategy for one URL's fixture: a response to record, None for no
    fixture, or bytes to write as the fixture file itself.

    Weighted towards pages a site could have served, so that results get
    ranked and articles scraped: a piece of ``pieces`` is drawn more often
    than one of the hostile markup. One final URL carries characters the
    CLI's escape rule escapes, which reach a bot-challenge failure's words
    and the result links resolved against it.
    """
    body = st.lists(
        st.one_of(
            st.sampled_from(pieces).map(str.encode),
            st.sampled_from(pieces + _MARKUP).map(str.encode),
            st.binary(max_size=8),
            st.text(max_size=8).map(lambda text: text.encode("utf-8", "surrogatepass")),
        ),
        max_size=16,
    ).map(b"".join)
    response = st.tuples(
        st.sampled_from([200] * 5 + [302, 404, 503]),
        st.sampled_from(["text/html; charset=utf-8"] * 4 + [
            "", "application/json", "text/html; charset=latin-1", "text/html; charset=no-such-codec",
            "text/html; charset=utf-16", "text/html; charset=idna", "text/html; charset=undefined",
            "text/html; charset=punycode",
        ]),
        st.sampled_from(
            [None] * 4 + [
                "https://consent.example.com/", REUTERS_PANDEMIC_ARTICLE, "http://[::1",
                "https://www.snopes.com/fact-check/a\x1b[2J\u202e/",
            ]
        ),
        body,
    )
    return st.one_of(response, response, response, st.none(), st.binary(max_size=32))


_SEARCHES = tuple(engine_query_url(source, PANDEMIC_BODY) for source in SourceId)
_URLS = _SEARCHES + _ARTICLES
_ALL_FIXTURES = st.tuples(
    *(_fixtures(_RESULTS) for _ in _SEARCHES), *(_fixtures(_RATINGS) for _ in _ARTICLES)
)


def put_fixture(store: FixtureStore, url: str, fixture) -> None:
    """Put one URL's fixture, as a :func:`_fixtures` strategy drew it, in ``store``."""
    key = fixture_key(FetchRequest(url=url))
    if isinstance(fixture, bytes):
        store.path_for(key).write_bytes(fixture)
    elif fixture is not None:
        status, content_type, final_url, body = fixture
        store.save(key, FetchResponse(status, final_url or url, body, content_type))


@settings(max_examples=100, deadline=None)
@given(_ALL_FIXTURES)
def test_verify_claim_never_raises_on_arbitrary_fixtures(fixtures):
    with tempfile.TemporaryDirectory() as root:
        store = FixtureStore(root)
        for url, fixture in zip(_URLS, fixtures):
            put_fixture(store, url, fixture)
        first = run(PANDEMIC_BODY, store)
        again = run(PANDEMIC_BODY, store)
    assert first == again
    assert all(isinstance(line, str) for item in first.verdict.evidence for line in evidence_lines(item))
    assert all(isinstance(message, str) for message in first.engine_errors.values())
