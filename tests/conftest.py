from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import pytest
from hypothesis import settings

from tweetcheck.adapters import ENGINES
from tweetcheck.errors import NetworkError
from tweetcheck.fetch import (
    Fetcher,
    FetchMode,
    FetchRequest,
    FetchResponse,
    FixtureStore,
    _reset_politeness_clock,
)
from tweetcheck.model import SourceId, TweetClaim
from tweetcheck.queries import build_query, encode_query
from tweetcheck.ratings import DEFAULT_RATING_SELECTORS

# A failing property prints a @reproduce_failure blob, so a failure seen once
# (say, on a cold CI run) can be replayed; each test keeps its own example
# count and deadline.
settings.register_profile("tweetcheck", print_blob=True)
settings.load_profile("tweetcheck")

PAGES_DIR = Path(__file__).parent / "pages"

#: Selector-table entries that hold literal page text, not a selector.
LITERAL_TEXT_KEYS = {"captcha_text", "verdict_heading_text"}
#: Every (table, key, selector) the engine table and the rating table hold.
SELECTOR_CONSTANTS = [
    *((source.value, key, value) for source, row in ENGINES.items() for key, value in row.selectors.items()),
    *((f"rating-{publisher}", key, value) for publisher, table in DEFAULT_RATING_SELECTORS.items()
      for key, value in table.items()),
]

# The fabricated pandemic tweet body, with the doubled spaces the original
# screenshot transcription carried (they show up as ++ / %20%20 in queries).
PANDEMIC_BODY = (
    "Obama's  handling of this whole pandemic has been terrible! As President, ALL  "
    "responsibility becomes yours during a crisis like this, whether or not you're "
    "entirely to blame. John McCain, and for that matter myself, would never let "
    "thousands of Americans die from a pandemic while in office."
)

# A real deleted tweet preserved by the Politwoops tracker.
JOBS_BODY = (
    "The jobs report shows unemployment down to 3.5%, the lowest in 50 years. "
    "More people are working than at any point in American history. but it's not "
    "the number of jobs that counts. That's why Democrats are fighting to ensure "
    "jobs provide living wages, benefits & paid leave."
)

SNOPES_PANDEMIC_ARTICLE = "https://www.snopes.com/fact-check/2009-trump-tweet-pandemic/"
REUTERS_PANDEMIC_ARTICLE = (
    "https://www.reuters.com/article/uk-factcheck-trump-tweet-thousands-die/"
    "false-claim-in-2009-trump-tweeted-that-he-would-never-let-thousands-of-"
    "americans-die-from-a-pandemic-idUSKCN2242AK"
)
REUTERS_PANDEMIC_SHORT = "http://reuters.com/article/idUSKCN2242AK"
POLITWOOPS_JOBS_DETAIL = "https://projects.propublica.org/politwoops/tweet/1181278122861662208"


def page(name: str) -> bytes:
    return (PAGES_DIR / name).read_bytes()


def engine_query_url(source: SourceId, body: str) -> str:
    """The URL one adapter would request for this claim body."""
    settings = ENGINES[source]
    query = build_query(TweetClaim(body=body), settings.spec)
    return settings.endpoint.format(query=encode_query(query, settings.spec.encoding))


@dataclass
class StubPage:
    body: bytes
    status: int = 200
    content_type: str = "text/html; charset=utf-8"
    final_url: Optional[str] = None  # defaults to the requested URL


class StubTransport:
    """Serves canned pages by exact request URL; records what was asked."""

    def __init__(self, pages: dict[str, StubPage]):
        self.pages = pages
        self.requested: list[str] = []

    def __call__(self, req: FetchRequest) -> FetchResponse:
        self.requested.append(req.url)
        stub = self.pages.get(req.url)
        if stub is None:
            raise NetworkError(f"no stub page for {req.url}")
        return FetchResponse(
            status=stub.status,
            final_url=stub.final_url or req.url,
            body=stub.body,
            content_type=stub.content_type,
        )


def refusing_transport(req: FetchRequest) -> FetchResponse:
    raise AssertionError(f"network access attempted in replay mode: {req.url}")


def record_pages(store_dir: Path, pages: dict[str, StubPage]) -> FixtureStore:
    """Record stub pages through the real record path, then return the store."""
    store = FixtureStore(store_dir)
    fetcher = Fetcher(
        FetchMode.RECORD, store, delay_ms=0, transport=StubTransport(pages)
    )
    for url in pages:
        try:
            fetcher.fetch(FetchRequest(url=url))
        except NetworkError:  # a non-2xx page is recorded, then its fetch fails
            pass
    return store


def replay_fetcher(store: FixtureStore) -> Fetcher:
    return Fetcher(FetchMode.REPLAY, store, transport=refusing_transport)


def pandemic_pages() -> dict[str, StubPage]:
    """Every page a full verification of the pandemic claim touches."""
    return {
        engine_query_url(SourceId.SNOPES_SEARCH, PANDEMIC_BODY): StubPage(
            page("snopes_serp_pandemic.html")
        ),
        engine_query_url(SourceId.REUTERS_SEARCH, PANDEMIC_BODY): StubPage(
            page("reuters_serp_pandemic.html")
        ),
        engine_query_url(SourceId.WEB_SEARCH, PANDEMIC_BODY): StubPage(
            page("google_serp_pandemic.html")
        ),
        engine_query_url(SourceId.WEB_SEARCH_SITE_SNOPES, PANDEMIC_BODY): StubPage(
            page("google_serp_pandemic_site.html")
        ),
        engine_query_url(SourceId.POLITWOOPS, PANDEMIC_BODY): StubPage(
            page("politwoops_empty.html")
        ),
        SNOPES_PANDEMIC_ARTICLE: StubPage(page("snopes_article_pandemic.html")),
        "https://www.snopes.com/fact-check/trump-pandemic-response-timeline/": StubPage(
            page("snopes_article_norating.html")
        ),
        REUTERS_PANDEMIC_ARTICLE: StubPage(page("reuters_article_pandemic.html")),
        # The short article URL redirects to the long one.
        REUTERS_PANDEMIC_SHORT: StubPage(
            page("reuters_article_pandemic.html"), final_url=REUTERS_PANDEMIC_ARTICLE
        ),
    }


def mixed_pandemic_pages() -> dict[str, StubPage]:
    """The pandemic pages with two engines failing: a bot challenge and a non-HTML SERP."""
    pages = pandemic_pages()
    pages[engine_query_url(SourceId.WEB_SEARCH, PANDEMIC_BODY)] = StubPage(
        page("google_serp_captcha.html")
    )
    pages[engine_query_url(SourceId.REUTERS_SEARCH, PANDEMIC_BODY)] = StubPage(
        b"{}", content_type="application/json"
    )
    return pages


def snopes_serp_page(urls: list[str]) -> bytes:
    anchors = "\n".join(
        f'<article><h3><a href="{u}">result</a></h3></article>' for u in urls
    )
    return (
        '<html><body><div class="search-results">\n' + anchors + "\n</div></body></html>"
    ).encode("utf-8")


def eval_records() -> list:
    """Synthetic corpus whose snopes ranks are [1, 2, absent]."""
    from tweetcheck.dataset import GroundTruthRecord

    return [
        GroundTruthRecord(
            id="e1", tweet_body="alpha claim body one",
            snopes_url="https://www.snopes.com/fact-check/alpha/", authentic=False,
        ),
        GroundTruthRecord(
            id="e2", tweet_body="beta claim body two",
            snopes_url="https://www.snopes.com/fact-check/beta/", authentic=False,
        ),
        GroundTruthRecord(
            id="e3", tweet_body="gamma claim body three",
            snopes_url="https://www.snopes.com/fact-check/gamma/", authentic=False,
        ),
    ]


def eval_pages() -> dict[str, StubPage]:
    records = eval_records()
    return {
        engine_query_url(SourceId.SNOPES_SEARCH, records[0].tweet_body): StubPage(
            snopes_serp_page([
                "https://www.snopes.com/fact-check/alpha/",
                "https://www.snopes.com/fact-check/unrelated-one/",
            ])
        ),
        engine_query_url(SourceId.SNOPES_SEARCH, records[1].tweet_body): StubPage(
            snopes_serp_page([
                "https://www.snopes.com/fact-check/unrelated-two/",
                "https://www.snopes.com/fact-check/beta/",
            ])
        ),
        engine_query_url(SourceId.SNOPES_SEARCH, records[2].tweet_body): StubPage(
            snopes_serp_page(["https://www.snopes.com/fact-check/unrelated-three/"])
        ),
    }


@pytest.fixture
def eval_store(tmp_path) -> FixtureStore:
    return record_pages(tmp_path / "fixtures", eval_pages())


@pytest.fixture(autouse=True)
def _fresh_politeness_clock():
    _reset_politeness_clock()
    yield
    _reset_politeness_clock()


@pytest.fixture
def pandemic_store(tmp_path) -> FixtureStore:
    return record_pages(tmp_path / "fixtures", pandemic_pages())


@pytest.fixture
def jobs_store(tmp_path) -> FixtureStore:
    pages = {
        engine_query_url(SourceId.POLITWOOPS, JOBS_BODY): StubPage(
            page("politwoops_serp_jobs.html")
        ),
    }
    return record_pages(tmp_path / "fixtures", pages)
