"""The engine table and the search adapters: claim in, results out, one fetch per query.

:data:`ENGINES` holds every engine's defaults, one :class:`EngineSettings`
row per source: endpoint, query spec, selectors and, for the four ranked
engines, a :class:`Ranking` (the eval report label, the publisher whose
article is relevant, and whether it is a web search). The table is
read-only: a configuration shares it, or holds a copy if an endpoint
override replaces a row (:attr:`tweetcheck.config.AppConfig.engines`), so
an adapter is handed a finished row as its first argument and merges
nothing itself; whether an engine ranks is asked of its row alone. The query
spec and the selectors are not configurable: a site redesign is followed
by changing its row.

Every engine's results page goes through one step, :func:`_request_page`:
it builds the query from the row's spec, fetches the endpoint through the
fetch gateway and reads the page by the row's selectors as written, with
:func:`read_results_page`, one pass of the tokenizer that builds no tree.
Where a row names them, a bot-challenge check and an ad filter run; where it
has a "scope" selector, only the "results" elements under a match count,
each match a region. The ranked engines (Snopes and Reuters built-in search,
web search, and web search restricted to snopes.com) share
:func:`ranked_search`, which keeps the result links in rank order; the
deleted-tweet tracker's :func:`search_politwoops` keeps the first link and
text of each card. A results page that is not a 2xx answer is a
:class:`~tweetcheck.errors.NetworkError` from the fetch gateway, and
propagates like any other query failure. Adapters are stateless;
determinism under replay comes from the fixture store.
"""

from __future__ import annotations

import logging
from collections.abc import Mapping
from types import MappingProxyType

from .errors import CaptchaDetected
from .fetch import Fetcher, FetchRequest
from .htmldoc import collapse_whitespace, matches, page_text, parse_selector, tokenize, unescape
from .model import RankedResults, Record, SourceId, TweetClaim
from .queries import Encoding, QuerySpec, Truncation, build_query, encode_query
from .urls import PUBLISHERS, article_publisher, host, host_matches, result_link

logger = logging.getLogger(__name__)


class Ranking(Record):
    """How a ranked engine's results page is read, and how eval scores it."""

    label: str  # the engine's name in the eval report
    publisher: str  # the urls.PUBLISHERS key whose article, corpus column "<publisher>_url", is relevant
    web: bool = False  # results are links off _GOOGLE_SITE, "/url?q=" wrappers unwrapped; else the publisher's articles


class EngineSettings(Record):
    """One engine: endpoint template, query spec, selectors, and ranking if it ranks."""

    source: SourceId
    endpoint: str
    spec: QuerySpec
    #: What the page step reads from the engine's results page, as written: the
    #: optional "scope" key confines "results" and "text" to each of its matches,
    #: and the optional "ads", "captcha" and "captcha_text" keys turn those checks on.
    selectors: Mapping[str, str]
    ranking: Ranking | None = None


_GOOGLE = "https://www.google.com/search?q={query}"
_GOOGLE_SITE = "google.com"  # a web search's own pages are on this site
_WORDS = Truncation.WORD_BOUNDARY_PREFIX
_SITE_SELECTORS = {"results": "a[href]"}
_WEB_SELECTORS = {
    "scope": "div#search",
    "results": "a[href]",
    "ads": "div#tads, div#bottomads, [data-text-ad]",
    "captcha": "form#captcha-form, div#recaptcha",
    "captcha_text": "detected unusual traffic",
}
_POLITWOOPS_SELECTORS = {
    "scope": "div.tweet",
    "results": "a[href*=/politwoops/tweet/]",
    "text": ".tweet-content",
}

#: Every engine's defaults, one row per source, in :class:`SourceId` order.
#: The web-snopes row differs from the web row by its query spec's site: filter.
ENGINES = MappingProxyType({
    row.source: row
    for row in (
        EngineSettings(SourceId.SNOPES_SEARCH, "https://www.snopes.com/search/{query}/",
                       QuerySpec(100, Encoding.PERCENT, _WORDS), _SITE_SELECTORS,
                       Ranking("Snopes built-in search", "snopes")),
        EngineSettings(SourceId.REUTERS_SEARCH, "https://www.reuters.com/search/news?sortBy=&dateRange=&blob={query}",
                       QuerySpec(130, Encoding.PLUS, _WORDS), _SITE_SELECTORS,
                       Ranking("Reuters built-in search", "reuters")),
        EngineSettings(SourceId.WEB_SEARCH, _GOOGLE, QuerySpec(200, Encoding.PLUS, _WORDS), _WEB_SELECTORS,
                       Ranking("Web search", "snopes", web=True)),
        EngineSettings(SourceId.WEB_SEARCH_SITE_SNOPES, _GOOGLE,
                       QuerySpec(200, Encoding.PLUS, _WORDS, site_filter=PUBLISHERS["snopes"][0]), _WEB_SELECTORS,
                       Ranking("Web search (site:snopes.com)", "snopes", web=True)),
        # 50-character prefixes are known to work well against the deleted-tweet tracker's search.
        EngineSettings(SourceId.POLITWOOPS, "https://projects.propublica.org/politwoops/index?utf8=%E2%9C%93&q={query}",
                       QuerySpec(50, Encoding.PLUS, Truncation.CHAR_PREFIX), _POLITWOOPS_SELECTORS),
    )
})


def default_engine_settings(source: SourceId) -> EngineSettings:
    """``source``'s row of :data:`ENGINES` (``perfbench/tests`` import this name)."""
    return ENGINES[source]


class PolitwoopsHit(Record):
    """One deleted-tweet record returned by the tracker's search."""

    tweet_text: str
    detail_url: str


_CURLY_QUOTES = str.maketrans({"‘": "'", "’": "'", "“": '"', "”": '"'})


def normalize_text(text: str) -> str:
    """Normalize tweet text for equality matching.

    Decodes HTML entities, maps curly quotes to straight ones, lowercases,
    and collapses whitespace runs to single spaces.
    """
    text = unescape(text)
    text = text.translate(_CURLY_QUOTES)
    return collapse_whitespace(text.lower())


def read_results_page(text: str, selectors: Mapping[str, str]) -> tuple[list[list], bool, bool]:
    """The page's regions, whether any element matches "captcha", and whether
    the lowercased text holds the "captcha_text" marker. A region is each
    outermost element matching "scope" (a web search's result block, a tracker
    card), in document order, or with no "scope" key the whole page, read as
    ``[hrefs, pieces]``: the href of each element under it matching "results"
    that neither matches "ads" nor lies under one, in document order, and the
    text pieces of its first element matching "text" (None if none does). One
    pass of the tokenizer that builds no tree: an element's state is its
    region, whether it lies in an ad, and the pieces its text adds to; the
    text is searched as it arrives, its last ``len(marker) - 1`` characters
    carried over, so a marker split by tags or character references is found."""
    keys = ("scope", "results", "ads", "captcha", "text")
    scope, results, ads, captcha, text_ = (parse_selector(selectors[key]) if selectors.get(key) else () for key in keys)
    # Lowercasing piece by piece differs from lowercasing the whole text only
    # in a capital sigma's final form, which no marker without a sigma can see.
    marker = selectors.get("captcha_text", "").lower()
    carried = len(marker) - 1
    regions: list[list] = [] if scope else [[[], None]]
    challenge = marked = False
    tail = ""

    def open_element(state: tuple, tag: str, attrs: dict) -> tuple:
        nonlocal challenge
        region, in_ad, pieces = state
        in_ad = in_ad or matches(tag, attrs, ads)
        challenge = challenge or matches(tag, attrs, captcha)
        if region is None:
            if matches(tag, attrs, scope):
                regions.append(region := [[], None])
            return region, in_ad, None
        if not in_ad and matches(tag, attrs, results):
            region[0].append(attrs.get("href"))
        if region[1] is None and matches(tag, attrs, text_):
            pieces = region[1] = []
        return region, in_ad, pieces

    def add_text(state: tuple, piece: str) -> None:
        nonlocal marked, tail
        if state[2] is not None:
            state[2].append(piece)
        if marker and not marked:
            window = tail + piece.lower()
            marked = marker in window
            tail = window[max(len(window) - carried, 0):]

    tokenize(text, (None if scope else regions[0], False, None), open_element, add_text)
    return regions, challenge, marked


def _request_page(settings: EngineSettings, claim: TweetClaim, fetcher: Fetcher) -> tuple[str, str, list[list]]:
    """Every engine's page step: (query, final URL, regions) of the row's results
    page for ``claim``, read by its selectors as written. Raises
    :class:`CaptchaDetected` where its "captcha" or "captcha_text" finds a bot challenge."""
    query = build_query(claim, settings.spec)
    url = settings.endpoint.format(query=encode_query(query, settings.spec.encoding))
    response = fetcher.fetch(FetchRequest(url=url))
    regions, challenge, marked = read_results_page(page_text(response), settings.selectors)
    if challenge:
        raise CaptchaDetected(f"{response.final_url}: bot challenge page served")
    if marked:
        raise CaptchaDetected(f"{response.final_url}: bot challenge marker found")
    return query, response.final_url, regions


def ranked_search(settings: EngineSettings, claim: TweetClaim, fetcher: Fetcher) -> RankedResults:
    """Query one ranked-results engine and parse its results page.

    Result links are returned in rank order, redirect wrappers stripped,
    normalized (see :func:`~tweetcheck.urls.result_link`) and with
    duplicates removed (first occurrence wins). Raises
    :class:`CaptchaDetected` when the page carries a bot-challenge marker.
    """
    engine = settings.ranking
    if engine is None:
        raise ValueError(f"{settings.source.value} does not produce ranked URL results")
    query, final_url, regions = _request_page(settings, claim, fetcher)
    urls: dict[str, None] = {}  # first occurrence wins, in rank order
    for href in (href for hrefs, _ in regions for href in hrefs):
        link = result_link(final_url, href, engine.web) if href else None
        if link is None:
            continue
        url, name, path = link
        if (not host_matches(name, _GOOGLE_SITE)) if engine.web else article_publisher(name, path) == engine.publisher:
            urls[url] = None
    return RankedResults(settings.source, query, tuple(urls))


def search_politwoops(settings: EngineSettings, claim: TweetClaim, fetcher: Fetcher) -> list[PolitwoopsHit]:
    """Query the deleted-tweet tracker with the claim's leading characters.

    Each outermost card, the row's "scope", is a region of the page step's
    read: a card nested inside another (as unclosed markup nests them) is part
    of the outer one, whose first "results" link and "text" element it keeps.
    The link is resolved as a result link is, and must lead to the tracker's host.
    """
    _, final_url, regions = _request_page(settings, claim, fetcher)
    project_host = host(settings.endpoint)
    hits: list[PolitwoopsHit] = []
    for hrefs, pieces in regions:
        href = hrefs[0] if hrefs else None
        link = result_link(final_url, href, False) if href else None
        if pieces is None or link is None or link[1] != project_host:
            logger.debug("politwoops: skipping a card without text or a link to the tracker: %r", href)
            continue
        hits.append(PolitwoopsHit(tweet_text="".join(pieces).strip(), detail_url=link[0]))
    return hits


def match_politwoops(claim: TweetClaim, hits: list[PolitwoopsHit]) -> PolitwoopsHit | None:
    """First hit whose stored text equals the claim body after normalization."""
    target = normalize_text(claim.body)
    for hit in hits:
        if normalize_text(hit.tweet_text) == target:
            return hit
    return None
