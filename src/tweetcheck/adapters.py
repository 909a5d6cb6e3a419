"""One search adapter per evidence source.

Each adapter builds the engine's query from a claim, issues it through the
fetch gateway, and parses the returned page into ranked result URLs (or,
for the deleted-tweet tracker, matched tweet records). Adapters are
stateless; determinism under replay comes from the fixture store.

HTML extraction runs off per-adapter selector tables so site markup drift
can be absorbed by configuration instead of code changes. Non-2xx fetches
never raise here: the adapter logs the status and returns empty results.
"""

from __future__ import annotations

import html
import logging
import re
from dataclasses import dataclass, replace
from typing import Mapping, Optional
from urllib.parse import parse_qs, urljoin, urlsplit, urlunsplit

from .errors import CaptchaDetected
from .fetch import Fetcher, FetchRequest, FetchResponse
from .htmldoc import Element, parse_response
from .model import RankedResults, SourceId, TweetClaim
from .queries import QuerySpec, build_query, default_spec, encode_query

logger = logging.getLogger(__name__)

DEFAULT_ENDPOINTS = {
    SourceId.SNOPES_SEARCH: "https://www.snopes.com/search/{query}/",
    SourceId.REUTERS_SEARCH: "https://www.reuters.com/search/news?sortBy=&dateRange=&blob={query}",
    SourceId.WEB_SEARCH: "https://www.google.com/search?q={query}",
    SourceId.WEB_SEARCH_SITE_SNOPES: "https://www.google.com/search?q={query}",
    SourceId.POLITWOOPS: "https://projects.propublica.org/politwoops/index?utf8=%E2%9C%93&q={query}",
}

DEFAULT_SELECTORS: dict[SourceId, dict[str, str]] = {
    SourceId.SNOPES_SEARCH: {"results": "a[href]"},
    SourceId.REUTERS_SEARCH: {"results": "a[href]"},
    SourceId.WEB_SEARCH: {
        "results": "div#search a[href]",
        "ads": "div#tads, div#bottomads, [data-text-ad]",
        "captcha": "form#captcha-form, div#recaptcha",
        "captcha_text": "detected unusual traffic",
    },
    SourceId.WEB_SEARCH_SITE_SNOPES: {
        "results": "div#search a[href]",
        "ads": "div#tads, div#bottomads, [data-text-ad]",
        "captcha": "form#captcha-form, div#recaptcha",
        "captcha_text": "detected unusual traffic",
    },
    SourceId.POLITWOOPS: {
        "cards": "div.tweet",
        "text": ".tweet-content",
        "handle": ".screen-name",
        "link": "a[href*=/politwoops/tweet/]",
    },
}


@dataclass(frozen=True)
class EngineSettings:
    """Everything one adapter needs: endpoint template, query spec, selectors."""

    source: SourceId
    endpoint: str
    spec: QuerySpec
    selectors: Mapping[str, str]


def default_engine_settings(source: SourceId) -> EngineSettings:
    return EngineSettings(
        source=source,
        endpoint=DEFAULT_ENDPOINTS[source],
        spec=default_spec(source),
        selectors=DEFAULT_SELECTORS[source],
    )


@dataclass(frozen=True)
class PolitwoopsHit:
    """One deleted-tweet record returned by the tracker's search."""

    tweet_text: str
    detail_url: str
    handle: str


_CURLY_QUOTES = str.maketrans({"‘": "'", "’": "'", "“": '"', "”": '"'})
_WS_RUN = re.compile(r"\s+")


def normalize_text(text: str) -> str:
    """Normalize tweet text for equality matching.

    Decodes HTML entities, maps curly quotes to straight ones, lowercases,
    and collapses whitespace runs to single spaces.
    """
    text = html.unescape(text)
    text = text.translate(_CURLY_QUOTES)
    return _WS_RUN.sub(" ", text.lower()).strip()


def _host_matches(host: str, domain: str) -> bool:
    return host == domain or host.endswith("." + domain)


def _normalize_result_url(url: str) -> str:
    """Dedup basis for SERP links: lowercase scheme/host, drop fragment."""
    parts = urlsplit(url)
    return urlunsplit(
        (parts.scheme.lower(), parts.netloc.lower(), parts.path, parts.query, "")
    )


def _request_page(
    fetcher: Fetcher, settings: EngineSettings, query: str
) -> tuple[str, Optional[FetchResponse]]:
    url = settings.endpoint.format(query=encode_query(query, settings.spec.encoding))
    response = fetcher.fetch(FetchRequest(url=url))
    if not response.ok:
        logger.warning(
            "%s: HTTP %s for %s; treating as no results",
            settings.source.value,
            response.status,
            url,
        )
        return url, None
    return url, response


def _extract_links(root: Element, base_url: str, selector: str) -> list[str]:
    seen: set[str] = set()
    links: list[str] = []
    for anchor in root.select(selector):
        href = anchor.get("href")
        if not href:
            continue
        try:
            absolute = urljoin(base_url, href)
            scheme = urlsplit(absolute).scheme
        except ValueError:  # unparseable, e.g. an unbalanced "[" in the host
            continue
        if scheme not in ("http", "https"):
            continue
        normalized = _normalize_result_url(absolute)
        if normalized in seen:
            continue
        seen.add(normalized)
        links.append(normalized)
    return links


def search_snopes(
    claim: TweetClaim, fetcher: Fetcher, settings: Optional[EngineSettings] = None
) -> RankedResults:
    """Query the Snopes built-in search; keep fact-check article links only."""
    settings = settings or default_engine_settings(SourceId.SNOPES_SEARCH)
    query = build_query(claim, settings.spec)
    _, response = _request_page(fetcher, settings, query)
    if response is None:
        return RankedResults(SourceId.SNOPES_SEARCH, query, ())
    root = parse_response(response)
    urls = [
        url
        for url in _extract_links(root, response.final_url, settings.selectors["results"])
        if _host_matches(urlsplit(url).hostname or "", "snopes.com")
        and urlsplit(url).path.startswith("/fact-check/")
    ]
    return RankedResults(SourceId.SNOPES_SEARCH, query, tuple(urls))


def search_reuters(
    claim: TweetClaim, fetcher: Fetcher, settings: Optional[EngineSettings] = None
) -> RankedResults:
    """Query the Reuters built-in search; keep article-shaped links only."""
    settings = settings or default_engine_settings(SourceId.REUTERS_SEARCH)
    query = build_query(claim, settings.spec)
    _, response = _request_page(fetcher, settings, query)
    if response is None:
        return RankedResults(SourceId.REUTERS_SEARCH, query, ())
    root = parse_response(response)
    urls = [
        url
        for url in _extract_links(root, response.final_url, settings.selectors["results"])
        if _host_matches(urlsplit(url).hostname or "", "reuters.com")
        and urlsplit(url).path.startswith("/article/")
    ]
    return RankedResults(SourceId.REUTERS_SEARCH, query, tuple(urls))


def _unwrap_redirect(url: str) -> str:
    """Strip search-engine redirect wrappers like /url?q=<target>."""
    parts = urlsplit(url)
    if parts.path == "/url":
        params = parse_qs(parts.query)
        for key in ("q", "url"):
            if params.get(key):
                return params[key][0]
    return url


def search_web(
    claim: TweetClaim,
    fetcher: Fetcher,
    settings: Optional[EngineSettings] = None,
    site_filter: Optional[str] = None,
) -> RankedResults:
    """Query the general web search engine and parse its results page.

    Organic result links are returned in rank order with redirect wrappers
    stripped and duplicates removed (first occurrence wins). Raises
    :class:`CaptchaDetected` when the page carries a bot-challenge marker.
    """
    source = (
        SourceId.WEB_SEARCH_SITE_SNOPES if site_filter == "snopes.com" else SourceId.WEB_SEARCH
    )
    settings = settings or default_engine_settings(source)
    spec = settings.spec
    if site_filter is not None and spec.site_filter != site_filter:
        spec = replace(spec, source=source, site_filter=site_filter)
    query = build_query(claim, spec)
    _, response = _request_page(fetcher, settings, query)
    if response is None:
        return RankedResults(source, query, ())
    root = parse_response(response)
    _check_captcha(root, settings, response.final_url)

    ads = root.select(settings.selectors["ads"]) if settings.selectors.get("ads") else []
    # ids stay unique while ``root`` keeps the whole tree alive
    ad_ids = {id(el) for ad in ads for el in (ad, *ad.iter())}
    seen: set[str] = set()
    urls: list[str] = []
    for anchor in root.select(settings.selectors["results"]):
        href = anchor.get("href")
        if not href:
            continue
        if id(anchor) in ad_ids:
            continue
        try:
            absolute = _unwrap_redirect(urljoin(response.final_url, href))
            parts = urlsplit(absolute)
        except ValueError:  # unparseable, e.g. an unbalanced "[" in the host
            continue
        if parts.scheme not in ("http", "https"):
            continue
        if _host_matches((parts.hostname or ""), "google.com"):
            continue  # navigation/preferences links, not results
        normalized = _normalize_result_url(absolute)
        if normalized in seen:
            continue
        seen.add(normalized)
        urls.append(normalized)
    return RankedResults(source, query, tuple(urls))


def _check_captcha(root: Element, settings: EngineSettings, url: str) -> None:
    selector = settings.selectors.get("captcha")
    if selector and root.select(selector):
        raise CaptchaDetected(f"{url}: bot challenge page served")
    marker = settings.selectors.get("captcha_text")
    if marker and marker.lower() in root.text().lower():
        raise CaptchaDetected(f"{url}: bot challenge marker found")


def search_politwoops(
    claim: TweetClaim, fetcher: Fetcher, settings: Optional[EngineSettings] = None
) -> list[PolitwoopsHit]:
    """Query the deleted-tweet tracker with the claim's leading characters."""
    settings = settings or default_engine_settings(SourceId.POLITWOOPS)
    query = build_query(claim, settings.spec)
    _, response = _request_page(fetcher, settings, query)
    if response is None:
        return []
    root = parse_response(response)
    project_host = (urlsplit(settings.endpoint).hostname or "").lower()
    hits: list[PolitwoopsHit] = []
    for card in root.select(settings.selectors["cards"]):
        text_el = card.select_one(settings.selectors["text"])
        link_el = card.select_one(settings.selectors["link"])
        if text_el is None or link_el is None or not link_el.get("href"):
            logger.debug("politwoops: skipping card without text/link")
            continue
        try:
            detail_url = urljoin(response.final_url, link_el.get("href"))
            detail_host = (urlsplit(detail_url).hostname or "").lower()
        except ValueError:  # unparseable, e.g. an unbalanced "[" in the host
            logger.debug("politwoops: skipping unparseable link %r", link_el.get("href"))
            continue
        if detail_host != project_host:
            logger.debug("politwoops: skipping off-host link %s", detail_url)
            continue
        handle_el = card.select_one(settings.selectors["handle"])
        handle = handle_el.text().strip().lstrip("@") if handle_el is not None else ""
        hits.append(
            PolitwoopsHit(
                tweet_text=text_el.text().strip(),
                detail_url=detail_url,
                handle=handle,
            )
        )
    return hits


def match_politwoops(claim: TweetClaim, hits: list[PolitwoopsHit]) -> Optional[PolitwoopsHit]:
    """First hit whose stored text equals the claim body after normalization."""
    target = normalize_text(claim.body)
    for hit in hits:
        if normalize_text(hit.tweet_text) == target:
            return hit
    return None


def ranked_search(
    source: SourceId,
    claim: TweetClaim,
    fetcher: Fetcher,
    settings: Optional[EngineSettings] = None,
) -> RankedResults:
    """Dispatch to the adapter for one ranked-results source."""
    if source is SourceId.SNOPES_SEARCH:
        return search_snopes(claim, fetcher, settings)
    if source is SourceId.REUTERS_SEARCH:
        return search_reuters(claim, fetcher, settings)
    if source is SourceId.WEB_SEARCH:
        return search_web(claim, fetcher, settings)
    if source is SourceId.WEB_SEARCH_SITE_SNOPES:
        return search_web(claim, fetcher, settings, site_filter="snopes.com")
    raise ValueError(f"{source.value} does not produce ranked URL results")
