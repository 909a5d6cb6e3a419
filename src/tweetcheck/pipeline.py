"""End-to-end verification of one claim: query engines, scrape, aggregate.

Verification runs in four stages: search every enabled engine, select the articles to
read, scrape them, and aggregate. The fetch gateway runs the two network stages
concurrently across hosts, one request per host at a time. Selection reads a link only
if it is a publisher's fact-check article by :func:`~tweetcheck.urls.article_publisher`,
the rule a site engine keeps its results by, and walks the engines in source order; the
verdict sorts its evidence by source and rank, so output is deterministic regardless of
which request finished first. An engine whose query ends in one of
:data:`~tweetcheck.errors.QUERY_FAILURES` is skipped with its failure recorded, and the
verdict is computed from whatever evidence the others produced.
"""

from __future__ import annotations

import logging
from collections.abc import Sequence
from functools import partial

from .adapters import (
    EngineSettings,
    PolitwoopsHit,
    match_politwoops,
    ranked_search,
    search_politwoops,
)
from .config import AppConfig
from .errors import QUERY_FAILURES, ParseError, TweetCheckError, describe_failure
from .fetch import Fetcher, FetchRequest
from .model import (
    EvidenceItem,
    RankedResults,
    Record,
    SourceId,
    TruthRating,
    TweetClaim,
    Verdict,
)
from .ratings import scrape_rating
from .urls import article_publisher, canonicalize_article_url, host_and_path
from .verdict import aggregate

logger = logging.getLogger(__name__)

POLITWOOPS_CONFIRMATION = "That tweet was successfully queried on Politwoops"


class VerifyRun(Record):
    """The verdict, and each failed engine's failure as
    :func:`~tweetcheck.errors.describe_failure` words it."""

    verdict: Verdict
    engine_errors: dict[SourceId, str]


def rating_line(rating: TruthRating) -> str:
    """How ``verify`` and ``scrape`` print a scraped rating."""
    if rating.missing:
        return "Truth rating: UNKNOWN (missing)"
    return f"Truth rating: {rating.raw_label}"


def evidence_lines(item: EvidenceItem) -> tuple[str, ...]:
    """How ``verify`` prints one piece of evidence."""
    if item.rating is None:  # a Politwoops match
        return (POLITWOOPS_CONFIRMATION,)
    return (f"Article found at URL: {item.url}", rating_line(item.rating))


def verify_claim(
    claim: TweetClaim,
    config: AppConfig,
    fetcher: Fetcher,
    engines: Sequence[SourceId] | None = None,
) -> VerifyRun:
    """Run the enabled engines over one claim and aggregate a verdict."""
    enabled = [source for source in SourceId if engines is None or source in engines]

    # Search: every engine, concurrently across hosts.
    searched = fetcher.run_per_host(
        [
            (config.engines[source].endpoint, partial(_search, claim, fetcher, config.engines[source]))
            for source in enabled
        ]
    )

    # Select: in source order, so the first engine to reach an article keeps it.
    errors: dict[SourceId, str] = {}
    evidence: list[EvidenceItem] = []
    picks: list[tuple[SourceId, int, str]] = []
    seen_articles: set[str] = set()
    for source, outcome in zip(enabled, searched):
        if isinstance(outcome, QUERY_FAILURES):
            errors[source] = describe_failure(outcome)
        elif isinstance(outcome, RankedResults):
            chosen = _select_articles(outcome, config.max_articles, seen_articles)
            picks.extend((source, rank, url) for rank, url in chosen)
        else:
            match = _politwoops_evidence(claim, outcome)
            if match is not None:
                evidence.append(match)

    # Scrape: every selected article, concurrently across hosts.
    ratings = fetcher.run_per_host(
        [(url, partial(_scrape_article, url, fetcher)) for _, _, url in picks]
    )
    for (source, rank, url), rating in zip(picks, ratings):
        evidence.append(EvidenceItem(source=source, url=url, rank=rank, rating=rating))

    # Aggregate: the verdict sorts its evidence by source, then rank.
    return VerifyRun(verdict=aggregate(claim, evidence), engine_errors=errors)


def _search(
    claim: TweetClaim, fetcher: Fetcher, settings: EngineSettings
) -> RankedResults | list[PolitwoopsHit] | TweetCheckError:
    """The engine's results, or the query failure it ended in."""
    try:
        if settings.ranking is None:
            return search_politwoops(settings, claim, fetcher)
        return ranked_search(settings, claim, fetcher)
    except QUERY_FAILURES as exc:
        return exc


def _select_articles(
    results: RankedResults, max_articles: int, seen_articles: set[str]
) -> list[tuple[int, str]]:
    """(rank, url) of up to ``max_articles`` publisher articles not yet taken."""
    picks: list[tuple[int, str]] = []
    for rank, url in enumerate(results.urls, start=1):
        if len(picks) >= max_articles:
            break
        canonical = canonicalize_article_url(url)
        if article_publisher(*host_and_path(url)) is None or canonical in seen_articles:
            continue
        seen_articles.add(canonical)
        picks.append((rank, url))
    return picks


def _politwoops_evidence(claim: TweetClaim, hits: list[PolitwoopsHit]) -> EvidenceItem | None:
    hit = match_politwoops(claim, hits)
    if hit is None:
        return None
    return EvidenceItem(
        source=SourceId.POLITWOOPS,
        url=hit.detail_url,
        rank=hits.index(hit) + 1,
        matched_text=hit.tweet_text,
    )


def _scrape_article(url: str, fetcher: Fetcher) -> TruthRating:
    """The article's rating; a missing one when its query fails, as for a non-2xx page or one whose final URL
    is no fact-check article by :func:`article_publisher` (e.g. a consent page, or an index of other claims)."""
    try:
        page = fetcher.fetch(FetchRequest(url=url))
        if article_publisher(*host_and_path(page.final_url)) is None:
            raise ParseError(f"{page.final_url}: not a fact-check article")
        return scrape_rating(page)
    except QUERY_FAILURES as exc:
        logger.warning("could not scrape %s: %s", url, exc)
        return TruthRating("")
