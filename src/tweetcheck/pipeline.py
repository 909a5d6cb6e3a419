"""End-to-end verification of one claim: query engines, scrape, aggregate.

Verification runs in four stages: search every enabled engine, select the
articles to read, scrape them, and aggregate. The fetch gateway runs the
two network stages concurrently across hosts, one request per host at a
time. Selection and aggregation walk the engines in source declaration
order, so output and evidence ordering are deterministic regardless of
which request finished first. Per-engine fetch problems degrade
gracefully: the engine is skipped with a recorded error and the verdict is
computed from whatever evidence the others produced.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import partial
from typing import Optional, Sequence, Union

from .adapters import (
    EngineSettings,
    PolitwoopsHit,
    match_politwoops,
    ranked_search,
    search_politwoops,
)
from .config import AppConfig
from .errors import CaptchaDetected, FixtureMiss, NetworkError, ParseError
from .fetch import Fetcher, FetchRequest
from .model import (
    EvidenceItem,
    RankedResults,
    SourceId,
    TruthRating,
    TweetClaim,
    Verdict,
    classify_rating,
)
from .ratings import scrape_rating
from .urls import canonicalize_article_url, identify_publisher
from .verdict import aggregate

logger = logging.getLogger(__name__)

POLITWOOPS_CONFIRMATION = "That tweet was successfully queried on Politwoops"


@dataclass(frozen=True)
class VerifyRun:
    """What one verification produced: the verdict plus presentable output."""

    verdict: Verdict
    lines: tuple[str, ...]
    engine_errors: dict[SourceId, str]
    engines_run: int


def rating_line(rating: TruthRating) -> str:
    """How ``verify`` and ``scrape`` print a scraped rating."""
    if rating.missing:
        return "Truth rating: UNKNOWN (missing)"
    return f"Truth rating: {rating.raw_label}"


def verify_claim(
    claim: TweetClaim,
    config: AppConfig,
    fetcher: Fetcher,
    engines: Optional[Sequence[SourceId]] = None,
) -> VerifyRun:
    """Run the enabled engines over one claim and aggregate a verdict."""
    enabled = [source for source in SourceId if engines is None or source in engines]
    settings = {source: config.engine_settings(source) for source in enabled}

    # Search: every engine, concurrently across hosts.
    searched = fetcher.run_per_host(
        [
            (settings[source].endpoint, partial(_search, source, claim, fetcher, settings[source]))
            for source in enabled
        ]
    )

    # Select: in source order, so the first engine to reach an article keeps it.
    errors: dict[SourceId, str] = {}
    selected: dict[SourceId, list[tuple[int, str]]] = {}
    seen_articles: set[str] = set()
    for source, outcome in zip(enabled, searched):
        if isinstance(outcome, Exception):
            errors[source] = _engine_error(source, outcome)
        elif isinstance(outcome, RankedResults):
            selected[source] = _select_articles(outcome, config.max_articles, seen_articles)

    # Scrape: every selected article, concurrently across hosts.
    urls = [url for picks in selected.values() for _, url in picks]
    ratings = iter(
        fetcher.run_per_host(
            [(url, partial(_scrape_article, url, fetcher, config.rating_selectors)) for url in urls]
        )
    )

    # Aggregate: lines and evidence in source order, then the verdict.
    lines: list[str] = []
    evidence: list[EvidenceItem] = []
    for source, outcome in zip(enabled, searched):
        if source is SourceId.POLITWOOPS and source not in errors:
            _add_politwoops(claim, outcome, lines, evidence)
        for rank, url in selected.get(source, ()):
            rating = next(ratings)
            if isinstance(rating, Exception):
                raise rating
            evidence.append(EvidenceItem(source=source, url=url, rank=rank, rating=rating))
            lines.append(f"Article found at URL: {url}")
            lines.append(rating_line(rating))

    return VerifyRun(
        verdict=aggregate(claim, evidence),
        lines=tuple(lines),
        engine_errors=errors,
        engines_run=len(enabled),
    )


def _search(
    source: SourceId, claim: TweetClaim, fetcher: Fetcher, settings: EngineSettings
) -> Union[RankedResults, list[PolitwoopsHit]]:
    if source is SourceId.POLITWOOPS:
        return search_politwoops(claim, fetcher, settings)
    return ranked_search(source, claim, fetcher, settings)


def _engine_error(source: SourceId, exc: Exception) -> str:
    """The recorded error for an engine whose search failed; re-raises the unexpected."""
    if isinstance(exc, (NetworkError, FixtureMiss)):
        logger.warning("%s unavailable: %s", source.value, exc)
        return str(exc)
    if isinstance(exc, CaptchaDetected):
        logger.warning(
            "%s served a bot challenge, back off and retry later: %s", source.value, exc
        )
        return f"bot challenge: {exc}"
    if isinstance(exc, ParseError):
        logger.warning("%s returned an unparseable page: %s", source.value, exc)
        return f"unparseable page: {exc}"
    raise exc


def _select_articles(
    results: RankedResults, max_articles: int, seen_articles: set[str]
) -> list[tuple[int, str]]:
    """(rank, url) of up to ``max_articles`` publisher articles not yet taken."""
    picks: list[tuple[int, str]] = []
    for rank, url in enumerate(results.urls, start=1):
        if len(picks) >= max_articles:
            break
        if identify_publisher(url) is None:
            continue
        canonical = canonicalize_article_url(url)
        if canonical in seen_articles:
            continue
        seen_articles.add(canonical)
        picks.append((rank, url))
    return picks


def _add_politwoops(
    claim: TweetClaim,
    hits: list[PolitwoopsHit],
    lines: list[str],
    evidence: list[EvidenceItem],
) -> None:
    hit = match_politwoops(claim, hits)
    if hit is None:
        return
    lines.append(POLITWOOPS_CONFIRMATION)
    evidence.append(
        EvidenceItem(
            source=SourceId.POLITWOOPS,
            url=hit.detail_url,
            rank=hits.index(hit) + 1,
            matched_text=hit.tweet_text,
        )
    )


def _scrape_article(url: str, fetcher: Fetcher, selectors) -> TruthRating:
    try:
        page = fetcher.fetch(FetchRequest(url=url))
        if not page.ok:
            logger.warning("article %s returned HTTP %s", url, page.status)
            return classify_rating("")
        if identify_publisher(page.final_url) is None:  # e.g. a consent page
            logger.warning("article %s redirected off the publisher to %s", url, page.final_url)
            return classify_rating("")
        return scrape_rating(page, selectors)
    except (NetworkError, FixtureMiss, ParseError) as exc:
        logger.warning("could not scrape %s: %s", url, exc)
        return classify_rating("")
