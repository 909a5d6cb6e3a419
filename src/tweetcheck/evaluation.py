"""Run search engines over the ground-truth corpus and score MRR / P@1.

Relevance is binary: a result counts as relevant when its canonical
article identity equals the record's known article URL. Means are computed
in exact rational arithmetic and rendered to four decimal places.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .adapters import EngineSettings, ranked_search
from .errors import (
    CaptchaDetected,
    EmptyDatasetError,
    FixtureMiss,
    MissingFixtures,
    NetworkError,
    ParseError,
)
from .dataset import GroundTruthRecord
from .fetch import Fetcher
from .model import RankedResults, SourceId, TweetClaim
from .urls import canonicalize_article_url

logger = logging.getLogger(__name__)

#: Sources that produce ranked URL lists and can be scored against the corpus.
EVAL_SOURCES = (
    SourceId.SNOPES_SEARCH,
    SourceId.REUTERS_SEARCH,
    SourceId.WEB_SEARCH,
    SourceId.WEB_SEARCH_SITE_SNOPES,
)

DISPLAY_NAMES = {
    SourceId.SNOPES_SEARCH: "Snopes built-in search",
    SourceId.REUTERS_SEARCH: "Reuters built-in search",
    SourceId.WEB_SEARCH: "Web search",
    SourceId.WEB_SEARCH_SITE_SNOPES: "Web search (site:snopes.com)",
    SourceId.POLITWOOPS: "Politwoops",
}


@dataclass(frozen=True)
class RankScore:
    """Scoring fragment for one query: where the relevant result landed."""

    rank_of_relevant: Optional[int]
    reciprocal_rank: Fraction
    p_at_1: int


@dataclass(frozen=True)
class QueryOutcome:
    """Per-record scoring for one engine."""

    record_id: str
    source: SourceId
    rank_of_relevant: Optional[int]
    reciprocal_rank: Fraction
    p_at_1: int
    error: Optional[str] = None

    def __post_init__(self):
        if self.rank_of_relevant is None:
            if self.reciprocal_rank != 0 or self.p_at_1 != 0:
                raise ValueError("absent relevant result must score rr=0, p@1=0")
        else:
            if self.rank_of_relevant < 1:
                raise ValueError("rank_of_relevant must be >= 1")
            if self.reciprocal_rank != Fraction(1, self.rank_of_relevant):
                raise ValueError("reciprocal_rank must equal 1/rank")
            if self.p_at_1 != (1 if self.rank_of_relevant == 1 else 0):
                raise ValueError("p_at_1 must mark exactly rank 1")


@dataclass(frozen=True)
class EngineReport:
    """All outcomes for one engine plus their exact means."""

    source: SourceId
    mrr: Fraction
    mean_p_at_1: Fraction
    outcomes: tuple[QueryOutcome, ...]

    def __post_init__(self):
        if not self.outcomes:
            raise ValueError("a report needs at least one outcome; means are undefined")
        count = len(self.outcomes)
        if self.mrr != sum((o.reciprocal_rank for o in self.outcomes), Fraction(0)) / count:
            raise ValueError("mrr must be the arithmetic mean of the outcomes' reciprocal ranks")
        if self.mean_p_at_1 != Fraction(sum(o.p_at_1 for o in self.outcomes), count):
            raise ValueError("mean_p_at_1 must be the arithmetic mean of the outcomes' p@1")


def reciprocal_rank(results: RankedResults, relevant: str) -> RankScore:
    """Score one result list against the known relevant article URL.

    Both sides are canonicalized before comparison. An absent relevant
    result scores rr=0 and p@1=0.
    """
    target = canonicalize_article_url(relevant)
    for position, url in enumerate(results.urls, start=1):
        if canonicalize_article_url(url) == target:
            return RankScore(position, Fraction(1, position), 1 if position == 1 else 0)
    return RankScore(None, Fraction(0), 0)


def _relevant_url(source: SourceId, record: GroundTruthRecord) -> Optional[str]:
    if source is SourceId.REUTERS_SEARCH:
        return record.reuters_url
    return record.snopes_url


def evaluate_engine(
    source: SourceId,
    records: Sequence[GroundTruthRecord],
    fetcher: Fetcher,
    settings: Optional[EngineSettings] = None,
) -> EngineReport:
    """Query one engine for every record and compute MRR and mean P@1.

    Per-record fetch failures score zero and are flagged in the outcome.
    After a bot challenge the engine is not queried again: the records left
    score zero, flagged as skipped. Missing fixtures are collected across
    the whole run and raised together as :class:`MissingFixtures` so one
    pass reports every gap.
    """
    if source not in EVAL_SOURCES:
        raise ValueError(f"{source.value} cannot be evaluated against ranked results")
    if not records:
        raise EmptyDatasetError("cannot evaluate an empty dataset")

    outcomes: list[QueryOutcome] = []
    misses: list[FixtureMiss] = []
    challenged = False
    for record in records:
        claim = TweetClaim(body=record.tweet_body)
        relevant = _relevant_url(source, record)
        error: Optional[str] = None
        score = RankScore(None, Fraction(0), 0)
        if challenged:
            error = "skipped after a bot challenge"
        else:
            try:
                results = ranked_search(source, claim, fetcher, settings)
                if relevant is not None:
                    score = reciprocal_rank(results, relevant)
                else:
                    error = "no relevant URL recorded for this engine"
            except FixtureMiss as miss:
                miss.record_id = record.id
                misses.append(miss)
                error = f"missing fixture: {miss.url}"
            except (NetworkError, ParseError, CaptchaDetected) as exc:
                logger.warning("record %s via %s failed: %s", record.id, source.value, exc)
                error = f"{type(exc).__name__}: {exc}"
                challenged = isinstance(exc, CaptchaDetected)
        outcomes.append(
            QueryOutcome(
                record_id=record.id,
                source=source,
                rank_of_relevant=score.rank_of_relevant,
                reciprocal_rank=score.reciprocal_rank,
                p_at_1=score.p_at_1,
                error=error,
            )
        )
    if misses:
        raise MissingFixtures(misses)

    count = len(outcomes)
    mrr = sum((o.reciprocal_rank for o in outcomes), Fraction(0)) / count
    mean_p1 = Fraction(sum(o.p_at_1 for o in outcomes), count)
    return EngineReport(source=source, mrr=mrr, mean_p_at_1=mean_p1, outcomes=tuple(outcomes))


def _fmt(value: Fraction) -> str:
    return f"{float(value):.4f}"


def render_report(reports: Sequence[EngineReport], fmt: str = "table") -> str:
    """Render engine reports as an aligned table or machine-readable lines.

    The machine format is tab-separated with columns (record_id, source,
    rank_or_dash, rr, p_at_1) and one "#SUMMARY" line per engine.
    """
    if fmt == "table":
        header = ("Search engine", "MRR", "Mean P@1")
        rows = [header] + [
            (DISPLAY_NAMES[r.source], _fmt(r.mrr), _fmt(r.mean_p_at_1)) for r in reports
        ]
        widths = [max(len(row[col]) for row in rows) for col in range(3)]
        lines = ["  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip() for row in rows]
        return "\n".join(lines) + "\n"
    if fmt == "machine":
        lines = []
        for report in reports:
            for o in report.outcomes:
                rank = str(o.rank_of_relevant) if o.rank_of_relevant is not None else "-"
                lines.append(
                    "\t".join(
                        (o.record_id, o.source.value, rank, _fmt(o.reciprocal_rank), str(o.p_at_1))
                    )
                )
            lines.append(
                "\t".join(
                    ("#SUMMARY", report.source.value, _fmt(report.mrr), _fmt(report.mean_p_at_1))
                )
            )
        return "\n".join(lines) + "\n" if lines else ""
    raise ValueError(f"unknown report format: {fmt!r}")
