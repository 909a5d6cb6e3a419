"""Run search engines over the ground-truth corpus and score MRR / P@1.

Relevance is binary: a result counts as relevant when its canonical
article identity equals the record's known article URL. The one stored
fact per query is the rank of that article; reciprocal rank, P@1 and the
engine means are derived from the ranks in exact rational arithmetic and
rendered to four decimal places. :mod:`fractions` is imported where a score
is computed, so only a process that scores loads it.

``tweetcheck eval`` and ``tweetcheck record`` both run :func:`evaluate_engine`
per engine; ``record`` runs it with a recording fetcher. A failed query, a
replay fixture miss included, is one more outcome of the report.
"""

from __future__ import annotations

from collections.abc import Sequence

from .adapters import ENGINES, EngineSettings, ranked_search
from .errors import QUERY_FAILURES, CaptchaDetected, TweetCheckError, describe_failure
from .dataset import GroundTruthRecord
from .fetch import Fetcher
from .model import RankedResults, Record, SourceId, TweetClaim
from .urls import canonicalize_article_url

#: Sources that produce ranked URL lists and can be scored against the corpus.
EVAL_SOURCES = tuple(source for source, row in ENGINES.items() if row.ranking is not None)

#: The error of a record not queried because its engine served a bot challenge earlier.
SKIPPED = "skipped after a bot challenge"
#: The error of an answered query the corpus has no article to score against.
NO_RELEVANT_URL = "no relevant URL recorded for this engine"


class QueryOutcome(Record):
    """Per-record scoring for one engine: where the relevant result landed.

    ``failure`` is the exception class a failed query ended in (for a
    skipped one, :class:`CaptchaDetected`), and ``error`` how it is worded.
    """

    record_id: str
    source: SourceId
    rank_of_relevant: int | None
    error: str | None = None
    failure: type[TweetCheckError] | None = None

    def __post_init__(self):
        if self.rank_of_relevant is not None and self.rank_of_relevant < 1:
            raise ValueError("rank_of_relevant must be >= 1")

    @property
    def reciprocal_rank(self) -> Fraction:
        """1/rank, or 0 when the relevant result is absent."""
        from fractions import Fraction

        return Fraction(1, self.rank_of_relevant) if self.rank_of_relevant else Fraction(0)

    @property
    def p_at_1(self) -> int:
        return 1 if self.rank_of_relevant == 1 else 0

    @property
    def failed(self) -> bool:
        """True when the query failed or was skipped; an unscorable answer is not a failure."""
        return self.failure is not None


class EngineReport(Record):
    """All outcomes for one engine; the means are derived from them."""

    source: SourceId
    outcomes: tuple[QueryOutcome, ...]

    def __post_init__(self):
        if not self.outcomes:
            raise ValueError("a report needs at least one outcome; means are undefined")

    @property
    def mrr(self) -> Fraction:
        from fractions import Fraction

        return sum((o.reciprocal_rank for o in self.outcomes), Fraction(0)) / len(self.outcomes)

    @property
    def mean_p_at_1(self) -> Fraction:
        from fractions import Fraction

        return Fraction(sum(o.p_at_1 for o in self.outcomes), len(self.outcomes))


def reciprocal_rank(results: RankedResults, relevant: str, record_id: str = "") -> QueryOutcome:
    """Score one result list against the known relevant article URL.

    Both sides are canonicalized before comparison. An absent relevant
    result scores rr=0 and p@1=0.
    """
    target = canonicalize_article_url(relevant)
    for position, url in enumerate(results.urls, start=1):
        if canonicalize_article_url(url) == target:
            return QueryOutcome(record_id, results.source, position)
    return QueryOutcome(record_id, results.source, None)


def evaluate_engine(settings: EngineSettings, records: Sequence[GroundTruthRecord], fetcher: Fetcher) -> EngineReport:
    """Query one engine for every record, in order, and score where the relevant article landed.

    A record whose query failed scores zero, and its outcome carries the
    failure as :func:`~tweetcheck.errors.describe_failure` words it. After
    a bot challenge the engine is not queried again: the records left score
    zero with the error :data:`SKIPPED`. A record is queried even when the
    corpus names no article for this engine (so ``record`` captures its
    page); its outcome then carries :data:`NO_RELEVANT_URL`. A failed query never raises: a
    replay fixture miss is one more failed outcome, and the run goes on, so one pass reports every
    failure. An engine with no ranked results raises :func:`ranked_search`'s :class:`ValueError`.
    """
    source = settings.source
    outcomes: list[QueryOutcome] = []
    challenged = False
    for record in records:
        if challenged:
            outcomes.append(QueryOutcome(record.id, source, None, SKIPPED, CaptchaDetected))
            continue
        try:
            results = ranked_search(settings, TweetClaim(body=record.tweet_body), fetcher)
        except QUERY_FAILURES as exc:
            challenged = isinstance(exc, CaptchaDetected)
            outcomes.append(QueryOutcome(record.id, source, None, describe_failure(exc), type(exc)))
            continue
        relevant = getattr(record, f"{settings.ranking.publisher}_url")
        if relevant is None:
            outcomes.append(QueryOutcome(record.id, source, None, NO_RELEVANT_URL))
        else:
            outcomes.append(reciprocal_rank(results, relevant, record.id))
    return EngineReport(source, tuple(outcomes))


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
            (ENGINES[r.source].ranking.label, _fmt(r.mrr), _fmt(r.mean_p_at_1)) for r in reports
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
