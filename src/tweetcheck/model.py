"""Shared domain vocabulary: claims, evidence, ratings, verdicts, ranked results.

Every value type here is immutable after construction and safe to share
between threads. The two operations (:func:`classify_rating` and
:func:`implied_attribution`) are pure functions, and a :class:`Verdict`'s
outcome is derived from its evidence each time it is read.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional


class SourceId(Enum):
    """The closed set of evidence sources. Adapters register against exactly one."""

    SNOPES_SEARCH = "snopes"
    REUTERS_SEARCH = "reuters"
    WEB_SEARCH = "web"
    WEB_SEARCH_SITE_SNOPES = "web-snopes"
    POLITWOOPS = "politwoops"


#: Declaration order of sources; used for deterministic evidence/report ordering.
SOURCE_ORDER = {source: index for index, source in enumerate(SourceId)}


class RatingKind(Enum):
    """Normalized truth-rating categories extracted from fact-check articles."""

    TRUE = "True"
    FALSE = "False"
    MIXTURE = "Mixture"
    MISATTRIBUTED = "Misattributed"
    CORRECT_ATTRIBUTION = "Correct Attribution"
    SATIRE = "Satire"
    UNKNOWN = "Unknown"


class Outcome(Enum):
    """Verdict categories for an alleged tweet; also what one piece of
    evidence implies, Unverifiable meaning it implies nothing."""

    AUTHENTIC = "Authentic"
    FABRICATED = "Fabricated"
    UNVERIFIABLE = "Unverifiable"


#: Raw label (lowercased, trailing punctuation stripped) -> rating kind.
#: Unmapped labels classify as UNKNOWN; never raise.
RATING_LABEL_TABLE = {
    "true": RatingKind.TRUE,
    "correct attribution": RatingKind.CORRECT_ATTRIBUTION,
    "false": RatingKind.FALSE,
    "fake": RatingKind.FALSE,
    "fabricated": RatingKind.FALSE,
    "misattributed": RatingKind.MISATTRIBUTED,
    "mixture": RatingKind.MIXTURE,
    "partly false": RatingKind.MIXTURE,
    "labeled satire": RatingKind.SATIRE,
    "satire": RatingKind.SATIRE,
}

_LABEL_TRAILING_PUNCT = ".!?,:;"


@dataclass(frozen=True)
class TweetClaim:
    """The alleged tweet under verification.

    Args:
        body: full alleged tweet text; must be non-empty after trimming,
            at most 4000 characters (real tweets are far shorter, but quoted
            threads and notes may exceed 280) and encodable as UTF-8, which
            a command-line argument holding bytes that are not UTF-8 is not.
    """

    body: str

    def __post_init__(self):
        if not self.body.strip():
            raise ValueError("claim body must be non-empty after trimming")
        if len(self.body) > 4000:
            raise ValueError("claim body exceeds the 4000 character sanity bound")
        try:
            self.body.encode("utf-8")
        except UnicodeEncodeError:  # a lone surrogate
            raise ValueError("claim body is not UTF-8 text") from None


@dataclass(frozen=True)
class TruthRating:
    """A rating scraped from a fact-check article.

    ``raw_label`` is preserved verbatim (case and punctuation) for audit.
    ``missing`` is set when the article had no rating block at all.
    """

    kind: RatingKind
    raw_label: str
    missing: bool = False

    def __post_init__(self):
        if self.kind is RatingKind.UNKNOWN and not self.raw_label and not self.missing:
            raise ValueError("an UNKNOWN rating with no label must carry the missing flag")


@dataclass(frozen=True)
class EvidenceItem:
    """One found artifact: a fact-check article or a Politwoops record.

    Politwoops evidence carries ``matched_text`` (the stored tweet text that
    matched) and no rating; fact-check evidence carries a rating (possibly
    UNKNOWN) and no matched text.
    """

    source: SourceId
    url: str
    rank: int
    rating: Optional[TruthRating] = None
    matched_text: Optional[str] = None

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("rank must be >= 1")
        if self.source is SourceId.POLITWOOPS:
            if self.matched_text is None or self.rating is not None:
                raise ValueError("Politwoops evidence needs matched_text and no rating")
        else:
            if self.rating is None or self.matched_text is not None:
                raise ValueError("fact-check evidence needs a rating and no matched_text")

    def implication(self) -> Outcome:
        """What this item implies: a tracker match that the tweet is authentic,
        a rating what :func:`implied_attribution` says."""
        if self.matched_text is not None:
            return Outcome.AUTHENTIC
        assert self.rating is not None
        return implied_attribution(self.rating)


@dataclass(frozen=True)
class Verdict:
    """One claim's evidence, sorted by source then rank (see
    :mod:`tweetcheck.verdict`); the outcome and the conflict flag are read
    from it.

    The outcome is Authentic if any item implies it, else Fabricated if any
    item implies that, else Unverifiable. Evidence that the tweet exists
    outranks a fabrication claim: a preserved deleted tweet is primary-source
    proof, while an editorial "False" may be about the tweet's content rather
    than its attribution. ``conflict`` is true when items imply both, so the
    disagreement is surfaced rather than hidden.
    """

    evidence: tuple[EvidenceItem, ...]

    @property
    def outcome(self) -> Outcome:
        implied = {item.implication() for item in self.evidence}
        for outcome in (Outcome.AUTHENTIC, Outcome.FABRICATED):
            if outcome in implied:
                return outcome
        return Outcome.UNVERIFIABLE

    @property
    def conflict(self) -> bool:
        return {Outcome.AUTHENTIC, Outcome.FABRICATED} <= {item.implication() for item in self.evidence}


@dataclass(frozen=True)
class RankedResults:
    """Links returned by one source for one query, in presentation order."""

    source: SourceId
    query_text: str
    urls: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.urls)) != len(self.urls):
            raise ValueError("result urls must be unique after normalization")


def classify_rating(raw_label: str) -> TruthRating:
    """Map a scraped rating label onto a :class:`TruthRating`.

    Matching is case-insensitive and ignores surrounding whitespace and
    trailing punctuation; the raw label is preserved verbatim. Total over
    all inputs: unmappable labels yield UNKNOWN, an empty label yields
    UNKNOWN with the missing flag set.
    """
    normalized = raw_label.strip().lower().rstrip(_LABEL_TRAILING_PUNCT).rstrip()
    if not normalized:
        return TruthRating(kind=RatingKind.UNKNOWN, raw_label=raw_label, missing=True)
    kind = RATING_LABEL_TABLE.get(normalized, RatingKind.UNKNOWN)
    return TruthRating(kind=kind, raw_label=raw_label)


def implied_attribution(rating: TruthRating) -> Outcome:
    """What a rating implies about the tweet having been posted.

    A FALSE or MISATTRIBUTED rating implies the tweet was fabricated; TRUE
    or CORRECT_ATTRIBUTION implies it was really posted; everything else
    implies nothing (Unverifiable). Depends on ``rating.kind`` only.
    """
    if rating.kind in (RatingKind.FALSE, RatingKind.MISATTRIBUTED):
        return Outcome.FABRICATED
    if rating.kind in (RatingKind.TRUE, RatingKind.CORRECT_ATTRIBUTION):
        return Outcome.AUTHENTIC
    return Outcome.UNVERIFIABLE
