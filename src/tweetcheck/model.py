"""Shared domain vocabulary: claims, evidence, ratings, verdicts, ranked results.

Every value type here is a :class:`Record`, the base of the package's value
types: immutable after construction and safe to share between threads. A
:class:`TruthRating` is its label, from which its kind is read; a
:class:`Verdict`'s outcome is derived from its evidence each time it is
read; and :func:`implied_attribution` is a pure function.
"""

from __future__ import annotations

from enum import Enum


class Record:
    """Base of the package's value types: immutable, compared by value.

    A subclass declares its fields, in order, as annotated class attributes,
    and a field's default as the attribute's value::

        class Hit(Record):
            url: str
            rank: int = 1

    A record is built from its fields by position or by keyword, then
    checked by ``__post_init__``; a missing, unknown or repeated argument is
    a :class:`TypeError`. Its fields cannot be assigned or deleted
    afterwards: :meth:`replace` builds a changed copy, checked again. Two
    records are equal when they are of one class and their fields are
    equal, and a record hashes as the tuple of its field values, so only a
    record whose fields all hash can be hashed: not an engine row
    (``adapters.EngineSettings``, whose ``selectors`` is a dict) nor a
    ``config.AppConfig`` (whose ``engines`` is a mapping). The fields
    are read once, when the subclass is created, and no code is generated
    for them, so importing a module of records stays cheap.
    """

    _fields: tuple[str, ...] = ()
    _defaults: dict[str, object] = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = [name for name in cls.__annotations__ if name not in cls._fields]  # this class's own
        cls._fields = cls._fields + tuple(own)
        cls._defaults = {**cls._defaults, **{name: vars(cls)[name] for name in own if name in vars(cls)}}

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if len(args) > len(fields):
            raise TypeError(f"{type(self).__name__}() takes {len(fields)} arguments but {len(args)} were given")
        values = self.__dict__
        values.update(zip(fields, args))
        if kwargs:
            for name in kwargs:
                if name in values:
                    raise TypeError(f"{type(self).__name__}() got multiple values for argument {name!r}")
                if name not in fields:
                    raise TypeError(f"{type(self).__name__}() got an unexpected keyword argument {name!r}")
            values.update(kwargs)
        if len(values) < len(fields):
            for name in fields:
                if name not in values:
                    if name not in self._defaults:
                        raise TypeError(f"{type(self).__name__}() missing required argument {name!r}")
                    values[name] = self._defaults[name]
        self.__post_init__()

    def __post_init__(self):
        """Check the fields just set; a subclass raises :class:`ValueError` for a bad value."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.__dict__ == other.__dict__
        return NotImplemented

    def __hash__(self):
        return hash(tuple(getattr(self, name) for name in self._fields))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def replace(self, **changes) -> Record:
        """A copy with ``changes`` applied to its fields, checked as a new record is."""
        return type(self)(**{**self.__dict__, **changes})


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


class TweetClaim(Record):
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


class TruthRating(Record):
    """A rating scraped from a fact-check article: its label, preserved
    verbatim (case and punctuation) for audit, and nothing else.

    The kind and the missing flag are read from the label. Matching is
    case-insensitive and ignores surrounding whitespace and trailing
    punctuation; an unmapped label is UNKNOWN, and an empty one (the article
    had no rating block) is UNKNOWN and missing.
    """

    raw_label: str

    @property
    def missing(self) -> bool:
        return not self._normalized()

    @property
    def kind(self) -> RatingKind:
        return RATING_LABEL_TABLE.get(self._normalized(), RatingKind.UNKNOWN)

    def _normalized(self) -> str:
        return self.raw_label.strip().lower().rstrip(_LABEL_TRAILING_PUNCT).rstrip()


class EvidenceItem(Record):
    """One found artifact: a fact-check article or a Politwoops record.

    Politwoops evidence carries ``matched_text`` (the stored tweet text that
    matched) and no rating; fact-check evidence carries a rating (possibly
    UNKNOWN) and no matched text.
    """

    source: SourceId
    url: str
    rank: int
    rating: TruthRating | None = None
    matched_text: str | None = None

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
        return implied_attribution(self.rating)


class Verdict(Record):
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


class RankedResults(Record):
    """Links returned by one source for one query, in presentation order."""

    source: SourceId
    query_text: str
    urls: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.urls)) != len(self.urls):
            raise ValueError("result urls must be unique after normalization")


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
