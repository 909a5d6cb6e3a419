"""Per-engine query construction: truncation, encoding, site restriction.

Each engine gets a :class:`QuerySpec` describing its length restriction,
encoding convention, and truncation style, held in its row of the engine
table (:data:`tweetcheck.adapters.ENGINES`). The specs were chosen from
observed query URLs on each site; they are per-engine constants, not
configuration, and a site that changes its limits is followed by changing
its row there.
"""

from __future__ import annotations

import re
from enum import Enum
from urllib.parse import quote, quote_plus

from .model import Record, TweetClaim


class Encoding(Enum):
    PLUS = "plus"          # spaces become "+", reserved chars percent-encoded
    PERCENT = "percent"    # spaces become "%20"


class Truncation(Enum):
    CHAR_PREFIX = "char-prefix"
    WORD_BOUNDARY_PREFIX = "word-boundary-prefix"


_CONTROL_CHARS = re.compile(r"[\x00-\x1f\x7f]")
_WORD = re.compile(r"\S+")


class QuerySpec(Record):
    """How one engine wants its queries shaped."""

    max_chars: int
    encoding: Encoding
    truncation: Truncation
    site_filter: str | None = None

    def __post_init__(self):
        if self.max_chars < 10:
            raise ValueError("max_chars must be >= 10")


def truncate_body(body: str, spec: QuerySpec) -> str:
    """Truncate a tweet body to the engine's length restriction.

    CHAR_PREFIX takes exactly the first ``max_chars`` unicode characters.
    WORD_BOUNDARY_PREFIX takes the longest whitespace-delimited prefix that
    fits; if even the first word exceeds the limit it falls back to the character prefix, so
    the result is never empty for a non-empty body. The result is always a prefix of ``body``.
    """
    if spec.truncation is Truncation.CHAR_PREFIX:
        return body[: spec.max_chars]
    word_ends = [m.end() for m in _WORD.finditer(body) if m.end() <= spec.max_chars]
    if not word_ends:
        return body[: spec.max_chars]
    return body[: word_ends[-1]]


def encode_query(text: str, encoding: Encoding) -> str:
    """URL-encode query text; round-trips through standard URL decoding."""
    if encoding is Encoding.PLUS:
        return quote_plus(text)
    return quote(text, safe="")


def build_query(claim: TweetClaim, spec: QuerySpec) -> str:
    """Build the pre-encoding query string for one engine.

    Control characters (including newlines, which tweets may contain) are
    replaced by spaces so the query is a single line. The optional site
    restriction operator is appended afterwards and does not count against
    ``max_chars``.
    """
    text = truncate_body(claim.body, spec)
    text = _CONTROL_CHARS.sub(" ", text)
    if spec.site_filter:
        text = f"{text} site:{spec.site_filter}"
    return text

