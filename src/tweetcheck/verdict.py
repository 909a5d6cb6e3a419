"""Combine all evidence for one claim into a single verdict.

Outcome rules, in precedence order:

1. any evidence implying the tweet exists (a deleted-tweet tracker match,
   or a rating implying correct attribution) makes the verdict Authentic;
2. otherwise any evidence implying fabrication makes it Fabricated;
3. no implication either way means Unverifiable.

Existence-proving evidence outranks fabrication claims because a preserved
deleted tweet is primary-source proof, while an editorial "False" rating
may be about the tweet's content rather than its attribution. When both
directions are present the conflict flag is raised so the disagreement is
surfaced rather than hidden. Order-insensitive: the evidence list is
echoed back sorted by (source, rank).
"""

from __future__ import annotations

from typing import Iterable

from .model import (
    SOURCE_ORDER,
    Attribution,
    EvidenceItem,
    Outcome,
    TweetClaim,
    Verdict,
)


def aggregate(claim: TweetClaim, evidence: Iterable[EvidenceItem]) -> Verdict:
    """Fold an evidence list into a Verdict for the claim."""
    items = list(evidence)
    implications = [item.implication() for item in items]
    any_authentic = Attribution.IMPLIES_AUTHENTIC in implications
    any_fabricated = Attribution.IMPLIES_FABRICATED in implications

    if any_authentic:
        outcome = Outcome.AUTHENTIC
    elif any_fabricated:
        outcome = Outcome.FABRICATED
    else:
        outcome = Outcome.UNVERIFIABLE

    ordered = tuple(sorted(items, key=_evidence_sort_key))
    return Verdict(outcome=outcome, evidence=ordered, conflict=any_authentic and any_fabricated)


def _evidence_sort_key(item: EvidenceItem):
    # (source, rank) is the presentation order; the remaining fields make the
    # key total so permuting the input can never change the echoed order.
    return (
        SOURCE_ORDER[item.source],
        item.rank,
        item.url,
        item.rating.kind.value if item.rating else "",
        item.rating.raw_label if item.rating else "",
        item.matched_text or "",
    )
