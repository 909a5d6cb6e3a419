"""Combine all evidence for one claim into a single verdict.

A :class:`~tweetcheck.model.Verdict` is its evidence and nothing else: the
outcome and the conflict flag are derived from the evidence whenever they
are read (see :class:`~tweetcheck.model.Verdict` for the rules). So
aggregating is sorting: the evidence is echoed back sorted by (source,
rank), and permuting the input never changes the verdict.
"""

from __future__ import annotations

from collections.abc import Iterable

from .model import SOURCE_ORDER, EvidenceItem, TweetClaim, Verdict


def aggregate(claim: TweetClaim, evidence: Iterable[EvidenceItem]) -> Verdict:
    """The claim's verdict: its evidence, sorted."""
    return Verdict(tuple(sorted(evidence, key=_evidence_sort_key)))


def _evidence_sort_key(item: EvidenceItem):
    # (source, rank) is the presentation order; the remaining fields make the
    # key total so permuting the input can never change the echoed order.
    return (
        SOURCE_ORDER[item.source],
        item.rank,
        item.url,
        item.rating.raw_label if item.rating else "",
        item.matched_text or "",
    )
