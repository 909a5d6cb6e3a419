import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tweetcheck.model import (
    SOURCE_ORDER,
    EvidenceItem,
    Outcome,
    SourceId,
    TruthRating,
    TweetClaim,
    Verdict,
)
from tweetcheck.verdict import aggregate

CLAIM = TweetClaim(body="some alleged tweet")

KINDS = ("politwoops", "true", "false", "unknown")


def make_item(kind: str, index: int) -> EvidenceItem:
    if kind == "politwoops":
        return EvidenceItem(
            source=SourceId.POLITWOOPS,
            url=f"https://projects.propublica.org/politwoops/tweet/{index}",
            rank=index,
            matched_text=f"stored tweet {index}",
        )
    label = {"true": "True", "false": "False", "unknown": "Needs More Context"}[kind]
    source = SourceId.SNOPES_SEARCH if index % 2 else SourceId.REUTERS_SEARCH
    return EvidenceItem(
        source=source,
        url=f"https://example-{source.value}.com/article/{index}",
        rank=index,
        rating=TruthRating(label),
    )


def oracle(kinds: tuple[str, ...]) -> tuple[Outcome, bool]:
    """Independent restatement of the aggregation rules."""
    implies_authentic = any(k in ("politwoops", "true") for k in kinds)
    implies_fabricated = any(k == "false" for k in kinds)
    if implies_authentic:
        outcome = Outcome.AUTHENTIC
    elif implies_fabricated:
        outcome = Outcome.FABRICATED
    else:
        outcome = Outcome.UNVERIFIABLE
    return outcome, implies_authentic and implies_fabricated


def all_cases(max_items: int = 3):
    for length in range(max_items + 1):
        yield from itertools.product(KINDS, repeat=length)


class TestSpecExamples:
    def test_politwoops_plus_true_rating_is_authentic(self):
        verdict = aggregate(CLAIM, [make_item("politwoops", 1), make_item("true", 1)])
        assert verdict.outcome is Outcome.AUTHENTIC
        assert not verdict.conflict

    def test_two_false_ratings_prove_fabrication(self):
        verdict = aggregate(CLAIM, [make_item("false", 1), make_item("false", 2)])
        assert verdict.outcome is Outcome.FABRICATED
        assert not verdict.conflict

    def test_no_evidence_is_unverifiable(self):
        verdict = aggregate(CLAIM, [])
        assert verdict.outcome is Outcome.UNVERIFIABLE
        assert verdict.evidence == ()
        assert not verdict.conflict

    def test_politwoops_beats_false_rating_with_conflict(self):
        verdict = aggregate(CLAIM, [make_item("politwoops", 1), make_item("false", 1)])
        assert verdict.outcome is Outcome.AUTHENTIC
        assert verdict.conflict

    def test_a_verdict_is_its_sorted_evidence(self):
        politwoops, reuters_false = make_item("politwoops", 1), make_item("false", 2)
        verdict = aggregate(CLAIM, [politwoops, reuters_false])
        assert list(Verdict._fields) == ["evidence"]
        assert verdict == Verdict((reuters_false, politwoops))
        assert (verdict.outcome, verdict.conflict) == (Outcome.AUTHENTIC, True)


class TestExhaustiveTruthTable:
    @pytest.mark.parametrize("kinds", list(all_cases()))
    def test_outcome_and_conflict_match_oracle(self, kinds):
        items = [make_item(kind, i + 1) for i, kind in enumerate(kinds)]
        expected_outcome, expected_conflict = oracle(kinds)
        verdict = aggregate(CLAIM, items)
        assert verdict.outcome is expected_outcome
        assert verdict.conflict is expected_conflict
        # permutation invariance for every case
        for permutation in itertools.permutations(items):
            permuted = aggregate(CLAIM, list(permutation))
            assert permuted.outcome is expected_outcome
            assert permuted.conflict is expected_conflict
            assert permuted.evidence == verdict.evidence

    @pytest.mark.parametrize("kinds", list(all_cases(2)))
    def test_adding_politwoops_always_yields_authentic(self, kinds):
        items = [make_item(kind, i + 1) for i, kind in enumerate(kinds)]
        items.append(make_item("politwoops", len(items) + 1))
        assert aggregate(CLAIM, items).outcome is Outcome.AUTHENTIC

    def test_unverifiable_only_without_direction(self):
        for kinds in all_cases():
            items = [make_item(kind, i + 1) for i, kind in enumerate(kinds)]
            verdict = aggregate(CLAIM, items)
            if verdict.outcome is Outcome.UNVERIFIABLE:
                assert all(
                    item.implication() is Outcome.UNVERIFIABLE for item in verdict.evidence
                )


class TestEvidenceOrdering:
    def test_echoed_sorted_by_source_then_rank(self):
        items = [
            make_item("politwoops", 2),
            make_item("false", 3),  # snopes, rank 3
            make_item("false", 2),  # reuters, rank 2
            make_item("true", 1),   # snopes, rank 1
        ]
        verdict = aggregate(CLAIM, items)
        keys = [(SOURCE_ORDER[e.source], e.rank) for e in verdict.evidence]
        assert keys == sorted(keys)

    @given(
        st.lists(
            st.tuples(st.sampled_from(KINDS), st.integers(min_value=1, max_value=5)),
            max_size=6,
        ),
        st.randoms(),
    )
    def test_order_insensitive(self, spec, rng):
        items = [make_item(kind, rank) for kind, rank in spec]
        baseline = aggregate(CLAIM, items)
        shuffled = items[:]
        rng.shuffle(shuffled)
        permuted = aggregate(CLAIM, shuffled)
        assert permuted == baseline
