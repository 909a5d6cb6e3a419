import pytest
from hypothesis import given
from hypothesis import strategies as st

from tweetcheck.adapters import ENGINES
from tweetcheck.config import AppConfig
from tweetcheck.model import (
    EvidenceItem,
    Outcome,
    RankedResults,
    RatingKind,
    Record,
    SourceId,
    TruthRating,
    TweetClaim,
    implied_attribution,
)

# Independent restatement of the label mapping used to derive expected values.
ORACLE_LABELS = {
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


def oracle_classify(label: str) -> RatingKind:
    norm = label.strip().lower()
    while norm and norm[-1] in ".!?,:; \t":
        norm = norm[:-1]
    return ORACLE_LABELS.get(norm, RatingKind.UNKNOWN)


#: One label of each kind, to build a rating of that kind from.
LABEL_OF = {**{kind: label for label, kind in ORACLE_LABELS.items()}, RatingKind.UNKNOWN: "whatever"}


class TestClassifyRating:
    def test_plain_false_label(self):
        rating = TruthRating("False")
        assert rating.kind is RatingKind.FALSE
        assert rating.raw_label == "False"
        assert not rating.missing

    def test_empty_label_means_missing(self):
        rating = TruthRating("")
        assert rating.kind is RatingKind.UNKNOWN
        assert rating.raw_label == ""
        assert rating.missing

    def test_uppercase_with_trailing_punctuation(self):
        # expected value from the independent normalize-and-lookup oracle
        assert oracle_classify("FALSE.") is RatingKind.FALSE
        rating = TruthRating("FALSE.")
        assert rating.kind is RatingKind.FALSE
        assert rating.raw_label == "FALSE."

    @pytest.mark.parametrize(
        "label",
        ["True", "Correct Attribution", "partly FALSE!", "Labeled Satire", "Mixture",
         "fake", "Fabricated", "MISATTRIBUTED", "something else entirely", "4 Pinocchios"],
    )
    def test_matches_oracle(self, label):
        assert TruthRating(label).kind is oracle_classify(label)

    @given(st.text(max_size=60))
    def test_total_and_raw_preserving(self, label):
        rating = TruthRating(label)
        assert isinstance(rating, TruthRating)
        assert rating.raw_label == label

    @given(st.text(max_size=60))
    def test_kind_and_missing_are_read_from_any_label(self, label):
        # so no rating is UNKNOWN with no label yet not missing
        rating = TruthRating(label)
        assert rating.missing or label.strip()
        assert rating.kind is RatingKind.UNKNOWN or not rating.missing

    def test_whitespace_only_is_missing(self):
        assert TruthRating("   ").missing


class TestImpliedAttribution:
    # exhaustive truth table over every rating kind
    EXPECTED = {
        RatingKind.TRUE: Outcome.AUTHENTIC,
        RatingKind.CORRECT_ATTRIBUTION: Outcome.AUTHENTIC,
        RatingKind.FALSE: Outcome.FABRICATED,
        RatingKind.MISATTRIBUTED: Outcome.FABRICATED,
        RatingKind.MIXTURE: Outcome.UNVERIFIABLE,
        RatingKind.SATIRE: Outcome.UNVERIFIABLE,
        RatingKind.UNKNOWN: Outcome.UNVERIFIABLE,
    }

    @pytest.mark.parametrize("kind", list(RatingKind))
    def test_truth_table(self, kind):
        rating = TruthRating(LABEL_OF[kind])
        assert rating.kind is kind
        assert implied_attribution(rating) is self.EXPECTED[kind]

    # static, as a property test under parametrize must be: pytest gives each
    # parameter its own instance, which hypothesis rejects as a second executor
    @staticmethod
    @pytest.mark.parametrize("kind", list(RatingKind))
    @given(raw=st.text(max_size=30))
    def test_depends_on_kind_only(kind, raw):
        for label in (LABEL_OF[kind], raw):
            if oracle_classify(label) is kind:
                assert implied_attribution(TruthRating(label)) is TestImpliedAttribution.EXPECTED[kind]


class TestClaim:
    def test_valid_claim(self):
        claim = TweetClaim(body="hello world")
        assert claim.body == "hello world"

    @pytest.mark.parametrize("body", ["", "   ", "\n\t"])
    def test_blank_body_rejected(self, body):
        with pytest.raises(ValueError):
            TweetClaim(body=body)

    def test_overlong_body_rejected(self):
        with pytest.raises(ValueError):
            TweetClaim(body="x" * 4001)

    def test_4000_chars_allowed(self):
        TweetClaim(body="x" * 4000)

    @pytest.mark.parametrize("body", ["abc \udcff def", "\ud800"])
    def test_body_that_is_not_utf8_rejected(self, body):
        # A command-line argument holding bytes that are not UTF-8 arrives as lone surrogates.
        with pytest.raises(ValueError, match="claim body is not UTF-8 text"):
            TweetClaim(body=body)


class TestEvidenceItem:
    def test_politwoops_item_needs_matched_text(self):
        with pytest.raises(ValueError):
            EvidenceItem(source=SourceId.POLITWOOPS, url="https://x/", rank=1)

    def test_politwoops_item_rejects_rating(self):
        with pytest.raises(ValueError):
            EvidenceItem(
                source=SourceId.POLITWOOPS,
                url="https://x/",
                rank=1,
                matched_text="t",
                rating=TruthRating("False"),
            )

    def test_fact_check_item_needs_rating(self):
        with pytest.raises(ValueError):
            EvidenceItem(source=SourceId.SNOPES_SEARCH, url="https://x/", rank=1)

    def test_rank_must_be_positive(self):
        with pytest.raises(ValueError):
            EvidenceItem(
                source=SourceId.SNOPES_SEARCH,
                url="https://x/",
                rank=0,
                rating=TruthRating("False"),
            )

    def test_politwoops_implies_authentic(self):
        item = EvidenceItem(
            source=SourceId.POLITWOOPS, url="https://x/", rank=1, matched_text="t"
        )
        assert item.implication() is Outcome.AUTHENTIC


class TestRankedResults:
    def test_duplicate_urls_rejected(self):
        with pytest.raises(ValueError):
            RankedResults(SourceId.WEB_SEARCH, "q", ("https://a/", "https://a/"))

    def test_order_preserved(self):
        results = RankedResults(SourceId.WEB_SEARCH, "q", ("https://b/", "https://a/"))
        assert results.urls == ("https://b/", "https://a/")


class Hit(Record):
    url: str
    rank: int = 1

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("rank must be >= 1")


class Link(Record):
    url: str
    rank: int = 1


class TestRecord:
    def test_built_by_position_or_keyword_with_defaults(self):
        assert Hit("https://a/", 2) == Hit(url="https://a/", rank=2) == Hit("https://a/", rank=2)
        assert Hit("https://a/").rank == 1
        assert Hit._fields == ("url", "rank")

    @pytest.mark.parametrize(
        "args, kwargs",
        [
            ((), {}),  # url missing
            ((), {"rank": 2}),
            (("https://a/",), {"title": "x"}),  # unknown
            (("https://a/", 2, 3), {}),  # one too many
            (("https://a/",), {"url": "https://b/"}),  # repeated
            (("https://a/", 2), {"rank": 3}),
        ],
    )
    def test_missing_unknown_or_repeated_argument_is_a_type_error(self, args, kwargs):
        with pytest.raises(TypeError):
            Hit(*args, **kwargs)

    def test_checks_run_at_construction(self):
        with pytest.raises(ValueError, match="rank must be >= 1"):
            Hit("https://a/", 0)

    def test_fields_cannot_be_assigned_or_deleted(self):
        hit = Hit("https://a/")
        with pytest.raises(AttributeError):
            hit.rank = 2
        with pytest.raises(AttributeError):
            hit.title = "x"
        with pytest.raises(AttributeError):
            del hit.url
        assert hit == Hit("https://a/", 1)

    def test_equal_only_within_one_class(self):
        assert Hit("https://a/") != Link("https://a/")
        assert Hit("https://a/") != ("https://a/", 1)
        assert Hit("https://a/") != Hit("https://a/", 2)

    def test_equal_records_hash_alike(self):
        assert hash(Hit("https://a/")) == hash(Hit(url="https://a/", rank=1)) == hash(("https://a/", 1))
        assert len({Hit("https://a/"), Hit("https://a/", 1), Hit("https://b/")}) == 2

    def test_a_record_with_an_unhashable_field_does_not_hash(self):
        for record in (ENGINES[SourceId.SNOPES_SEARCH], AppConfig()):
            with pytest.raises(TypeError, match="unhashable type"):
                hash(record)

    def test_repr_names_every_field(self):
        assert repr(Hit("https://a/")) == "Hit(url='https://a/', rank=1)"
        assert repr(TruthRating("False")) == "TruthRating(raw_label='False')"

    def test_replace_copies_and_checks_again(self):
        hit = Hit("https://a/")
        assert hit.replace(rank=3) == Hit("https://a/", 3)
        assert hit == Hit("https://a/", 1)
        with pytest.raises(ValueError, match="claim body must be non-empty"):
            TweetClaim("x").replace(body=" ")
        with pytest.raises(TypeError):
            hit.replace(title="x")

    def test_a_subclass_adds_fields_after_its_base(self):
        class RankedHit(Hit):
            score: float = 0.5

        assert RankedHit._fields == ("url", "rank", "score")
        assert RankedHit("https://a/", 2) == RankedHit(url="https://a/", rank=2, score=0.5)
        with pytest.raises(ValueError):
            RankedHit("https://a/", 0)
