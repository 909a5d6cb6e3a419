from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tweetcheck.adapters import ENGINES
from tweetcheck.dataset import GroundTruthRecord
from tweetcheck.errors import FixtureMiss
from tweetcheck.evaluation import (
    EVAL_SOURCES,
    EngineReport,
    QueryOutcome,
    evaluate_engine,
    reciprocal_rank,
    render_report,
)
from tweetcheck.fetch import Fetcher, FetchMode
from tweetcheck.model import RankedResults, SourceId

from conftest import (
    StubTransport,
    engine_query_url,
    eval_pages,
    eval_records,
    record_pages,
    replay_fetcher,
)

SNOPES = SourceId.SNOPES_SEARCH


def ranked(urls) -> RankedResults:
    return RankedResults(SNOPES, "query", tuple(urls))


class TestReciprocalRank:
    RELEVANT = "https://www.snopes.com/fact-check/target/"

    def test_relevant_at_rank_one(self):
        score = reciprocal_rank(ranked([self.RELEVANT, "https://www.snopes.com/fact-check/a/"]), self.RELEVANT)
        assert score.rank_of_relevant == 1
        assert score.reciprocal_rank == 1
        assert score.p_at_1 == 1

    def test_relevant_at_rank_three(self):
        urls = [
            "https://www.snopes.com/fact-check/a/",
            "https://www.snopes.com/fact-check/b/",
            self.RELEVANT,
        ]
        score = reciprocal_rank(ranked(urls), self.RELEVANT)
        assert score.rank_of_relevant == 3
        assert score.reciprocal_rank == Fraction(1, 3)
        assert abs(float(score.reciprocal_rank) - 0.33) <= 0.005
        assert score.p_at_1 == 0

    def test_relevant_absent(self):
        score = reciprocal_rank(ranked(["https://www.snopes.com/fact-check/a/"]), self.RELEVANT)
        assert score.rank_of_relevant is None
        assert score.reciprocal_rank == 0
        assert score.p_at_1 == 0

    def test_comparison_is_canonical(self):
        # same article, different shapes: scheme, www, trailing slash
        score = reciprocal_rank(
            ranked(["http://snopes.com/fact-check/target"]), self.RELEVANT
        )
        assert score.rank_of_relevant == 1

    def test_a_site_is_judged_by_the_host(self):
        # the netloc ends in ".snopes.com", but the host is evil.example
        score = reciprocal_rank(ranked(["https://evil.example:x.snopes.com/fact-check/target/"]), self.RELEVANT)
        assert score.rank_of_relevant is None

    @given(
        st.lists(st.integers(1, 30), unique=True, min_size=1, max_size=10),
        st.integers(0, 10),
    )
    def test_rr_is_zero_or_unit_fraction(self, slugs, pick):
        urls = [f"https://www.snopes.com/fact-check/s{n}/" for n in slugs]
        relevant = (
            urls[pick] if pick < len(urls) else "https://www.snopes.com/fact-check/absent/"
        )
        score = reciprocal_rank(ranked(urls), relevant)
        assert score.reciprocal_rank == 0 or score.reciprocal_rank.numerator == 1
        assert score.p_at_1 <= 1
        if score.p_at_1 == 1:
            assert score.reciprocal_rank == 1


class TestQueryOutcomeInvariants:
    def test_valid_outcomes_construct(self):
        QueryOutcome("r", SNOPES, 1)
        QueryOutcome("r", SNOPES, None)

    def test_rank_must_be_positive(self):
        with pytest.raises(ValueError):
            QueryOutcome("r", SNOPES, 0)

    def test_report_needs_an_outcome(self):
        with pytest.raises(ValueError):
            EngineReport(SNOPES, ())


class TestEvaluateEngine:
    def test_three_record_corpus_scores_exactly(self, eval_store):
        report = evaluate_engine(ENGINES[SNOPES], eval_records(), replay_fetcher(eval_store))
        assert report.mrr == Fraction(1, 2)
        assert report.mean_p_at_1 == Fraction(1, 3)
        ranks = [o.rank_of_relevant for o in report.outcomes]
        assert ranks == [1, 2, None]

    def test_single_record_at_rank_one(self, eval_store):
        report = evaluate_engine(ENGINES[SNOPES], eval_records()[:1], replay_fetcher(eval_store))
        assert report.mrr == 1
        assert report.mean_p_at_1 == 1

    def test_empty_dataset_rejected(self, eval_store):
        with pytest.raises(ValueError, match="at least one outcome"):
            evaluate_engine(ENGINES[SNOPES], [], replay_fetcher(eval_store))

    def test_politwoops_not_evaluable(self, eval_store):
        with pytest.raises(ValueError):
            evaluate_engine(ENGINES[SourceId.POLITWOOPS], eval_records(), replay_fetcher(eval_store))

    def test_outcomes_follow_dataset_order_and_means_are_permutation_invariant(self, eval_store):
        records = eval_records()
        fetcher = replay_fetcher(eval_store)
        forward = evaluate_engine(ENGINES[SNOPES], records, fetcher)
        backward = evaluate_engine(ENGINES[SNOPES], list(reversed(records)), fetcher)
        assert [o.record_id for o in backward.outcomes] == ["e3", "e2", "e1"]
        assert backward.mrr == forward.mrr
        assert backward.mean_p_at_1 == forward.mean_p_at_1

    def test_mrr_dominates_mean_p1(self, eval_store):
        report = evaluate_engine(ENGINES[SNOPES], eval_records(), replay_fetcher(eval_store))
        assert report.mrr >= report.mean_p_at_1

    def test_missing_fixtures_collected_with_record_ids(self, tmp_path):
        pages = eval_pages()
        # drop the e2 page so its fixture is never recorded
        removed = [k for k in pages if "beta" in k]
        for key in removed:
            del pages[key]
        store = record_pages(tmp_path / "fx", pages)
        report = evaluate_engine(ENGINES[SNOPES], eval_records(), replay_fetcher(store))
        assert [(o.record_id, o.failure) for o in report.outcomes if o.failed] == [("e2", FixtureMiss)]
        miss = report.outcomes[1]
        assert miss.error.startswith("no fixture ") and miss.reciprocal_rank == 0
        assert report.mrr == Fraction(1, 3)  # e1 still scored, e3 absent

    def test_live_fetch_failure_scores_zero_and_flags(self):
        # transport only knows e1's query; e2/e3 fail at the network level
        pages = {k: v for k, v in eval_pages().items() if "alpha" in k}
        fetcher = Fetcher(FetchMode.LIVE, delay_ms=0, transport=StubTransport(pages))
        records = eval_records()
        report = evaluate_engine(ENGINES[SNOPES], records, fetcher)
        assert report.outcomes[0].error is None
        e2_url = engine_query_url(SNOPES, records[1].tweet_body)
        assert report.outcomes[1].error == f"no stub page for {e2_url}"
        assert report.outcomes[1].reciprocal_rank == 0
        assert report.mrr == Fraction(1, 3)  # only e1 scored

    def test_bot_challenge_stops_the_engine(self):
        from conftest import StubPage, engine_query_url, page

        records = eval_records()
        pages = {
            engine_query_url(SourceId.WEB_SEARCH, r.tweet_body): StubPage(page("google_serp_empty.html"))
            for r in records
        }
        first = engine_query_url(SourceId.WEB_SEARCH, records[0].tweet_body)
        pages[first] = StubPage(page("google_serp_captcha.html"))
        transport = StubTransport(pages)
        fetcher = Fetcher(FetchMode.LIVE, delay_ms=0, transport=transport)
        report = evaluate_engine(ENGINES[SourceId.WEB_SEARCH], records, fetcher)
        assert transport.requested == [first]  # the host is not asked again
        assert report.outcomes[0].error == f"bot challenge: {first}: bot challenge page served"
        assert [o.error for o in report.outcomes[1:]] == ["skipped after a bot challenge"] * 2
        assert report.mrr == 0 and report.mean_p_at_1 == 0

    def test_bot_challenge_marker_text_stops_the_engine(self):
        from conftest import StubPage, engine_query_url

        records = eval_records()
        serp = b'<div id="search"><p>Our systems have detected unusual traffic.</p></div>'
        pages = {engine_query_url(SourceId.WEB_SEARCH, r.tweet_body): StubPage(serp) for r in records}
        transport = StubTransport(pages)
        fetcher = Fetcher(FetchMode.LIVE, delay_ms=0, transport=transport)
        report = evaluate_engine(ENGINES[SourceId.WEB_SEARCH], records, fetcher)
        first = engine_query_url(SourceId.WEB_SEARCH, records[0].tweet_body)
        assert transport.requested == [first]
        assert report.outcomes[0].error == f"bot challenge: {first}: bot challenge marker found"
        assert [o.error for o in report.outcomes[1:]] == ["skipped after a bot challenge"] * 2

    def test_reuters_engine_uses_overlap_column(self, tmp_path):
        record = GroundTruthRecord(
            id="r1", tweet_body="overlap body", authentic=False,
            snopes_url="https://www.snopes.com/fact-check/overlap/",
            reuters_url="https://www.reuters.com/article/idUSOVERLAP1",
        )
        from conftest import StubPage, engine_query_url

        serp = (
            b'<html><body><div class="search-result-list">'
            b'<a href="https://www.reuters.com/article/x/story-idUSOVERLAP1">hit</a>'
            b"</div></body></html>"
        )
        store = record_pages(
            tmp_path / "fx",
            {engine_query_url(SourceId.REUTERS_SEARCH, record.tweet_body): StubPage(serp)},
        )
        report = evaluate_engine(ENGINES[SourceId.REUTERS_SEARCH], [record], replay_fetcher(store))
        assert report.outcomes[0].rank_of_relevant == 1

    def test_record_without_overlap_url_flagged(self, tmp_path):
        from conftest import StubPage, engine_query_url

        record = eval_records()[0]
        serp = b'<html><body><a href="https://www.reuters.com/article/idUSANY1">x</a></body></html>'
        store = record_pages(
            tmp_path / "fx",
            {engine_query_url(SourceId.REUTERS_SEARCH, record.tweet_body): StubPage(serp)},
        )
        report = evaluate_engine(ENGINES[SourceId.REUTERS_SEARCH], [record], replay_fetcher(store))
        outcome = report.outcomes[0]
        assert outcome.reciprocal_rank == 0
        assert outcome.error and "no relevant URL" in outcome.error


class TestRecordReplayEquivalence:
    def test_replayed_report_equals_recording_run(self, tmp_path):
        transport = StubTransport(eval_pages())
        store_dir = tmp_path / "fx"
        from tweetcheck.fetch import FixtureStore

        recording = Fetcher(FetchMode.RECORD, FixtureStore(store_dir), delay_ms=0, transport=transport)
        live_report = evaluate_engine(ENGINES[SNOPES], eval_records(), recording)
        replay_report = evaluate_engine(ENGINES[SNOPES], eval_records(), replay_fetcher(FixtureStore(store_dir)))
        assert replay_report == live_report


class TestRenderReport:
    def _report(self) -> EngineReport:
        outcomes = (
            QueryOutcome("e1", SNOPES, 1),
            QueryOutcome("e2", SNOPES, 2),
            QueryOutcome("e3", SNOPES, None),
        )
        return EngineReport(SNOPES, outcomes)

    def test_table_has_four_decimal_values(self):
        text = render_report([self._report()], "table")
        assert "0.5000" in text and "0.3333" in text
        assert "Snopes built-in search" in text
        assert text.splitlines()[0].startswith("Search engine")

    def test_empty_report_list_is_header_only(self):
        text = render_report([], "table")
        assert text.splitlines() == ["Search engine  MRR  Mean P@1"]

    def test_machine_format_lines(self):
        lines = render_report([self._report()], "machine").splitlines()
        assert lines == [
            "e1\tsnopes\t1\t1.0000\t1",
            "e2\tsnopes\t2\t0.5000\t0",
            "e3\tsnopes\t-\t0.0000\t0",
            "#SUMMARY\tsnopes\t0.5000\t0.3333",
        ]

    def test_two_outcomes_one_summary(self):
        outcomes = (
            QueryOutcome("a", SNOPES, 1),
            QueryOutcome("b", SNOPES, None),
        )
        report = EngineReport(SNOPES, outcomes)
        lines = render_report([report], "machine").splitlines()
        assert len(lines) == 3
        assert sum(1 for l in lines if l.startswith("#SUMMARY")) == 1

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            render_report([], "yaml")

    def test_eval_sources_are_the_four_ranked_engines(self):
        assert SourceId.POLITWOOPS not in EVAL_SOURCES
        assert len(EVAL_SOURCES) == 4


@given(st.lists(st.one_of(st.none(), st.integers(1, 40)), min_size=1, max_size=25))
def test_mean_inequality_holds_for_any_rank_profile(ranks):
    outcomes = tuple(
        QueryOutcome(record_id=str(i), source=SNOPES, rank_of_relevant=rank)
        for i, rank in enumerate(ranks)
    )
    for outcome, rank in zip(outcomes, ranks):
        assert outcome.reciprocal_rank == (Fraction(1, rank) if rank else 0)
        assert outcome.p_at_1 == (1 if rank == 1 else 0)
    report = EngineReport(SNOPES, outcomes)
    mrr = sum((o.reciprocal_rank for o in outcomes), Fraction(0)) / len(outcomes)
    mean_p1 = Fraction(sum(o.p_at_1 for o in outcomes), len(outcomes))
    assert report.mrr == mrr and report.mean_p_at_1 == mean_p1
    assert 0 <= mean_p1 <= mrr <= 1
