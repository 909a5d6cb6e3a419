"""Acceptance suite: one test per shipped exit criterion.

Each test prints an ``ACCEPTANCE n PASS`` line on success (visible with
``pytest -s`` or in captured output), so a reviewer can read the run as a
checklist. Run with::

    pytest tests/test_acceptance.py -v -s
"""

import itertools
import time
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from tweetcheck.cli import main
from tweetcheck.dataset import load_shipped_dataset, parse_dataset, serialize_dataset, validate_dataset
from tweetcheck.errors import ValidationError
from tweetcheck.evaluation import evaluate_engine, reciprocal_rank, render_report
from tweetcheck.fetch import FetchMode, Fetcher, FetchRequest, FixtureStore
from tweetcheck.model import RankedResults, SourceId, TweetClaim
from tweetcheck.adapters import ENGINES, match_politwoops, search_politwoops
from tweetcheck.queries import Encoding, truncate_body, encode_query
from tweetcheck.ratings import scrape_reuters_rating, scrape_snopes_rating
from tweetcheck.urls import canonicalize_article_url
from tweetcheck.verdict import aggregate

import pytest

from conftest import (
    JOBS_BODY,
    REUTERS_PANDEMIC_ARTICLE,
    SNOPES_PANDEMIC_ARTICLE,
    StubTransport,
    engine_query_url,
    eval_pages,
    eval_records,
    replay_fetcher,
)
from test_verdict import all_cases, make_item, oracle

JOBS_PREFIX_50 = "The jobs report shows unemployment down to 3.5%, t"
POLITWOOPS_QUERY_URL = (
    "https://projects.propublica.org/politwoops/index"
    "?utf8=%E2%9C%93&q=The+jobs+report+shows+unemployment+down+to+3.5%25%2C+t"
)


def _ok(number: int, text: str) -> None:
    print(f"ACCEPTANCE {number} PASS: {text}")


def test_criterion_1_metric_oracle(eval_store):
    started = time.perf_counter()
    report = evaluate_engine(ENGINES[SourceId.SNOPES_SEARCH], eval_records(), replay_fetcher(eval_store))
    elapsed = time.perf_counter() - started
    assert [o.rank_of_relevant for o in report.outcomes] == [1, 2, None]
    assert report.mrr == Fraction(1, 2)          # exactly (1 + 1/2 + 0) / 3
    assert report.mean_p_at_1 == Fraction(1, 3)  # exactly 1/3
    rendered = render_report([report], "table")
    assert "0.5000" in rendered and "0.3333" in rendered
    assert elapsed < 1.0
    _ok(1, f"3-record corpus scores MRR=0.5000, mean P@1=0.3333 in {elapsed:.3f}s offline")


def test_criterion_2_single_query_metrics():
    target = "https://www.snopes.com/fact-check/target/"
    others = [f"https://www.snopes.com/fact-check/other-{i}/" for i in range(1, 4)]

    at_rank_1 = reciprocal_rank(
        RankedResults(SourceId.WEB_SEARCH, "q", (target, others[0])), target
    )
    assert at_rank_1.reciprocal_rank == 1 and at_rank_1.p_at_1 == 1

    at_rank_3 = reciprocal_rank(
        RankedResults(SourceId.WEB_SEARCH, "q", (others[0], others[1], target)), target
    )
    assert at_rank_3.p_at_1 == 0
    assert at_rank_3.reciprocal_rank == Fraction(1, 3)
    assert abs(float(at_rank_3.reciprocal_rank) - 0.33) <= 0.005

    absent = reciprocal_rank(
        RankedResults(SourceId.WEB_SEARCH, "q", tuple(others)), target
    )
    assert absent.reciprocal_rank == 0 and absent.p_at_1 == 0
    _ok(2, "rank 1 -> rr=1.0, rank 3 -> rr=0.3333 (within 0.005 of 0.33), absent -> rr=0")


def test_criterion_3_rating_extraction(pandemic_store):
    fetcher = replay_fetcher(pandemic_store)
    snopes_page = fetcher.fetch(FetchRequest(url=SNOPES_PANDEMIC_ARTICLE))
    snopes_rating = scrape_snopes_rating(snopes_page)
    reuters_page = fetcher.fetch(FetchRequest(url=REUTERS_PANDEMIC_ARTICLE))
    reuters_rating = scrape_reuters_rating(reuters_page)
    for rating in (snopes_rating, reuters_rating):
        assert rating.kind.value == "False"
        assert f"Truth rating: {rating.raw_label}" == "Truth rating: False"
    _ok(3, 'both recorded articles scrape to kind=False ("Truth rating: False")')


def test_criterion_4_politwoops_prefix_and_match(jobs_store, capsys):
    spec = ENGINES[SourceId.POLITWOOPS].spec
    prefix = truncate_body(JOBS_BODY, spec)
    assert prefix == JOBS_PREFIX_50
    assert len(prefix) == 50
    assert encode_query(prefix, Encoding.PLUS) == (
        "The+jobs+report+shows+unemployment+down+to+3.5%25%2C+t"
    )
    assert engine_query_url(SourceId.POLITWOOPS, JOBS_BODY) == POLITWOOPS_QUERY_URL

    claim = TweetClaim(body=JOBS_BODY)
    hits = search_politwoops(ENGINES[SourceId.POLITWOOPS], claim, replay_fetcher(jobs_store))
    assert match_politwoops(claim, hits) is not None

    code = main([
        "verify", JOBS_BODY, "--engine", "politwoops",
        "--mode", "replay", "--fixtures", str(jobs_store.root),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "That tweet was successfully queried on Politwoops" in out
    with capsys.disabled():
        print()
        _ok(4, "50-char prefix reproduced exactly; tracker hit matched and confirmed")


def test_criterion_5_aggregation_truth_table():
    claim = TweetClaim(body="claim under test")
    cases = 0
    for kinds in all_cases(3):
        items = [make_item(kind, i + 1) for i, kind in enumerate(kinds)]
        expected_outcome, expected_conflict = oracle(kinds)
        for permutation in itertools.permutations(items):
            verdict = aggregate(claim, list(permutation))
            assert verdict.outcome is expected_outcome
            assert verdict.conflict is expected_conflict
        cases += 1
    assert cases == 1 + 4 + 16 + 64  # all draws of 0..3 items from 4 kinds
    _ok(5, f"{cases} evidence combinations match the aggregation rules under all permutations")


def test_criterion_6_record_replay_equivalence(tmp_path):
    pages = eval_pages()
    transport = StubTransport(pages)
    store = FixtureStore(tmp_path / "fx")
    recorder = Fetcher(FetchMode.RECORD, store, delay_ms=0, transport=transport)
    live_report = evaluate_engine(ENGINES[SourceId.SNOPES_SEARCH], eval_records(), recorder)
    assert transport.requested  # the recording run really used the transport

    # replay: byte-identical bodies, identical report, zero network use
    replayer = replay_fetcher(store)  # its transport raises if ever touched
    for url, stub in pages.items():
        assert replayer.fetch(FetchRequest(url=url)).body == stub.body
    replay_report = evaluate_engine(ENGINES[SourceId.SNOPES_SEARCH], eval_records(), replayer)
    assert replay_report == live_report
    _ok(6, "replay returns byte-identical bodies and an identical report without network access")


def test_criterion_7_dataset_contract():
    records = load_shipped_dataset()
    assert len(records) == 30
    assert sum(1 for r in records if r.authentic) == 15
    assert sum(1 for r in records if not r.authentic) == 15
    assert validate_dataset(records) == []

    # seed corruption: drop archived_url from one authentic record
    corrupted_text = serialize_dataset(records).replace(
        "https://web.archive.org/web/20170531043652/https://twitter.com/realDonaldTrump/status/869766994899468288",
        "-",
    )
    with pytest.raises(ValidationError) as exc:
        parse_dataset(corrupted_text)
    assert exc.value.record_id == "a03"
    assert "archived_url" in str(exc.value)

    findings = validate_dataset(parse_dataset(corrupted_text, validate=False))
    assert any(f.record_id == "a03" and "archived_url" in f.message for f in findings)
    _ok(7, "shipped corpus is 15/15 and clean; seeded corruption caught naming record a03")


@settings(max_examples=60, deadline=None)
@given(
    body=st.text(min_size=1, max_size=200).filter(lambda s: s.strip()),
    text=st.text(max_size=120),
    url_slug=st.text(alphabet="abcz019-", min_size=1, max_size=10),
    ranks=st.lists(st.one_of(st.none(), st.integers(1, 20)), min_size=1, max_size=12),
)
def test_criterion_8_invariant_bundle(body, text, url_slug, ranks):
    from urllib.parse import unquote, unquote_plus

    # truncation: bounded prefix, idempotent
    spec = ENGINES[SourceId.POLITWOOPS].spec
    truncated = truncate_body(body, spec)
    assert body.startswith(truncated) and len(truncated) <= spec.max_chars
    assert truncate_body(truncated, spec) == truncated

    # encoding round-trips through standard URL decoding
    assert unquote_plus(encode_query(text, Encoding.PLUS)) == text
    assert unquote(encode_query(text, Encoding.PERCENT)) == text

    # canonical identities are idempotent
    url = f"https://www.snopes.com/fact-check/{url_slug}/"
    once = canonicalize_article_url(url)
    assert canonicalize_article_url(once) == once

    # mean reciprocal rank dominates mean P@1 for any rank profile
    rrs = [Fraction(1, r) if r else Fraction(0) for r in ranks]
    p1s = [1 if r == 1 else 0 for r in ranks]
    assert Fraction(sum(p1s), len(p1s)) <= sum(rrs, Fraction(0)) / len(rrs)

    # aggregation is order-insensitive
    claim = TweetClaim(body="x")
    items = [make_item(kind, i + 1) for i, kind in enumerate(("true", "false", "politwoops"))]
    assert aggregate(claim, items) == aggregate(claim, list(reversed(items)))


def test_criterion_8_pass_line():
    _ok(8, "invariant bundle holds (prefix/idempotence, encoding round-trip, "
           "canonicalization idempotence, MRR >= mean P@1, aggregation order-insensitivity)")
