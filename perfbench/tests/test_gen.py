import subprocess
import sys

import pytest

import gen
from conftest import BENCH, ROOT


@pytest.fixture(scope="module")
def records():
    return gen.load_corpus(ROOT / gen.CORPUS_PATH)


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_and_url_give_identical_pages(records, workload):
    first = gen.build_plan(workload, 7, records)
    second = gen.build_plan(workload, 7, records)
    assert first.order == second.order and first.serps == second.serps
    urls = [next(iter(first.articles))] + [
        gen.ENDPOINTS[engine].format(query=records[0].body[:40].replace(" ", "+"))
        for engine in ("reuters", "web", "politwoops")
    ]
    for url in urls:
        page = gen.render(first, url)
        assert page is not None and page == gen.render(second, url)


def test_another_seed_gives_other_pages(records):
    one, two = (gen.build_plan("replay-verify", seed, records) for seed in (1, 2))
    target = ("serp", records[0].id, "snopes")
    assert gen.render_target(one, target) != gen.render_target(two, target)
    assert one.order != two.order


def test_unknown_urls_are_not_found(records):
    plan = gen.build_plan("live-verify", 1, records)
    assert gen.render(plan, "http://www.snopes.com/fact-check/no-such-article/") is None
    assert gen.render(plan, "http://www.google.com/search?q=nothing+in+the+corpus") is None
    assert gen.render(plan, "http://elsewhere.example/") is None


def test_every_program_query_maps_to_its_record(records):
    """The URLs the program builds route back to the record they were built from."""
    from tweetcheck.adapters import default_engine_settings
    from tweetcheck.model import SourceId, TweetClaim
    from tweetcheck.queries import build_query, encode_query

    plan = gen.build_plan("record-corpus", 1, records)
    for record in records:
        for source in SourceId:
            settings = default_engine_settings(source)
            query = build_query(TweetClaim(body=record.body), settings.spec)
            url = gen.ENDPOINTS[source.value].format(query=encode_query(query, settings.spec.encoding))
            assert gen.route(plan, url) == ("serp", record.id, source.value), url


def test_hostile_quarter_is_seeded(records):
    plans = [gen.build_plan("replay-verify", seed, records) for seed in (1, 2)]
    assert all(len(p.hostile) == 8 for p in plans)
    assert plans[0].hostile != plans[1].hostile
    assert not gen.build_plan("live-verify", 1, records).hostile


def test_independent_side_never_imports_the_program():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import gen, oracle, origin; "
        "assert not [m for m in sys.modules if m.startswith('tweetcheck')]"
    )
    subprocess.run([sys.executable, "-c", code, str(BENCH)], check=True, cwd=ROOT)
