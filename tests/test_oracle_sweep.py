"""Verify and eval end to end, judged by the benchmark's own oracle over many seeds.

``perfbench/gen.py`` plans, for a workload and a seed, what every engine
returns for every corpus record, and renders each page's bytes;
``perfbench/oracle.py`` works out from the plan alone what ``verify`` and
``eval`` must print. Neither imports ``tweetcheck``. Here the transport
serves ``gen.render(plan, url)``, with a 404 where the plan knows no page,
and :func:`tweetcheck.cli.main` runs in-process with no politeness delay.
So the planted ranks, the articles several engines share, the text-scan
labels and the hostile results pages (500 deep, 1,000 stray end tags, 2,000
anchors) are checked across seeds, not only on the benchmark's seed 1.

The generator plants no record whose evidence conflicts, so one sweep gives
each fabricated record a tracker card holding its exact body: the tracker
proves the tweet, and Authentic must outrank the False rating.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import io
import sys
from pathlib import Path

import pytest

from tweetcheck import cli
from tweetcheck.fetch import Fetcher, FetchResponse

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
import gen  # noqa: E402
import oracle  # noqa: E402

RECORDS = gen.load_corpus(ROOT / gen.CORPUS_PATH)
DATASET = str(ROOT / gen.CORPUS_PATH)
#: Seeds of the small live-verify plan, each verified for every record.
LIVE_SEEDS = range(1, 9)
#: Seeds of the realistic replay-verify plan, and how many of its hostile
#: records and of its others each verifies, in the plan's order.
REALISTIC_SEEDS = (1, 2, 3)
HOSTILE, TYPICAL = 2, 1


@functools.cache
def _plan(workload: str, seed: int) -> gen.Plan:
    return gen.build_plan(workload, seed, RECORDS)


@pytest.fixture
def tweetcheck(tmp_path, monkeypatch):
    """Runs the CLI against a plan's pages: ``(plan, *argv)`` to (exit code, stdout)."""
    config = tmp_path / "sweep.conf"
    lines = ["politeness_delay_ms = 0", f"fixtures = {tmp_path / 'fixtures'}"]
    config.write_text("\n".join(lines + [f"endpoint.{name} = {url}" for name, url in gen.ENDPOINTS.items()]) + "\n")

    def run(plan: gen.Plan | None, *argv: str) -> tuple[int, str]:
        def transport(self, req):
            assert plan is not None, f"a replay went to the network: {req.url}"
            body = gen.render(plan, req.url)
            return FetchResponse(404 if body is None else 200, req.url, body or b"", "text/html; charset=utf-8")

        monkeypatch.setattr(Fetcher, "_requests_transport", transport)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main([*argv, "--config", str(config)])
        return code, out.getvalue()

    return run


def _verify(tweetcheck, plan: gen.Plan, record_ids, mode: str = "live") -> list[str]:
    """Each record's disagreement with the oracle, if any."""
    problems = []
    for record_id in record_ids:
        code, stdout = tweetcheck(plan if mode != "replay" else None, "verify", plan.record(record_id).body,
                                  "--mode", mode)
        problem = oracle.check_verify(oracle.expected_verify(plan, record_id), code, stdout)
        if problem:
            problems.append(f"{plan.workload} seed {plan.seed} {record_id} ({mode}): {problem}")
    return problems


@pytest.mark.parametrize("seed", LIVE_SEEDS)
def test_verify_every_record_of_the_small_plan(tweetcheck, seed):
    plan = _plan("live-verify", seed)
    assert _verify(tweetcheck, plan, plan.order) == []


@pytest.mark.parametrize("seed", REALISTIC_SEEDS)
def test_verify_realistic_and_hostile_pages(tweetcheck, seed):
    plan = _plan("replay-verify", seed)
    hostile = [record_id for record_id in plan.order if record_id in plan.hostile][:HOSTILE]
    typical = [record_id for record_id in plan.order if record_id not in plan.hostile][:TYPICAL]
    assert len(hostile) == HOSTILE
    assert _verify(tweetcheck, plan, hostile + typical) == []


def test_a_tracker_hit_outranks_a_false_rating(tweetcheck):
    plan = _plan("live-verify", 1)
    fabricated = [record.id for record in RECORDS if not record.authentic]
    tracked = {record_id: gen.PolitwoopsPage((plan.record(record_id).body,), True) for record_id in fabricated}
    plan = dataclasses.replace(plan, politwoops={**plan.politwoops, **tracked})
    assert {oracle.expected_verify(plan, record_id).verdict for record_id in fabricated} == {"Authentic"}
    assert _verify(tweetcheck, plan, fabricated) == []


def test_recorded_verifies_replay_as_they_ran(tweetcheck):
    plan = _plan("live-verify", 9)
    assert _verify(tweetcheck, plan, plan.order, "record") == []
    assert _verify(tweetcheck, plan, plan.order, "replay") == []


def test_eval_replayed_from_recorded_fixtures(tweetcheck):
    plan = _plan("replay-eval", 1)
    code, stdout = tweetcheck(plan, "record", "--dataset", DATASET)
    assert oracle.record_failures(code, stdout, len(RECORDS), len(gen.RANKED_ENGINES)) == 0
    code, stdout = tweetcheck(None, "eval", "--dataset", DATASET, "--mode", "replay", "--format", "machine")
    assert code == 0
    assert oracle.check_eval(plan, stdout) is None
