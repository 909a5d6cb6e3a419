from fractions import Fraction

from conftest import ROOT

import gen
import oracle

SNOPES = "http://www.snopes.com/fact-check/{}/"


def _record(rid: str, authentic: bool = False) -> gen.Record:
    return gen.Record(rid, authentic, f"body of {rid}", f"https://www.snopes.com/fact-check/{rid}/", None)


def _plan(serps: dict, articles: list[gen.Article], records: list[gen.Record], match=()) -> gen.Plan:
    plan = gen.Plan("replay-verify", 0, records, [r.id for r in records], frozenset())
    plan.serps = serps
    plan.articles = {a.url: a for a in articles}
    plan.politwoops = {r.id: gen.PolitwoopsPage((), r.id in match) for r in records}
    return plan


def _three_record_plan() -> gen.Plan:
    """Snopes ranks 1, 2 and absent; the other engines list nothing."""
    records = [_record("e1"), _record("e2"), _record("e3")]
    rel = {r.id: SNOPES.format(r.id) for r in records}
    other = [SNOPES.format(f"unrelated-{i}") for i in range(3)]
    serps = {
        ("e1", "snopes"): gen.Serp("snopes", (rel["e1"], other[0]), rel["e1"]),
        ("e2", "snopes"): gen.Serp("snopes", (other[1], rel["e2"]), rel["e2"]),
        ("e3", "snopes"): gen.Serp("snopes", (other[2],), rel["e3"]),
    }
    for record in records:
        for engine in gen.RANKED_ENGINES[1:]:
            serps[(record.id, engine)] = gen.Serp(engine, (), None)
    articles = [gen.Article(url, "snopes", "False") for url in [*rel.values(), *other]]
    return _plan(serps, articles, records)


def test_hand_computed_three_record_case():
    assert oracle.scores([1, 2, None]) == (Fraction(1, 2), Fraction(1, 3))
    plan = _three_record_plan()
    assert [oracle.planted_rank(plan, rid, "snopes") for rid in ("e1", "e2", "e3")] == [1, 2, None]
    machine = (
        "e1\tsnopes\t1\t1.0000\t1\ne2\tsnopes\t2\t0.5000\t0\ne3\tsnopes\t-\t0.0000\t0\n"
        "#SUMMARY\tsnopes\t0.5000\t0.3333\n"
    )
    assert oracle.check_eval(plan, machine, engines=["snopes"]) is None
    assert "summary" in oracle.check_eval(plan, machine.replace("0.3333", "0.6667"), engines=["snopes"])
    assert "ranks" in oracle.check_eval(plan, machine.replace("\t2\t0.5000", "\t3\t0.3333"), engines=["snopes"])


def test_expected_verify_takes_each_engines_first_new_article():
    record = _record("a1", authentic=True)
    rel, dup, extra = SNOPES.format("a1"), SNOPES.format("mixture"), "http://www.reuters.com/article/x-idUSAB12"
    serps = {
        ("a1", "snopes"): gen.Serp("snopes", (rel, dup), rel),
        ("a1", "reuters"): gen.Serp("reuters", (extra,), None),
        ("a1", "web"): gen.Serp("web", ("http://twitter.com/x/1", rel, dup), rel),
        ("a1", "web-snopes"): gen.Serp("web-snopes", (rel,), rel),
    }
    articles = [gen.Article(rel, "snopes", "Misattributed"), gen.Article(dup, "snopes", "Mixture"),
                gen.Article(extra, "reuters", "False")]
    plan = _plan(serps, articles, [record], match={"a1"})
    expected = oracle.expected_verify(plan, "a1", max_articles=1)
    assert expected.articles == ((rel, "Misattributed"), (extra, "False"), (dup, "Mixture"))
    assert expected.politwoops and expected.verdict == "Authentic" and expected.exit_code == 0

    stdout = "".join(f"Article found at URL: {u}\nTruth rating: {label}\n" for u, label in expected.articles)
    stdout += f"{oracle.POLITWOOPS_LINE}\nVerdict: Authentic\nConflicting evidence detected.\n"
    assert oracle.check_verify(expected, 0, stdout) is None
    assert "exit code" in oracle.check_verify(expected, 1, stdout)
    assert "articles" in oracle.check_verify(expected, 0, stdout.replace(extra, extra + "-other"))
    assert "verdict" in oracle.check_verify(expected, 0, stdout.replace("Verdict: Authentic", "Verdict: Fabricated"))


def test_fabricated_without_politwoops_match():
    plan = _three_record_plan()
    expected = oracle.expected_verify(plan, "e1", max_articles=1)
    assert expected.verdict == "Fabricated" and expected.exit_code == 1 and not expected.politwoops


def test_record_summary_line():
    ok = "recorded 30 record(s) x 4 engine(s), 0 failure(s)\n"
    assert oracle.record_failures(0, ok, 30, 4) == 0
    assert oracle.record_failures(69, ok.replace(" 0 failure", " 2 failure"), 30, 4) == 2
    assert oracle.record_failures(0, ok.replace(" 0 failure", " 2 failure"), 30, 4) is None
    assert oracle.record_failures(0, ok, 29, 4) is None


def test_live_pages_give_every_engine_three_new_articles():
    records = gen.load_corpus(ROOT / gen.CORPUS_PATH)
    plan = gen.build_plan("live-verify", 1, records)
    assert oracle.MAX_ARTICLES == 3
    for record in records:
        expected = oracle.expected_verify(plan, record.id)
        assert len(expected.articles) == len(gen.RANKED_ENGINES) * oracle.MAX_ARTICLES
        assert len({url for url, _ in expected.articles}) == len(expected.articles)
