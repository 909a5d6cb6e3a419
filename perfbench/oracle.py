"""Expected program output, computed from the plan alone.

The oracle never imports ``tweetcheck``. It restates the documented
behaviour: each ranked engine (in the order snopes, reuters, web,
web-snopes) scrapes its first ``max_articles`` fact-check articles not
already taken by an earlier engine; a planted label means what
:data:`gen.LABEL_MEANING` says; a Politwoops card carrying the exact body
proves the tweet; Authentic evidence outranks Fabricated evidence.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import gen

#: The shipped ``verify.max_articles``; the benchmark config leaves it unset.
MAX_ARTICLES = 3
EXIT_CODES = {"Authentic": 0, "Fabricated": 1, "Unverifiable": 2}
ARTICLE_PREFIX = "Article found at URL: "
POLITWOOPS_LINE = "That tweet was successfully queried on Politwoops"


@dataclass(frozen=True)
class ExpectedVerify:
    articles: tuple[tuple[str, str], ...]  # (url, label) in output order
    politwoops: bool
    verdict: str

    @property
    def exit_code(self) -> int:
        return EXIT_CODES[self.verdict]


def expected_verify(plan: gen.Plan, record_id: str, max_articles: int = MAX_ARTICLES) -> ExpectedVerify:
    taken_urls: set[str] = set()
    articles = []
    for engine in gen.RANKED_ENGINES:
        taken = 0
        for url in plan.serps[(record_id, engine)].results:
            if taken >= max_articles:
                break
            article = plan.articles.get(url)
            if article is None or url in taken_urls:
                continue
            taken_urls.add(url)
            taken += 1
            articles.append((url, article.label))
    meanings = {gen.LABEL_MEANING[label] for _, label in articles}
    politwoops = plan.politwoops[record_id].match
    if politwoops or "Authentic" in meanings:
        verdict = "Authentic"
    elif "Fabricated" in meanings:
        verdict = "Fabricated"
    else:
        verdict = "Unverifiable"
    return ExpectedVerify(tuple(articles), politwoops, verdict)


def check_verify(expected: ExpectedVerify, exit_code: int, stdout: str) -> Optional[str]:
    """None when the output matches; otherwise what differs."""
    lines = stdout.splitlines()
    found = []
    for index, line in enumerate(lines):
        if line.startswith(ARTICLE_PREFIX):
            rating = lines[index + 1] if index + 1 < len(lines) else ""
            found.append((line[len(ARTICLE_PREFIX):], rating.removeprefix("Truth rating: ")))
    if found != list(expected.articles):
        return f"articles {found} != planted {list(expected.articles)}"
    if (POLITWOOPS_LINE in lines) != expected.politwoops:
        return f"politwoops confirmation expected={expected.politwoops}"
    if f"Verdict: {expected.verdict}" not in lines:
        return f"verdict line missing, expected {expected.verdict}: {lines[-2:]}"
    if exit_code != expected.exit_code:
        return f"exit code {exit_code} != {expected.exit_code}"
    return None


def planted_rank(plan: gen.Plan, record_id: str, engine: str) -> Optional[int]:
    serp = plan.serps[(record_id, engine)]
    if serp.relevant is None or serp.relevant not in serp.results:
        return None
    return serp.results.index(serp.relevant) + 1


def scores(ranks: Sequence[Optional[int]]) -> tuple[Fraction, Fraction]:
    """Exact (MRR, mean P@1) for the relevant result's ranks (None: absent)."""
    mrr = sum((Fraction(1, r) for r in ranks if r is not None), Fraction(0)) / len(ranks)
    p1 = Fraction(sum(1 for r in ranks if r == 1), len(ranks))
    return mrr, p1


def _four(value: Fraction) -> str:
    return f"{float(value):.4f}"


def check_eval(plan: gen.Plan, stdout: str, engines: Sequence[str] = gen.RANKED_ENGINES) -> Optional[str]:
    """Check ``eval --format machine`` output: per-record ranks and each
    engine's ``#SUMMARY`` MRR and P@1 against the planted ranks."""
    rows = [line.split("\t") for line in stdout.splitlines() if line]
    for engine in engines:
        ranks = [planted_rank(plan, r.id, engine) for r in plan.records]
        want_rows = [[r.id, engine, str(rank) if rank else "-"] for r, rank in zip(plan.records, ranks)]
        got_rows = [row[:3] for row in rows if len(row) == 5 and row[1] == engine]
        if got_rows != want_rows:
            return f"{engine}: ranks {got_rows} != planted {want_rows}"
        mrr, p1 = scores(ranks)
        want = ["#SUMMARY", engine, _four(mrr), _four(p1)]
        if want not in rows:
            return f"{engine}: summary missing or wrong, expected {want}"
    return None


def record_failures(exit_code: int, stdout: str, records: int, engines: int) -> Optional[int]:
    """Failure count from the ``record`` summary line, or None if the line is wrong."""
    prefix = f"recorded {records} record(s) x {engines} engine(s), "
    for line in stdout.splitlines():
        if line.startswith(prefix) and line.endswith(" failure(s)"):
            count = int(line[len(prefix):].split()[0])
            if (count == 0) == (exit_code == 0):
                return count
    return None
