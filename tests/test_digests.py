"""Every command's output on the recorded pages, pinned by digest.

Each scenario runs one command in-process through :func:`tweetcheck.cli.main`
over the pages in ``tests/pages``: ``verify`` in replay, ``eval`` as table
and machine lines, ``record`` through a stub transport, ``scrape`` on each
article and ``validate-dataset`` on the corpora. Inline pages add the hard
cases of the Reuters scraper (``scrape``) and of the card reader (``verify
--engine politwoops``). What a user sees of a run (stdout, the exit code,
the ``tweetcheck:`` lines on stderr, and for ``record`` the sorted fixture
file names, which pin every query URL) is hashed with SHA-256 and compared
with ``output_digests.json``.

A change that alters behaviour on purpose regenerates the table and names
each changed scenario in its change notes::

    PYTHONPATH=src python tests/test_digests.py > tests/output_digests.json
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest

from tweetcheck.cli import main
from tweetcheck.dataset import GroundTruthRecord, serialize_dataset, shipped_dataset_path
from tweetcheck.fetch import Fetcher, _reset_politeness_clock
from tweetcheck.model import SourceId

from conftest import (
    JOBS_BODY,
    PANDEMIC_BODY,
    REUTERS_PANDEMIC_ARTICLE,
    REUTERS_PANDEMIC_SHORT,
    SNOPES_PANDEMIC_ARTICLE,
    StubPage,
    StubTransport,
    engine_query_url,
    eval_pages,
    eval_records,
    mixed_pandemic_pages,
    page,
    pandemic_pages,
    record_pages,
)

TABLE = Path(__file__).with_name("output_digests.json")

PANDEMIC_RECORD = GroundTruthRecord(
    id="p1",
    tweet_body=PANDEMIC_BODY,
    snopes_url=SNOPES_PANDEMIC_ARTICLE,
    authentic=False,
    reuters_url=REUTERS_PANDEMIC_ARTICLE,
)
JOBS_RECORD = GroundTruthRecord(
    id="j1",
    tweet_body=JOBS_BODY,
    snopes_url="https://www.snopes.com/fact-check/jobs-report-tweet/",
    authentic=True,
    live_url="https://twitter.com/x/status/1181278122861662208",
    archived_url="https://web.archive.org/web/2019/1181278122861662208",
)

#: Every article page, each at a URL of its publisher.
ARTICLES = {
    f"https://www.{name.split('_')[0]}.com/fact-check/{name.removesuffix('.html')}/": name
    for name in (
        "snopes_article_pandemic.html",
        "snopes_article_norating.html",
        "snopes_article_misattributed.html",
        "reuters_article_pandemic.html",
        "reuters_article_partlyfalse.html",
    )
}

#: Reuters articles whose verdict is hard to find, each at its own URL.
HARD_ARTICLES = {
    f"https://www.reuters.com/article/idUSHARD-{name}": html
    for name, html in {
        # a heading inside a heading: both read "VERDICT", or only the inner one
        "heading-in-heading": "<article><h2><strong>VERDICT</strong></h2><p>False. Made up.</p></article>",
        "inner-heading-only": "<article><h2>Our <strong>VERDICT</strong> <em>Partly false. x</em></h2></article>",
        # verdict sections nested by unclosed <div>s, and a closed one inside an open one
        "nested-sections": "<div><h2>VERDICT</h2>" * 3 + "<p>Misleading. The rest.</p>",
        "section-inside-section": (
            "<div><h2>VERDICT</h2><div><h2>VERDICT</h2><p>Misleading. y</p></div><p>False. z</p></div>"
        ),
        # a sibling heading before the paragraph: another heading, or another verdict heading
        "sibling-heading-first": "<h2>VERDICT</h2><h3>Why we say so</h3><p>False. x</p>",
        "sibling-verdict-heading-first": "<h2>VERDICT</h2><h3>VERDICT</h3><p>False. x</p>",
        # only text nodes, or empty elements, after the heading
        "text-after-heading": "<article><h2>VERDICT</h2>False. Only text follows.</article>",
        "text-scan-after-heading": "<article><h2>VERDICT</h2> Verdict: Mostly false. x</article>",
        "empty-siblings-first": "<h2>VERDICT</h2><p> \n </p><br><span></span><p>Mostly false. x</p>",
        # heading text that matches only after stripping, or not at all
        "stripped-heading": "<h2>\n\t Verdict \n</h2><p>False. x</p>",
        "heading-across-tags": "<strong> <b>VER</b>DICT </strong><p>Partly false. x</p>",
        "heading-split-by-space": "<h2>VER DICT</h2><p>False. x</p>",
        # no verdict heading at all: the text scan, or nothing
        "no-heading-text-scan": "<p>Verdict: Mostly false. More text.</p>",
        "no-heading-no-rating": "<p>Nothing rated here.</p>",
        # the text scan's label ends with its block, and may sit in the block below "Verdict:"
        "text-scan-block-follows": "<div>Verdict: False</div><div>Next para here</div>",
        "text-scan-label-below": "<h3>Verdict:</h3><p>Partly false. x</p>",
    }.items()
}

#: Tracker pages whose cards nest, sit under unclosed tags or miss a part,
#: by case: the claim searched for, and the page served for it.
HARD_CARDS = {
    "nested-claim-in-inner-card": (
        "Nested cards with the claim in the inner card",
        '<div class="results"><div class="tweet"><div class="tweet">'
        '<p class="tweet-content">Nested cards with the claim in the inner card</p>'
        '<a href="/politwoops/tweet/1">l</a><span class="screen-name">@inner</span></div></div></div>',
    ),
    "nested-outer-text-first": (
        "Nested cards with the outer text read first",
        '<div class="results"><div class="tweet"><p class="tweet-content">another tweet</p>'
        '<div class="tweet"><p class="tweet-content">Nested cards with the outer text read first</p>'
        '<a href="/politwoops/tweet/2">l</a>',
    ),
    "siblings-under-unclosed-spans": (
        "Sibling cards under unclosed spans",
        '<div class="results">' + "<span>" * 5
        + '<div class="tweet"><p class="tweet-content">another tweet</p><a href="/politwoops/tweet/3">l</a></div>'
        + '<div class="tweet"><p class="tweet-content">Sibling cards under unclosed spans</p>'
        '<a href="/politwoops/tweet/4">l</a></div>',
    ),
    "link-without-text": (
        "A card with a link but no text",
        '<div class="results"><div class="tweet"><a href="/politwoops/tweet/5">l</a></div>'
        '<div class="tweet"><p class="tweet-content">A card with a link but no text</p></div></div>',
    ),
    "link-without-text-then-whole-card": (
        "A card without text, then a whole card",
        '<div class="results"><div class="tweet"><a href="/politwoops/tweet/6">l</a></div>'
        '<div class="tweet"><p class="tweet-content">A card without text, then a whole card</p>'
        '<a href="/politwoops/tweet/7">l</a></div></div>',
    ),
}


def _serp_pages(google_page: str) -> dict[str, StubPage]:
    """Every engine's results page for every scenario body: the empty page of
    each engine, with ``google_page`` for both web searches."""
    pages = {
        SourceId.SNOPES_SEARCH: "snopes_serp_empty.html",
        SourceId.REUTERS_SEARCH: "reuters_serp_empty.html",
        SourceId.WEB_SEARCH: google_page,
        SourceId.WEB_SEARCH_SITE_SNOPES: google_page,
        SourceId.POLITWOOPS: "politwoops_empty.html",
    }
    bodies = [PANDEMIC_BODY, JOBS_BODY] + [r.tweet_body for r in eval_records()]
    return {
        engine_query_url(source, body): StubPage(page(name))
        for source, name in pages.items()
        for body in bodies
    }


def _jobs_pages() -> dict[str, StubPage]:
    return {engine_query_url(SourceId.POLITWOOPS, JOBS_BODY): StubPage(page("politwoops_serp_jobs.html"))}


def _article_pages() -> dict[str, StubPage]:
    """Every article page at its own URL, and the pandemic claim's articles."""
    queries = {engine_query_url(source, PANDEMIC_BODY) for source in SourceId}
    pandemic_articles = {url: stub for url, stub in pandemic_pages().items() if url not in queries}
    return {**{url: StubPage(page(name)) for url, name in ARTICLES.items()}, **pandemic_articles}


PAGE_SETS = {
    "pandemic": pandemic_pages,
    "mixed": mixed_pandemic_pages,
    "eval": eval_pages,
    "jobs": _jobs_pages,
    "captcha": lambda: _serp_pages("google_serp_captcha.html"),
    "empty": lambda: _serp_pages("google_serp_empty.html"),
    "articles": _article_pages,
    "hard-articles": lambda: {url: StubPage(html.encode()) for url, html in HARD_ARTICLES.items()},
    "hard-cards": lambda: {
        engine_query_url(SourceId.POLITWOOPS, body): StubPage(html.encode()) for body, html in HARD_CARDS.values()
    },
}

DATASETS = {
    "eval": lambda: serialize_dataset(eval_records()),
    "pandemic": lambda: serialize_dataset([PANDEMIC_RECORD]),
    "jobs": lambda: serialize_dataset([PANDEMIC_RECORD, JOBS_RECORD]),
    "all": lambda: serialize_dataset([PANDEMIC_RECORD, JOBS_RECORD, *eval_records()]),
    "findings": lambda: serialize_dataset([*eval_records(), PANDEMIC_RECORD, eval_records()[0]]),
}

_ENGINE_CHOICES = {"all": []} | {source.value: ["--engine", source.value] for source in SourceId}


def _scenarios() -> dict[str, tuple[str, str, list[str]]]:
    """name -> (command kind, page set or dataset, argv after the command)."""
    scenarios: dict[str, tuple[str, str, list[str]]] = {}
    for pages, body in [
        ("pandemic", PANDEMIC_BODY), ("mixed", PANDEMIC_BODY), ("jobs", JOBS_BODY),
        ("captcha", PANDEMIC_BODY), ("empty", PANDEMIC_BODY), ("empty", JOBS_BODY),
    ]:
        for engines, flags in _ENGINE_CHOICES.items():
            tag = "jobs-body" if body == JOBS_BODY and pages != "jobs" else pages
            scenarios[f"verify/{tag}/{engines}"] = ("verify", pages, [body, *flags])
    scenarios["verify/pandemic/max-articles-1"] = ("verify", "pandemic", [PANDEMIC_BODY, "--max-articles", "1"])
    scenarios["verify/articles/all"] = ("verify", "articles", [PANDEMIC_BODY])
    for pages, dataset in [
        ("eval", "eval"), ("pandemic", "pandemic"), ("mixed", "pandemic"),
        ("captcha", "all"), ("empty", "all"), ("jobs", "jobs"),
    ]:
        for engines in ("all", "snopes", "web"):
            flags = _ENGINE_CHOICES[engines]
            for fmt in ("table", "machine"):
                scenarios[f"eval-{fmt}/{pages}/{engines}"] = ("eval", f"{pages}:{dataset}", [*flags, "--format", fmt])
            scenarios[f"record/{pages}/{engines}"] = ("record", f"{pages}:{dataset}", flags)
    for url in [*ARTICLES, SNOPES_PANDEMIC_ARTICLE, REUTERS_PANDEMIC_ARTICLE, REUTERS_PANDEMIC_SHORT,
                "https://www.snopes.com/fact-check/never-recorded/", "https://example.com/article"]:
        scenarios[f"scrape/{url}"] = ("scrape", "articles", [url])
    for url in HARD_ARTICLES:
        scenarios[f"scrape/{url}"] = ("scrape", "hard-articles", [url])
    for case, (body, _) in HARD_CARDS.items():
        scenarios[f"verify/hard-cards/{case}"] = ("verify", "hard-cards", [body, "--engine", "politwoops"])
    scenarios["validate-dataset/shipped"] = ("validate-dataset", "", [])
    for dataset in DATASETS:
        scenarios[f"validate-dataset/{dataset}"] = ("validate-dataset", dataset, [])
    return scenarios


SCENARIOS = _scenarios()


class _Run:
    """Runs scenarios in one scratch directory, recording each page set once."""

    def __init__(self, root: Path):
        self.root = root
        self.stores: dict[str, Path] = {}
        (root / "quiet.conf").write_text("politeness_delay_ms=0\n", encoding="utf-8")

    def store(self, pages: str) -> Path:
        if pages not in self.stores:
            self.stores[pages] = record_pages(self.root / "stores" / pages, PAGE_SETS[pages]()).root
        return self.stores[pages]

    def dataset(self, name: str) -> Path:
        path = self.root / "datasets" / f"{name}.tsv"
        if not path.exists():
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(DATASETS[name](), encoding="utf-8")
        return path

    def digest(self, name: str) -> str:
        kind, source, args = SCENARIOS[name]
        _reset_politeness_clock()
        fixtures = None
        transport = StubTransport({})
        if kind == "validate-dataset":
            path = self.dataset(source) if source else shipped_dataset_path()
            argv = [kind, "--dataset", str(path)]
        elif kind in ("verify", "scrape"):
            argv = [kind, *args, "--mode", "replay", "--fixtures", str(self.store(source))]
        else:
            pages, dataset = source.split(":")
            argv = [kind, "--dataset", str(self.dataset(dataset)), *args]
            if kind == "eval":
                argv += ["--mode", "replay", "--fixtures", str(self.store(pages))]
            else:
                fixtures = self.root / "recorded" / name.replace("/", "_")
                transport = StubTransport(PAGE_SETS[pages]())
                argv += ["--fixtures", str(fixtures), "--config", str(self.root / "quiet.conf")]
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.object(Fetcher, "_requests_transport", lambda self, req: transport(req)), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        seen = {
            "stdout": out.getvalue(),
            "exit": code,
            "stderr": [line for line in err.getvalue().splitlines() if line.startswith("tweetcheck:")],
        }
        if fixtures is not None:
            seen["fixtures"] = sorted(p.name for p in fixtures.iterdir()) if fixtures.exists() else []
        text = json.dumps(seen, sort_keys=True, ensure_ascii=False).replace(str(self.root), "TMP")
        return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    return _Run(tmp_path_factory.mktemp("digests"))


@pytest.fixture(scope="module")
def table():
    return json.loads(TABLE.read_text(encoding="utf-8"))


def test_table_names_every_scenario(table):
    assert sorted(table) == sorted(SCENARIOS)


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_output_unchanged(run, table, name):
    assert run.digest(name) == table.get(name)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        runner = _Run(Path(scratch))
        json.dump({name: runner.digest(name) for name in SCENARIOS}, sys.stdout, indent=1, sort_keys=True)
        print()
