"""Seeded input generator for the benchmark: corpus, page plan and page bytes.

The plan says, for one workload and seed, what every search engine returns
for every corpus record (result lists with the relevant article planted at a
known rank), which label every fact-check article carries, and which
Politwoops cards exist. Page bytes are rendered from the plan and from a
random stream seeded by the seed and the page the URL routes to, so the same
seed and URL always give a byte-identical page.

This module never imports ``tweetcheck``: it is the independent side that
the oracle checks the program against.
"""

from __future__ import annotations

import html
import random
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional
from urllib.parse import parse_qs, quote, unquote, urlsplit

CORPUS_PATH = Path("src/tweetcheck/data/ground_truth.tsv")

#: Ranked engines in the order the program runs them (its SourceId order).
RANKED_ENGINES = ("snopes", "reuters", "web", "web-snopes")
POLITWOOPS = "politwoops"

#: Endpoint overrides the benchmark configures: the shipped endpoints with
#: ``http://``, so requests travel through the fake origin as a plain proxy.
ENDPOINTS = {
    "snopes": "http://www.snopes.com/search/{query}/",
    "reuters": "http://www.reuters.com/search/news?sortBy=&dateRange=&blob={query}",
    "web": "http://www.google.com/search?q={query}",
    "web-snopes": "http://www.google.com/search?q={query}",
    "politwoops": "http://projects.propublica.org/politwoops/index?utf8=%E2%9C%93&q={query}",
}
SITE_FILTER = " site:snopes.com"

#: Planted labels and what each one means for a verdict (None: no implication).
LABEL_MEANING = {
    "False": "Fabricated",
    "Misattributed": "Fabricated",
    "Correct Attribution": "Authentic",
    "Mixture": None,
    "Unproven": None,
}
NEUTRAL_LABELS = ("Mixture", "Unproven")

WORKLOADS = ("replay-verify", "live-verify", "record-corpus", "replay-eval")

#: Results per page for each engine on realistic pages (50 to 150 KB). Every
#: claim gets the same sizes, so per-claim work is the same for every seed
#: and the median does not depend on which claims a seed happens to make large.
SERP_SIZES = {"snopes": 130, "reuters": 50, "web": 300, "web-snopes": 220}
ARTICLE_KB = 100
HOSTILE_ANCHORS = 2000
HOSTILE_DEPTH = 500
HOSTILE_STRAY_TAGS = 1000

_VOCAB = (
    "the a of and to in that for on with as by at from this was were has have "
    "had not but or an be are it its their they he she his her we our you "
    "screenshot tweet post account archive image shared users social media "
    "claim quote president senator governor official statement campaign "
    "election vote policy economy market jobs report pandemic health vaccine "
    "climate energy tax budget congress court law state city county school "
    "reporters editors readers sources records evidence context timeline "
    "original version copy edited altered circulated viral online platform "
    "facebook instagram reddit forum thread comment reply retweet follower "
    "deleted removed published appeared surfaced spread began started began "
    "however although because while after before during since until when "
    "said told wrote added noted explained confirmed denied responded asked "
    "search results page link story article headline caption photo video"
).split()
_CONTROL = re.compile(r"[\x00-\x1f\x7f]")
_UNESCAPES = {"\\": "\\", "t": "\t", "n": "\n", "r": "\r"}


@dataclass(frozen=True)
class Record:
    """One corpus row, read without the program's own parser."""

    id: str
    authentic: bool
    body: str
    snopes_url: str
    reuters_url: Optional[str]


def _unescape(text: str) -> str:
    out, i = [], 0
    while i < len(text):
        if text[i] == "\\":
            out.append(_UNESCAPES[text[i + 1]])
            i += 2
        else:
            out.append(text[i])
            i += 1
    return "".join(out)


def load_corpus(path: Path) -> list[Record]:
    records = []
    for line in path.read_text(encoding="utf-8").split("\n"):
        line = line.rstrip("\r")
        if not line.strip() or line.startswith("#"):
            continue
        fields = line.split("\t") + ["-"]
        reuters = fields[6]
        records.append(
            Record(fields[0], fields[1] == "true", _unescape(fields[2]), fields[3],
                   None if reuters == "-" else reuters)
        )
    return records


def _http(url: str) -> str:
    return "http://" + url.split("://", 1)[1]


@dataclass(frozen=True)
class Article:
    url: str
    publisher: str  # "snopes" or "reuters"
    label: str
    text_scan: bool = False  # rating only findable by the program's text scan


@dataclass(frozen=True)
class Serp:
    """One engine's result page for one record.

    ``results`` are the counted results in rank order, exactly as the
    program should list them; ``style`` names the page shape.
    """

    engine: str
    results: tuple[str, ...]
    relevant: Optional[str]
    style: str = "typical"  # typical | small | anchors | nested | stray


@dataclass(frozen=True)
class PolitwoopsPage:
    cards: tuple[str, ...]  # tweet texts in page order
    match: bool  # one card carries the exact body


@dataclass
class Plan:
    workload: str
    seed: int
    records: list[Record]
    order: list[str]  # record ids in the order the client cycles through them
    hostile: frozenset
    serps: dict = field(default_factory=dict)  # (record id, engine) -> Serp
    politwoops: dict = field(default_factory=dict)  # record id -> PolitwoopsPage
    articles: dict = field(default_factory=dict)  # url -> Article

    def record(self, record_id: str) -> Record:
        return next(r for r in self.records if r.id == record_id)


def _slug(rng: random.Random, words: int = 5) -> str:
    return "-".join(rng.choice(_VOCAB) for _ in range(words)) + f"-{rng.randrange(10**6)}"


def _snopes_url(rng) -> str:
    return f"http://www.snopes.com/fact-check/{_slug(rng)}/"


def _reuters_url(rng) -> str:
    token = "".join(rng.choice("ABCDEFGHJKLMNPQRSTUVWXYZ0123456789") for _ in range(9))
    return f"http://www.reuters.com/article/{_slug(rng, 7)}-idUS{token}"


def _other_url(rng, index: int) -> str:
    host = rng.choice(("www.example-news.com", "twitter.com", "www.politico.example",
                       "en.wikipedia.org", "www.factcheck.example", "archive.example.org"))
    return f"http://{host}/{_slug(rng, 4)}/{index}"


def _neutral(rng) -> str:
    return rng.choice(NEUTRAL_LABELS)


def _relevant_label(rng, record: Record) -> str:
    if record.authentic:
        return "Correct Attribution"
    return rng.choice(("False", "Misattributed"))


def _planted_rank(rng, size: int) -> Optional[int]:
    rank = rng.choice((1, 1, 1, 2, 2, 3, 4, 6, 9, 15, None, None))
    return None if rank is None or rank > size else rank


def build_plan(workload: str, seed: int, records: list[Record]) -> Plan:
    """Everything the origin serves and the oracle expects, for one seed."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"plan:{workload}:{seed}")
    ids = [r.id for r in records]
    order = ids[:]
    rng.shuffle(order)
    hostile = frozenset(rng.sample(ids, round(len(ids) / 4))) if workload == "replay-verify" else frozenset()
    plan = Plan(workload, seed, records, order, hostile)
    for record in records:
        if workload == "live-verify":
            _plan_small(plan, rng, record)
        else:
            _plan_realistic(plan, rng, record, hostile=record.id in hostile)
        _plan_politwoops(plan, rng, record)
    return plan


def _add(plan: Plan, article: Article) -> str:
    plan.articles.setdefault(article.url, article)
    return article.url


def _plan_realistic(plan: Plan, rng: random.Random, record: Record, hostile: bool) -> None:
    def article(url: str, publisher: str, label: str, text_scan: bool = False) -> str:
        return _add(plan, Article(url, publisher, label, text_scan))

    def snopes_decoy() -> str:
        return article(_snopes_url(rng), "snopes", _neutral(rng), text_scan=hostile)

    def web_result() -> str:
        if rng.random() < 0.15:
            return article(_snopes_url(rng), "snopes", _neutral(rng))
        return _other_url(rng, rng.randrange(10**6))

    relevant = article(_http(record.snopes_url), "snopes", _relevant_label(rng, record), text_scan=hostile)
    reuters = record.reuters_url and article(_http(record.reuters_url), "reuters", "False")
    targets = {"snopes": relevant, "reuters": reuters or None, "web": relevant, "web-snopes": relevant}
    makers = {
        "snopes": snopes_decoy,
        "reuters": lambda: article(_reuters_url(rng), "reuters", _neutral(rng)),
        "web": web_result,
        "web-snopes": snopes_decoy,
    }
    styles = {"snopes": "nested", "reuters": "stray", "web": "anchors"} if hostile else {}
    for engine in RANKED_ENGINES:
        style = styles.get(engine, "typical")
        size = HOSTILE_ANCHORS if style == "anchors" else SERP_SIZES[engine]
        results = _ranked(rng, size, targets[engine], makers[engine])
        plan.serps[(record.id, engine)] = Serp(engine, results, targets[engine], style)


def _ranked(rng, size: int, target: Optional[str], make) -> tuple[str, ...]:
    rank = _planted_rank(rng, size) if target else None
    results: list[str] = []
    seen = {target}
    while len(results) < size:
        if rank is not None and len(results) == rank - 1:
            results.append(target)
            continue
        url = make()
        if url not in seen:
            seen.add(url)
            results.append(url)
    return tuple(results)


def _plan_small(plan: Plan, rng: random.Random, record: Record) -> None:
    """Live pages of about 1 KB: the same request pattern for every claim.

    Every engine supplies three new articles, the shipped
    ``verify.max_articles``: snopes [rel, s0, s1, ...] scrapes rel, s0, s1;
    reuters scrapes r0, r1, r2; web lists rel and s0 again (deduplicated)
    between w0, w1, w2; web-snopes lists rel, s0, s1 again and then t0, t1,
    t2. Five searches and twelve articles.
    """
    rel = _add(plan, Article(_http(record.snopes_url), "snopes", _relevant_label(rng, record)))

    def snopes():
        return _add(plan, Article(_snopes_url(rng), "snopes", _neutral(rng)))

    def reuters():
        return _add(plan, Article(_reuters_url(rng), "reuters", _neutral(rng)))

    s = [snopes() for _ in range(4)]
    r = [reuters() for _ in range(5)]
    w = [reuters() for _ in range(3)]
    t = [snopes() for _ in range(4)]
    others = [_other_url(rng, i) for i in range(4)]
    layouts = {
        "snopes": (rel, *s),
        "reuters": tuple(r),
        "web": (others[0], rel, others[1], w[0], s[0], others[2], w[1], others[3], w[2]),
        "web-snopes": (rel, s[0], s[1], *t),
    }
    for engine, results in layouts.items():
        relevant = None if engine == "reuters" else rel
        plan.serps[(record.id, engine)] = Serp(engine, results, relevant, "small")


def _plan_politwoops(plan: Plan, rng: random.Random, record: Record) -> None:
    match = record.authentic and rng.random() < 0.5
    near = [f"{record.body[: max(8, len(record.body) // 2)]} {' '.join(rng.choices(_VOCAB, k=6))}"
            for _ in range(rng.randrange(1, 4))]
    if match:
        near.insert(rng.randrange(len(near) + 1), record.body)
    plan.politwoops[record.id] = PolitwoopsPage(tuple(near), match)


# --- request routing -------------------------------------------------------


def _query_text(body: str) -> str:
    return _CONTROL.sub(" ", body)


def route(plan: Plan, url: str) -> Optional[tuple]:
    """What a URL asks for: ("serp", record id, engine), ("article", url) or None.

    A search URL is mapped to its corpus record by decoding the query and
    prefix-matching corpus bodies.
    """
    parts = urlsplit(url)
    host = (parts.hostname or "").lower()
    engine = query = None
    if host == "www.snopes.com" and parts.path.startswith("/search/"):
        engine, query = "snopes", unquote(parts.path[len("/search/"):].removesuffix("/"))
    elif host == "www.reuters.com" and parts.path == "/search/news":
        engine, query = "reuters", _param(parts.query, "blob")
    elif host == "www.google.com" and parts.path == "/search":
        engine, query = "web", _param(parts.query, "q")
        if query is not None and query.endswith(SITE_FILTER):
            engine, query = "web-snopes", query[: -len(SITE_FILTER)]
    elif host == "projects.propublica.org" and parts.path == "/politwoops/index":
        engine, query = POLITWOOPS, _param(parts.query, "q")
    if engine is None:
        article = _find_article(plan, url)
        return ("article", article) if article else None
    record = _match_record(plan.records, query or "")
    return ("serp", record.id, engine) if record else None


def _param(query: str, name: str) -> Optional[str]:
    values = parse_qs(query, keep_blank_values=True).get(name)
    return values[0] if values else None


def _match_record(records: list[Record], query: str) -> Optional[Record]:
    if not query:
        return None
    hits = [r for r in records if _query_text(r.body).startswith(query)]
    if len(hits) > 1:
        hits = [r for r in hits if _query_text(r.body) == query]
    return hits[0] if len(hits) == 1 else None


def _find_article(plan: Plan, url: str) -> Optional[str]:
    if url in plan.articles:
        return url
    alt = url[:-1] if url.endswith("/") else url + "/"
    return alt if alt in plan.articles else None


def render(plan: Plan, url: str) -> Optional[bytes]:
    """Page bytes for a URL, or None for a URL the plan does not know (a 404)."""
    target = route(plan, url)
    return None if target is None else render_target(plan, target)


def render_target(plan: Plan, target: tuple) -> bytes:
    """Page bytes for a routed target; seeded by the target, so every URL
    that routes to it gets the same bytes."""
    rng = random.Random(f"page:{plan.workload}:{plan.seed}:{':'.join(target)}")
    if target[0] == "article":
        article = plan.articles[target[1]]
        small = plan.workload == "live-verify"
        return _render_article(rng, article, 1 if small else ARTICLE_KB).encode("utf-8")
    _, record_id, engine = target
    record = plan.record(record_id)
    if engine == POLITWOOPS:
        return _render_politwoops(rng, plan.politwoops[record_id]).encode("utf-8")
    serp = plan.serps[(record_id, engine)]
    renderer = _render_web_serp if engine in ("web", "web-snopes") else _render_site_serp
    return renderer(rng, serp, record).encode("utf-8")


# --- page rendering --------------------------------------------------------


def _words(rng: random.Random, count: int) -> str:
    return " ".join(rng.choices(_VOCAB, k=count))


def _filler(rng: random.Random, nbytes: int) -> list[str]:
    """Article body markup of about ``nbytes``: paragraphs, lists, headings,
    unclosed ``<p>``/``<li>`` and a few stray end tags."""
    out, size = [], 0
    while size < nbytes:
        kind = rng.random()
        if kind < 0.6:
            chunk = f"<p>{_words(rng, rng.randrange(40, 120))}</p>\n"
        elif kind < 0.7:
            chunk = f"<p>{_words(rng, 30)} <a href=\"/tag/{_slug(rng, 2)}/\">{_words(rng, 2)}</a>\n"
        elif kind < 0.8:
            items = "".join(f"<li>{_words(rng, 12)}\n" for _ in range(rng.randrange(2, 6)))
            chunk = f"<ul>\n{items}</ul>\n"
        elif kind < 0.9:
            chunk = f"<h3>{_words(rng, 4)}</h3>\n<p><strong>{_words(rng, 3)}</strong> {_words(rng, 50)}</span></p>\n"
        else:
            chunk = f"<blockquote><p>{_words(rng, 25)}</p></blockquote>\n"
        out.append(chunk)
        size += len(chunk)
    return out


def _head(title: str) -> str:
    return (
        "<!doctype html>\n<html lang=\"en\">\n<head><meta charset=\"utf-8\">"
        f"<title>{html.escape(title)}</title>\n"
        "<script>window.dataLayer = window.dataLayer || []; if (a < b && c > d) {}</script>\n"
        "<style>.x > .y { color: red }</style></head>\n<body>\n"
    )


def _nav(rng) -> str:
    links = "".join(f"<li><a href=\"/{_slug(rng, 1)}/\">{_words(rng, 1)}</a>\n" for _ in range(8))
    return f"<header><nav><ul>\n{links}</ul></nav></header>\n"


def _render_article(rng: random.Random, article: Article, kb: int) -> str:
    title = _words(rng, 8)
    body = _filler(rng, kb * 1024)
    late = max(1, len(body) * 9 // 10)
    if article.text_scan:
        block = f"<p>Rating: {article.label}. {_words(rng, 20)}</p>\n"
    elif article.publisher == "snopes":
        block = (
            "<div class=\"rating_title_wrap\">\n      "
            f"{html.escape(article.label)}\n      <img src=\"/images/rating.png\" alt=\"\">\n    </div>\n"
        )
    else:
        block = (
            f"<h2>VERDICT</h2>\n<p>{html.escape(article.label)}. {_words(rng, 25)}</p>\n"
            "<p>This article was produced by the Reuters Fact Check team.</p>\n"
        )
    return "".join([
        _head(title), _nav(rng), "<main><article>\n", f"<h1>{title}</h1>\n",
        f"<div class=\"claim_cont\">{_words(rng, 20)}</div>\n",
        *body[:late], block, *body[late:],
        "</article></main>\n<footer><p>", _words(rng, 10), "</footer>\n</body></html>\n",
    ])


def _serp_bytes_per_result(serp: Serp) -> int:
    """50 results make about 50 KB, 300 results about 150 KB."""
    n = len(serp.results)
    if serp.style == "small":
        return 120
    return (50 * 1024 + (n - 50) * 410) // n


def _snippet(rng, nbytes: int) -> str:
    return _words(rng, max(1, nbytes // 7))


def _render_site_serp(rng: random.Random, serp: Serp, record: Record) -> str:
    per = _serp_bytes_per_result(serp)
    out = [_head(f"Search Results: {record.id}"), _nav(rng), "<main>\n<div class=\"search-results\">\n"]
    if serp.style == "nested":
        out.append("<div class=\"wrap\">" * HOSTILE_DEPTH + "<span>" + _words(rng, 5) + "</span>"
                   + "</div>" * HOSTILE_DEPTH + "\n")
    for index, url in enumerate(serp.results):
        out.append(
            f"<article class=\"result\"><h3><a href=\"{html.escape(url)}\">{_words(rng, 6)}</a></h3>"
            f"<p>{_snippet(rng, per - 120)}</article>\n"
        )
        if serp.style == "stray" and index == 0:
            out.append("</span></em></b>" * (HOSTILE_STRAY_TAGS // 3) + "\n")
        if index % 7 == 3:
            out.append(f"<div class=\"related\"><a href=\"/news/{_slug(rng, 3)}/\">{_words(rng, 3)}</a></div>\n")
    out.append("</div>\n</main>\n<footer><a href=\"/about/\">About</a></footer>\n</body></html>\n")
    return "".join(out)


def _render_web_serp(rng: random.Random, serp: Serp, record: Record) -> str:
    per = _serp_bytes_per_result(serp)
    ad = lambda: (f"<div class=\"ad\"><a href=\"http://ads.example.com/aclk?c={rng.randrange(10**6)}\">"  # noqa: E731
                  f"{_words(rng, 4)}</a></div>\n")
    out = [_head(f"{record.id} - Search"), "<div id=\"tads\">\n", ad(), ad(), "</div>\n",
           "<div id=\"search\"><div id=\"rso\">\n"]
    for index, url in enumerate(serp.results):
        href = f"/url?q={quote(url, safe=':/')}&amp;sa=U"
        if serp.style == "anchors":
            out.append(f"<div class=\"g\"><a href=\"{href}\">{_words(rng, 2)}</a></div>\n")
            continue
        out.append(
            f"<div class=\"g\"><div class=\"r\"><a href=\"{href}&amp;ved={rng.randrange(10**9)}\">"
            f"<h3>{_words(rng, 6)}</h3></a></div>"
            f"<div class=\"s\"><span class=\"st\">{_snippet(rng, max(10, per - 160))}</div></div>\n"
        )
        if index % 10 == 4:
            out.append(f"<div data-text-ad=\"1\">{ad()}</div>\n")
    out.append(f"<a href=\"/search?q=next&amp;start=10\">Next</a>\n</div></div>\n<div id=\"bottomads\">{ad()}</div>\n"
               "</body></html>\n")
    return "".join(out)


def _render_politwoops(rng: random.Random, page: PolitwoopsPage) -> str:
    out = [_head("Politwoops | Deleted Tweets"), "<div class=\"results\">\n"]
    for text in page.cards:
        out.append(
            "<div class=\"tweet\"><div class=\"tweet-info\">"
            f"<span class=\"screen-name\">@{_slug(rng, 1)}</span></div>\n"
            f"<div class=\"tweet-content\"><p>{html.escape(text)}</p></div>\n"
            f"<a class=\"tweet-permalink\" href=\"/politwoops/tweet/{rng.randrange(10**18)}\">"
            "Deleted after 2 hours</a></div>\n"
        )
    out.append("</div>\n</body></html>\n")
    return "".join(out)


def serp_targets(plan: Plan) -> list[tuple]:
    """Every search page the plan defines, for rendering ahead of traffic."""
    return [("serp", rid, engine) for rid, engine in plan.serps] + [
        ("serp", rid, POLITWOOPS) for rid in plan.politwoops
    ]
