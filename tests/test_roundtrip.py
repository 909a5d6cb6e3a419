"""Round-trip properties: extraction reports exactly what a page encodes.

Arbitrary result URLs, and Politwoops card texts and detail links, are
planted into small templates of each engine's page shape. Hrefs are
serialized both entity-escaped and with raw ``&``, the two ways real pages
write them. What comes back must be the planted values, in page order, with
only the documented changes: a ranked result URL has its scheme and host
lowercased and its fragment dropped, and a repeat of an earlier result is
left out.

Rating labels are planted the same way into a Snopes rating block and a
Reuters VERDICT section, serialized with entities, curly quotes, whitespace
runs and non-ASCII text. The scraper must report the planted label decoded
and whitespace-collapsed: a rating is its label, and its kind is read from it.
"""

import html
from typing import Optional
from urllib.parse import quote

from hypothesis import given, settings
from hypothesis import strategies as st

from tweetcheck.adapters import ENGINES, ranked_search, search_politwoops
from tweetcheck.fetch import Fetcher, FetchMode, FetchResponse
from tweetcheck.model import RATING_LABEL_TABLE, SourceId, TruthRating, TweetClaim
from tweetcheck.ratings import scrape_rating

from conftest import StubPage, StubTransport, engine_query_url

BODY = "planted results come back unchanged"
CLAIM = TweetClaim(body=BODY)

#: Query parameter names, several of them HTML entity names that a page may
#: carry unescaped (``&copy=3``).
_PARAM_NAMES = st.one_of(
    st.sampled_from(["notify", "region", "copy", "amp", "lt", "not", "reg", "para", "sect", "ampx", "sa", "id"]),
    st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789", min_size=1, max_size=6),
)
_CHUNK = st.one_of(
    st.text(alphabet="abcXYZ019-._~", min_size=1, max_size=6),
    st.sampled_from(["%2F", "%20", "%25", "%e2%9c%93", "%C3%A9", "é", "ü", "✓", "日本", "+"]),
)
_SEGMENT = st.lists(_CHUNK, min_size=1, max_size=3).map("".join).filter(lambda s: s not in (".", ".."))
_PATH_TAIL = st.lists(_SEGMENT, min_size=1, max_size=3).map("/".join)
_QUERY = st.lists(
    st.tuples(_PARAM_NAMES, st.lists(_CHUNK, max_size=2).map("".join)).map("=".join), max_size=4
).map("&".join)
_FRAGMENT = st.one_of(st.just(""), st.text(alphabet="abcXYZ019-/?", min_size=1, max_size=8))
_SCHEME = st.sampled_from(["http", "https", "HTTP", "Https"])
_PORT = st.sampled_from(["", "", ":8080"])
_IPV6 = st.tuples(st.integers(0, 0xFFFF), st.booleans()).map(
    lambda t: f"[2001:db8::{t[0]:x}]".upper() if t[1] else f"[2001:db8::{t[0]:x}]"
)
_WEB_HOST = st.one_of(
    st.sampled_from(["example.org", "News.Example.COM", "twitter.com", "WWW.Snopes.com", "bücher.example"]),
    _IPV6,
)


def _tail(path: str, query: str, fragment: str) -> str:
    return path + (f"?{query}" if query else "") + (f"#{fragment}" if fragment else "")


def _serialize(href: str, escaped: bool) -> str:
    return html.escape(href) if escaped else href


@st.composite
def _result(draw, hosts, path_prefix: str, base: Optional[str] = None):
    """(href as planted, the URL ranked_search should report for it).

    With a ``base``, the href may be relative to it: the results page's URL.
    """
    path = path_prefix + draw(_PATH_TAIL)
    query, fragment = draw(_QUERY), draw(_FRAGMENT)
    if base is not None and draw(st.booleans()):
        return _tail(path, query, fragment), base + _tail(path, query, "")
    scheme, host, port = draw(_SCHEME), draw(hosts), draw(_PORT)
    href = f"{scheme}://{host}{port}{_tail(path, query, fragment)}"
    return href, f"{scheme.lower()}://{host.lower()}{port}{_tail(path, query, '')}"


def _site_results(host: str, path_prefix: str):
    hosts = st.sampled_from([f"www.{host}", host, f"WWW.{host.capitalize()}", f"m.{host}"])
    return st.lists(_result(hosts, path_prefix, f"https://www.{host}"), max_size=6)


def _site_serp(hrefs: list[str], escaped: bool, host: str) -> bytes:
    """A built-in search results page, with links that are not results around them."""
    noise = [
        "/", "/news/some-story/", "mailto:desk@example.org", "javascript:void(0)",
        f"https://not{host}/fact-check/elsewhere/", "https://evil.example/article/x-idUS1",
    ]
    items = []
    for index, href in enumerate(hrefs):
        items.append(f'<article class="result"><h3><a href="{_serialize(href, escaped)}">r</a></h3></article>')
        items.append(f'<div class="related"><a href="{noise[index % len(noise)]}">more</a><a>no href</a></div>')
    return (
        '<html><head><title>Search</title></head><body><nav><a href="/">Home</a></nav>'
        f'<div class="search-results">{"".join(items)}</div>'
        '<footer><a href="/about/">About</a></footer></body></html>'
    ).encode("utf-8")


def _ranked(source: SourceId, page: bytes):
    url = engine_query_url(source, BODY)
    fetcher = Fetcher(FetchMode.LIVE, delay_ms=0, transport=StubTransport({url: StubPage(page)}))
    return ranked_search(ENGINES[source], CLAIM, fetcher)


def _unique(urls):
    return tuple(dict.fromkeys(urls))


@settings(max_examples=100, deadline=None)
@given(results=_site_results("snopes.com", "/fact-check/"), escaped=st.booleans())
def test_snopes_results_round_trip(results, escaped):
    page = _site_serp([href for href, _ in results], escaped, "snopes.com")
    assert _ranked(SourceId.SNOPES_SEARCH, page).urls == _unique(want for _, want in results)


@settings(max_examples=100, deadline=None)
@given(results=_site_results("reuters.com", "/article/"), escaped=st.booleans())
def test_reuters_results_round_trip(results, escaped):
    page = _site_serp([href for href, _ in results], escaped, "reuters.com")
    assert _ranked(SourceId.REUTERS_SEARCH, page).urls == _unique(want for _, want in results)


_EXTRA_PARAMS = st.lists(
    st.tuples(_PARAM_NAMES.filter(lambda name: name not in ("q", "url")), st.text("abcXYZ019-._~")).map("=".join),
    max_size=3,
)


@st.composite
def _web_result(draw):
    """(href as planted, expected URL): a direct link or a ``/url?q=`` wrapper."""
    target, want = draw(_result(_WEB_HOST, "/"))
    if draw(st.booleans()):
        return target, want
    before, after = draw(_EXTRA_PARAMS), draw(_EXTRA_PARAMS)
    key = draw(st.sampled_from(["q", "url"]))
    return "/url?" + "&".join([*before, f"{key}={quote(target, safe='')}", *after]), want


def _web_serp(hrefs: list[str], escaped: bool) -> bytes:
    """A web results page: organic links, ad blocks and the engine's own links."""
    ad = '<div data-text-ad="1"><a href="https://ads.example/aclk?c={}">ad</a></div>'
    items = []
    for index, href in enumerate(hrefs):
        items.append(f'<div class="g"><a href="{_serialize(href, escaped)}"><h3>r</h3></a></div>')
        items.append(ad.format(index) if index % 2 else '<a href="https://www.google.com/preferences?hl=en">p</a>')
    return (
        f'<html><body><div id="tads">{ad.format("top")}</div><div id="search"><div id="rso">'
        f'{"".join(items)}<a href="/search?q=next&amp;start=10">Next</a></div></div>'
        f'<div id="bottomads">{ad.format("bottom")}</div></body></html>'
    ).encode("utf-8")


@settings(max_examples=150, deadline=None)
@given(results=st.lists(_web_result(), max_size=6), escaped=st.booleans())
def test_web_results_round_trip(results, escaped):
    page = _web_serp([href for href, _ in results], escaped)
    for source in (SourceId.WEB_SEARCH, SourceId.WEB_SEARCH_SITE_SNOPES):
        assert _ranked(source, page).urls == _unique(want for _, want in results)


_CARD_TEXT = st.text(st.characters(blacklist_categories=("Cs", "Cc")), max_size=40)
_POLITWOOPS_HOST = st.sampled_from(["projects.propublica.org", "Projects.ProPublica.ORG"])


@st.composite
def _card(draw):
    """(card markup pieces, the hit search_politwoops should report, or None)."""
    text, handle = draw(_CARD_TEXT), draw(st.text(alphabet="abcXYZ_019", min_size=1, max_size=8))
    path, query = "/politwoops/tweet/" + draw(_PATH_TAIL), draw(_QUERY)
    tail = _tail(path, query, draw(_FRAGMENT))
    kind = draw(st.sampled_from(["absolute", "relative", "off-host"]))
    if kind == "relative":
        href = tail
    else:
        host = draw(_POLITWOOPS_HOST) if kind == "absolute" else "elsewhere.example"
        href = f"https://{host}{tail}"
    # a hit's link is reported as a result link is: host lowercased, no fragment
    want = "https://projects.propublica.org" + _tail(path, query, "")
    hit = None if kind == "off-host" else (text.strip(), want)
    return (text, href, handle), hit


def _politwoops_page(cards, escaped: bool) -> bytes:
    out = ['<html><body><div class="results">']
    for text, href, handle in cards:
        out.append(
            f'<div class="tweet"><div class="tweet-info"><span class="screen-name">@{handle}</span></div>'
            f'<div class="tweet-content"><p>{html.escape(text)}</p></div>'
            f'<a class="tweet-permalink" href="{_serialize(href, escaped)}">Deleted</a></div>'
        )
    out.append('<div class="tweet"><div class="tweet-content"><p>card without a link</p></div></div>')
    out.append("</div></body></html>")
    return "".join(out).encode("utf-8")


@settings(max_examples=100, deadline=None)
@given(cards=st.lists(_card(), max_size=5), escaped=st.booleans())
def test_politwoops_cards_round_trip(cards, escaped):
    url = engine_query_url(SourceId.POLITWOOPS, BODY)
    page = _politwoops_page([markup for markup, _ in cards], escaped)
    fetcher = Fetcher(FetchMode.LIVE, delay_ms=0, transport=StubTransport({url: StubPage(page)}))
    hits = search_politwoops(ENGINES[SourceId.POLITWOOPS], CLAIM, fetcher)
    assert [(h.tweet_text, h.detail_url) for h in hits] == [hit for _, hit in cards if hit]


# Label pieces as (decoded text, how the page serializes it).
_LABEL_SPACE = st.sampled_from([(" ", " "), ("  ", "  "), ("\t", "\t"), ("\n", "\n"), ("\xa0", "&nbsp;"), (" ", "&#32;")])
_LABEL_CHAR = st.sampled_from([
    ("&", "&amp;"), ("<", "&lt;"), (">", "&gt;"), ('"', "&quot;"), ('"', '"'), ("'", "&#39;"), ("'", "'"),
    ("\u2019", "&rsquo;"), ("\u2019", "&#8217;"), ("\u2018", "\u2018"), ("\u201c", "&#x201C;"), ("\u201d", "&rdquo;"),
    ("\u00e9", "&eacute;"), ("\u00e9", "\u00e9"), ("\u00fc", "\u00fc"), ("\u65e5\u672c", "\u65e5\u672c"), ("\u2014", "&mdash;"),
])
_LABEL_WORD = st.text(alphabet="abcXYZ019-", min_size=1, max_size=8).map(lambda word: (word, word))
_TABLE_LABEL = st.tuples(st.sampled_from(sorted(RATING_LABEL_TABLE)), st.sampled_from([str.lower, str.upper, str.title])).map(
    lambda t: (t[1](t[0]), t[1](t[0]).replace(" ", "  "))
)
_FREE_LABEL = st.lists(st.one_of(_LABEL_WORD, _LABEL_CHAR, _LABEL_SPACE), min_size=1, max_size=8).filter(
    lambda pieces: "".join(decoded for decoded, _ in pieces).strip()
)


@st.composite
def _label(draw, punctuation: str):
    """(serialized label, the label the scraper should report)."""
    core = [draw(_TABLE_LABEL)] if draw(st.booleans()) else draw(_FREE_LABEL)
    punct = draw(st.sampled_from(["", *punctuation]))
    pieces = [*draw(st.lists(_LABEL_SPACE, max_size=2)), *core, (punct, punct), *draw(st.lists(_LABEL_SPACE, max_size=2))]
    decoded = "".join(text for text, _ in pieces)
    return "".join(markup for _, markup in pieces), " ".join(decoded.split())


def _scrape(url: str, article: str):
    page = f"<html><head><title>Fact check</title></head><body><article>{article}</article></body></html>"
    return scrape_rating(FetchResponse(200, url, page.encode("utf-8"), "text/html; charset=utf-8"))


@settings(max_examples=150, deadline=None)
@given(label=_label(".!?,:;"))
def test_snopes_rating_label_round_trip(label):
    markup, want = label
    rating = _scrape(
        "https://www.snopes.com/fact-check/planted/",
        f'<h1>Claim</h1><div class="rating_title_wrap">{markup}<img src="/rating.png" alt=""></div><p>Body.</p>',
    )
    assert rating == TruthRating(want) and rating.raw_label == want


@settings(max_examples=150, deadline=None)
@given(label=_label("!?,:;"), explanation=st.booleans())
def test_reuters_rating_label_round_trip(label, explanation):
    # The verdict is the first sentence of the paragraph after the heading,
    # so a planted label carries no full stop of its own.
    markup, want = label
    rest = ". The claim has no basis in the account&rsquo;s archive." if explanation else ""
    rating = _scrape(
        "https://www.reuters.com/article/planted-idUSPLANTED1",
        f"<p>Intro.</p><h2>VERDICT</h2><p>{markup}{rest}</p><p>This article was produced by the Reuters Fact Check team.</p>",
    )
    assert rating == TruthRating(want) and rating.raw_label == want
