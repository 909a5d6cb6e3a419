import gc
import html
import re
import time
from pathlib import Path
from urllib.parse import urlsplit

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tweetcheck import htmldoc
from tweetcheck.adapters import ENGINES, ranked_search, read_results_page, search_politwoops
from tweetcheck.errors import ParseError
from tweetcheck.fetch import Fetcher, FetchMode, FetchResponse
from tweetcheck.htmldoc import Element, parse_selector, parse_html, page_text
from tweetcheck.model import RatingKind, SourceId, TweetClaim
from tweetcheck.ratings import scrape_rating

from conftest import (
    PANDEMIC_BODY,
    StubPage,
    StubTransport,
    engine_query_url,
    page,
    record_pages,
    replay_fetcher,
)
from html_reference import outermost, read_results_tree, reference_matches, reference_parse, shape

try:
    from re import _parser as sre_parse  # Python 3.11+
except ImportError:  # Python 3.10
    import sre_parse

SAMPLE = """
<html><body>
<div id="search">
  <div class="g first"><a href="https://a.example/">A &amp; B</a></div>
  <div class="g"><a href="https://b.example/">second</a></div>
  <div data-text-ad="1"><a href="https://ad.example/">ad</a></div>
</div>
<div id="other"><a name="x">no href</a></div>
<p>Tail &#8217;quote&#8217;</p>
</body></html>
"""


class TestSelectors:
    def setup_method(self):
        self.root = parse_html(SAMPLE)

    def test_tag_and_attr(self):
        anchors = self.root.select("a[href]")
        assert [a.attrs.get("href") for a in anchors] == [
            "https://a.example/", "https://b.example/", "https://ad.example/",
        ]

    def test_descendant_chain_with_id(self):
        # no selector constant needs one: the web rows scope their results instead
        with pytest.raises(ValueError) as exc:
            self.root.select("div#search a[href]")
        assert str(exc.value) == "unsupported selector syntax: 'div#search a[href]'"
        assert len(self.root.select_one("div#search").select("a[href]")) == 3

    def test_class_selector(self):
        assert len(self.root.select("div.g")) == 2
        assert len(self.root.select(".first")) == 1

    def test_attr_equals_and_contains(self):
        assert len(self.root.select("[data-text-ad]")) == 1
        assert len(self.root.select("a[href*=example]")) == 3
        assert len(self.root.select('a[href*="//b."]')) == 1

    def test_selector_list(self):
        found = self.root.select("div#other, p")
        assert [el.tag for el in found] == ["div", "p"]

    def test_entities_decoded_in_text(self):
        first = self.root.select_one("div.g").select("a")[0]
        assert first.text() == "A & B"

    def test_numeric_entities_decoded(self):
        paragraph = self.root.select("p")[0]
        assert paragraph.text().strip() == "Tail ’quote’"

    def test_unsupported_syntax_rejected(self):
        with pytest.raises(ValueError):
            self.root.select("div > a")

    @pytest.mark.parametrize(
        "selector, problem",
        [
            ("a[[", "unsupported selector syntax: 'a[['"),
            ("div..x", "unsupported selector syntax: 'div..x'"),
            ("a[href]b", "two tag names in selector: 'a[href]b'"),  # not read as ab[href]
            ("", "empty selector"),
            ("div#search a[href]", "unsupported selector syntax: 'div#search a[href]'"),
            ("[id=x]", "unsupported selector syntax: '[id=x]'"),
            ("[href^=x]", "unsupported selector syntax: '[href^=x]'"),
            ("[href$=x]", "unsupported selector syntax: '[href$=x]'"),
            ('a[href*=""]', """empty substring in selector: 'a[href*=""]'"""),
            ("a[href*=]", "empty substring in selector: 'a[href*=]'"),
        ],
    )
    def test_malformed_selector_rejected(self, selector, problem):
        with pytest.raises(ValueError) as exc:
            parse_selector(selector)
        assert str(exc.value) == problem

    def test_valueless_class_attribute_has_no_classes(self):
        root = parse_html('<div class><p class="x">a</p></div>')
        assert [el.tag for el in root.select("div.x, .x")] == ["p"]

    def test_valueless_attribute_is_present_and_contains_nothing(self):
        root = parse_html("<div data-text-ad>x</div>")
        assert [el.tag for el in root.select("[data-text-ad]")] == ["div"]
        assert root.select("[data-text-ad*=x]") == []

    def test_class_list_splits_on_ascii_whitespace_only(self):
        root = parse_html('<div class="tweet\xa0x">a</div><p class="x\x0ctweet">b</p><b class="tweet\x0bx">c</b>')
        assert [el.tag for el in root.select("div.tweet, p.tweet, b.tweet, .x")] == ["p"]

    def test_select_one_is_first_match_or_none(self):
        assert self.root.select_one("a[href]").attrs.get("href") == "https://a.example/"
        assert self.root.select_one("div#other, p").tag == "div"
        assert self.root.select_one("table") is None

    def test_compiled_selector_is_cached_and_immutable(self):
        compounds = parse_selector("div#search, a[href]")
        assert compounds is parse_selector("div#search, a[href]")
        assert isinstance(compounds, tuple) and len(compounds) == 2


class TestParentLinks:
    """A tree points only down: containment is read from the root down."""

    def test_detached_element_has_no_parent(self):
        root = parse_html(SAMPLE)
        anchor = root.select_one("div.g").select("a")[0]
        del root
        assert not hasattr(anchor, "parent")
        assert anchor.text() == "A & B"

    def test_ad_filter_drops_what_containment_drops(self, tmp_path):
        root = parse_html(SAMPLE)
        ads = root.select(ENGINES[SourceId.WEB_SEARCH].selectors["ads"])
        in_ads = {id(el) for ad in ads for el in [ad, *_descendants(ad)]}
        anchors = root.select_one("div#search").select("a[href]")
        kept = [anchor.attrs.get("href") for anchor in anchors if id(anchor) not in in_ads]
        url = engine_query_url(SourceId.WEB_SEARCH, "sample page")
        store = record_pages(tmp_path / "fx", {url: StubPage(SAMPLE.encode())})
        results = ranked_search(ENGINES[SourceId.WEB_SEARCH], TweetClaim(body="sample page"), replay_fetcher(store))
        assert list(results.urls) == kept == ["https://a.example/", "https://b.example/"]


class TestTreeLifetime:
    """A parsed tree holds no reference cycle, so dropping its root frees it."""

    @pytest.fixture(autouse=True)
    def _collector_off(self):
        gc.collect()
        gc.disable()
        yield
        gc.enable()

    @staticmethod
    def _live_elements() -> int:
        return sum(isinstance(obj, Element) for obj in gc.get_objects())

    def test_parsed_page_freed_on_del(self):
        text = page("google_serp_pandemic.html").decode("utf-8")
        before = self._live_elements()
        root = parse_html(text)
        assert self._live_elements() > before
        del root
        assert self._live_elements() == before
        assert gc.collect() == 0

    def test_deep_nest_freed_on_del(self):
        before = self._live_elements()
        root = parse_html("<div>" * 100_000)
        del root
        assert self._live_elements() == before
        assert gc.collect() == 0

    def test_search_web_leaves_nothing_for_the_collector(self, pandemic_store):
        fetcher = replay_fetcher(pandemic_store)
        claim = TweetClaim(body=PANDEMIC_BODY)
        ranked_search(ENGINES[SourceId.WEB_SEARCH], claim, fetcher)  # first use fills module-level caches
        gc.collect()
        assert ranked_search(ENGINES[SourceId.WEB_SEARCH], claim, fetcher).urls
        assert gc.collect() == 0


_MARKUP = st.lists(
    st.one_of(
        st.sampled_from([
            "<div>", "</div>", "<p>", "</p>", "</b>", "<a href='x'>", "</a>", "<br/>",
            "<div/>", "<script>", "</script>", "<!--", "-->", "<!", "<![CDATA[", "]]>",
            "<![foo[", "<![ 1", "<?", "<!DOCTYPE html>", "&amp;", "&#", "&#x110000;", "<", ">",
        ]),
        st.text(max_size=12),
    ),
    max_size=40,
).map("".join)


@settings(max_examples=150, deadline=None)
@given(_MARKUP)
def test_parse_html_is_total_and_leaves_nothing_for_the_collector(text):
    # freezing keeps older objects out of the count, and out of the time
    gc.disable()
    gc.freeze()
    try:
        root = parse_html(text)
        root.select("div, a[href], p")
        del root
        assert gc.collect() == 0
    finally:
        gc.unfreeze()
        gc.enable()


class TestMalformedHtml:
    def test_unclosed_tags_recovered(self):
        root = parse_html("<div><p>one<p>two</div><span>after</span>")
        assert root.select("span")[0].text() == "after"

    def test_stray_end_tags_ignored(self):
        root = parse_html("</div><p>ok</p>")
        assert root.select("p")[0].text() == "ok"

    def test_void_elements_do_not_nest(self):
        root = parse_html("<p>a<br>b<img src='x'>c</p>")
        assert root.select("p")[0].text() == "abc"

    def test_implicitly_closed_elements_are_no_longer_open(self):
        # </div> closes the <span> too, so the </span> after it is stray
        root = parse_html("<div><span>in</div></span><span>after</span>")
        assert [el.tag for el in root.children] == ["div", "span"]
        assert root.select_one("div").select("span")[0].text() == "in"

    def test_stray_end_tags_cost_linear_time(self):
        # at 3,000 open elements x 40,000 stray end tags a stack scan per
        # stray tag takes several seconds; a linear builder well under one
        depth = 3000
        started = time.perf_counter()
        root = parse_html("<div>" * depth + "</b>" * 40_000 + "<p>end</p>")
        assert time.perf_counter() - started < 2.5
        assert len(root.select("div")) == depth
        assert [p.text() for p in root.select_one("div").select("p")] == ["end"]

    def test_deep_nesting_parses_and_selects(self):
        depth = 5000
        root = parse_html("<div>" * depth + '<a href="x">deep</a>' + "</div>" * depth)
        assert len(root.select("div")) == depth
        assert [a.text() for a in root.select_one("div").select("a[href]")] == ["deep"]


class TestIter:
    def test_nested_elements_in_document_order(self):
        root = parse_html("<a><b><c></c></b><d></d></a><e><f></f></e>")
        assert [el.tag for el in root.iter()] == ["a", "b", "c", "d", "e", "f"]


class TestParseResponse:
    def test_html_content_type_accepted(self):
        resp = FetchResponse(
            status=200, final_url="https://x/", body=b"<p>hi</p>",
            content_type="text/html; charset=utf-8",
        )
        assert parse_html(page_text(resp)).select("p")[0].text() == "hi"

    def test_non_html_content_type_rejected(self):
        resp = FetchResponse(
            status=200, final_url="https://x/img.png", body=b"\x89PNG",
            content_type="image/png",
        )
        with pytest.raises(ParseError):
            parse_html(page_text(resp))

    def test_charset_honoured(self):
        body = "<p>café</p>".encode("latin-1")
        resp = FetchResponse(
            status=200, final_url="https://x/", body=body,
            content_type="text/html; charset=latin-1",
        )
        assert parse_html(page_text(resp)).select("p")[0].text() == "café"

    @pytest.mark.parametrize("content_type", ['text/html; charset="iso-8859-1"', "text/html; charset=iso-8859-1"])
    def test_quoted_charset_reads_as_unquoted(self, content_type):
        # RFC 9110 §8.3.1: a quoted parameter value is the same value unquoted
        resp = FetchResponse(status=200, final_url="https://x/", body=b"caf\xe9", content_type=content_type)
        assert htmldoc.decode_body(resp) == "café"

    def test_missing_content_type_assumed_html(self):
        resp = FetchResponse(status=200, final_url="https://x/", body=b"<p>ok</p>")
        assert parse_html(page_text(resp)).select("p")[0].text() == "ok"

    @pytest.mark.parametrize("charset, body, decoded", [
        # each surrogate code point is replaced, a pair's halves too
        ("unicode_escape", b"a\\udcffb\\ud83d\\ude00", "a\ufffdb\ufffd\ufffd"),
        ("raw_unicode_escape", b"a\\udcffb", "a\ufffdb"),
        ("utf-7", b"a+3P8-b+2D3eAA-", "a\ufffdb\U0001f600"),  # utf-7 joins a pair itself
    ])
    def test_surrogates_a_charset_decodes_become_replacement_characters(self, charset, body, decoded):
        resp = FetchResponse(
            status=200, final_url="https://x/", body=body, content_type=f"text/html; charset={charset}",
        )
        assert "\udcff" in body.decode(charset)
        assert htmldoc.decode_body(resp) == decoded

    @pytest.mark.parametrize("content_type", ["text/html; charset=utf-8", "text/html; charset=UTF8", "text/html", ""])
    @pytest.mark.parametrize("body", [
        "Café – “quoted” 中文 🙂".encode(),
        b"\xed\xa0\x80 \xed\xb3\xbf",  # surrogates encoded as UTF-8: the decoder never yields one
        b"caf\xe9 \xff\xfe torn \xe2\x82",
    ])
    def test_a_utf8_page_decodes_as_before(self, content_type, body):
        # what each page decoded to when every page was searched for surrogates
        before = re.sub("[\ud800-\udfff]", "\ufffd", body.decode("utf-8", errors="replace"))
        resp = FetchResponse(status=200, final_url="https://x/", body=body, content_type=content_type)
        assert htmldoc.decode_body(resp) == before


class TestHostileInputTime:
    """Inputs that held the stdlib parser for seconds to minutes: it rescanned
    to the end of the input from every "<" of an unterminated construct."""

    # Sizes at which the stdlib parser takes well over the 2 s bound (seconds,
    # measured on Python 3.11.7): "<a x='" 63, "<a" 22, "<!--" 12 at 100 KB;
    # "<![CDATA[" and "</a" under 2 at 100 KB, so they run larger.
    @pytest.mark.parametrize("unit, size", [
        ("<a x='", 100_000),
        ("<a", 100_000),
        ("<!--", 100_000),
        ("<![CDATA[", 400_000),
        ("</a", 300_000),
    ])
    def test_repeated_unterminated_construct_parses_fast(self, unit, size):
        text = unit * (size // len(unit))
        started = time.perf_counter()
        root = parse_html(text)
        assert time.perf_counter() - started < 2.0
        assert root.children == []  # one construct, open to the end of the input


# Card selectors written as lists of alternatives, some of which match nothing.
_LISTED_CARD_SELECTORS = {
    "text": "p.tweet-content, div.tweet-content",
    "results": "link[href*=/politwoops/tweet/], a[href*=/politwoops/tweet/]",
}
# Pieces of a generated tracker page; left unclosed, they nest. Among them: a
# card that matches "text" itself, a self-closing card, raw text and a character
# reference that may fall in a text element, and an element matching both
# "text" and "results" (under the row's own selectors).
_CARD_PAGE_STEPS = (
    '<div class="tweet">', '<p class="tweet-content">text {i}', '<a href="/politwoops/tweet/{i}">',
    '<span class="screen-name">@h{i}', "<span>", "</div>", "</p>", "</a>", "</span>",
    '<div class="tweet tweet-content">', '<div class="tweet"/>', "<script>s{i} &amp; <p>x</script>",
    "a &amp; b{i}", '<a class="tweet-content" href="/politwoops/tweet/{i}">t{i}',
)


def _card(i: int) -> str:
    return (
        f'<div class="tweet"><p class="tweet-content">text {i}</p>'
        f'<a href="/politwoops/tweet/{i}">link</a><span class="screen-name">@h{i}</span></div>'
    )


def _flat(read: tuple) -> tuple:
    """A :func:`read_results_page` answer with the hrefs of its regions joined, in region order."""
    regions, challenge, marked = read
    return [href for hrefs, _ in regions for href in hrefs], challenge, marked


def _per_card_reading(root: Element, selectors) -> list[tuple[str, str]]:
    """(text, link) of each card, read card by card: each outermost card's
    selectors matched from the card. The reference for the card reader."""
    read = []
    for card in outermost(root.select(selectors["scope"])):
        text_el, link_el = (card.select_one(selectors[key]) for key in ("text", "results"))
        if text_el is not None and link_el is not None and link_el.attrs.get("href"):
            read.append((text_el.text().strip(), link_el.attrs.get("href")))
    return read


class TestHostileNesting:
    """Unclosed tags nest, so ordinary malformed markup can nest thousands
    deep. Matching walked every ancestor of every candidate, the card
    reader and the ad filter walked every nested card or ad again, and the
    Reuters scraper read the whole text of every nested heading: each took
    seconds to tens of seconds at these sizes. The card reader also matched
    each card's selectors from the card, walking up every unclosed tag above
    it first, so sibling cards deep in the page took quadratic time."""

    @staticmethod
    def _fetcher(source: SourceId, claim: TweetClaim, body: str) -> Fetcher:
        url = engine_query_url(source, claim.body)
        return Fetcher(FetchMode.LIVE, delay_ms=0, transport=StubTransport({url: StubPage(body.encode())}))

    def test_descendant_chain_over_nested_anchors(self):
        # the web rows' scoped read, which replaced the "div#search a[href]" chain
        depth = 16_000
        started = time.perf_counter()
        hrefs, challenge, marked = _flat(read_results_page(
            '<div id="search">' + '<a href="x">' * depth, ENGINES[SourceId.WEB_SEARCH].selectors
        ))
        assert (len(hrefs), challenge, marked) == (depth, False, False)
        assert time.perf_counter() - started < 2.5

    def test_nested_politwoops_cards(self):
        claim = TweetClaim(body="nested cards")
        card = '<div class="tweet"><p class="tweet-content">text</p><a href="/politwoops/tweet/1">link</a>'
        fetcher = self._fetcher(SourceId.POLITWOOPS, claim, card * 4_000)
        started = time.perf_counter()
        hits = search_politwoops(ENGINES[SourceId.POLITWOOPS], claim, fetcher)
        assert time.perf_counter() - started < 2.5
        assert [hit.tweet_text for hit in hits] == ["text"]  # the nested cards are part of the first

    @pytest.mark.parametrize("listed", [False, True])
    def test_sibling_politwoops_cards_under_unclosed_tags(self, listed):
        claim = TweetClaim(body="deep sibling cards")
        row = ENGINES[SourceId.POLITWOOPS]
        settings_ = row.replace(selectors={**row.selectors, **_LISTED_CARD_SELECTORS}) if listed else row
        count = 4_000
        body = "<span>" * count + "".join(_card(i) for i in range(count))
        fetcher = self._fetcher(SourceId.POLITWOOPS, claim, body)
        started = time.perf_counter()
        hits = search_politwoops(settings_, claim, fetcher)
        assert time.perf_counter() - started < 2.5
        assert [hit.tweet_text for hit in hits] == [f"text {i}" for i in range(count)]

    # static, as a property test under parametrize must be: pytest gives each
    # parameter its own instance, which hypothesis rejects as a second executor
    @staticmethod
    @pytest.mark.parametrize("listed", [False, True])
    @settings(max_examples=150, deadline=None)
    @given(steps=st.lists(st.sampled_from(_CARD_PAGE_STEPS), max_size=30))
    def test_card_reader_matches_per_card_reading(listed, steps):
        row = ENGINES[SourceId.POLITWOOPS]
        settings_ = row.replace(selectors={**row.selectors, **_LISTED_CARD_SELECTORS}) if listed else row
        body = "".join(step.format(i=i) for i, step in enumerate(steps))
        claim = TweetClaim(body="generated cards")
        hits = search_politwoops(settings_, claim, TestHostileNesting._fetcher(SourceId.POLITWOOPS, claim, body))
        assert [(hit.tweet_text, urlsplit(hit.detail_url).path) for hit in hits] == (
            _per_card_reading(parse_html(body), settings_.selectors)
        )

    def test_nested_ads(self):
        claim = TweetClaim(body="nested ads")
        depth = 8_000
        body = (
            '<div id="search">' + '<div data-text-ad="1"><a href="https://ad.example/">' * depth
            + "</div>" * depth + '<a href="https://result.example/">result</a></div>'
        )
        fetcher = self._fetcher(SourceId.WEB_SEARCH, claim, body)
        started = time.perf_counter()
        results = ranked_search(ENGINES[SourceId.WEB_SEARCH], claim, fetcher)
        assert time.perf_counter() - started < 2.5
        assert results.urls == ("https://result.example/",)

    def test_nested_reuters_headings(self):
        body = "<html><body><article>" + "<strong>VERDICT" * 4_000
        article = FetchResponse(200, "https://www.reuters.com/article/idUSTEST3", body.encode(), "text/html")
        started = time.perf_counter()
        rating = scrape_rating(article)
        assert time.perf_counter() - started < 2.5
        assert rating.missing  # only the innermost heading reads "VERDICT", and nothing follows it

    def test_nested_reuters_verdict_sections(self):
        body = "<div><h2>VERDICT</h2>" * 4_000 + "<p>False. x</p>"
        article = FetchResponse(200, "https://www.reuters.com/article/idUSTEST4", body.encode(), "text/html")
        started = time.perf_counter()
        rating = scrape_rating(article)
        assert time.perf_counter() - started < 2.5
        # each heading's next sibling holds the next section; only the innermost one has a label
        assert (rating.raw_label, rating.kind) == ("False", RatingKind.FALSE)

    def test_sibling_reuters_headings_holding_headings(self):
        section = "<strong><strong>VERDICT</strong></strong><span></span>"
        body = "<html><body><article>" + section * 4_000
        article = FetchResponse(200, "https://www.reuters.com/article/idUSTEST5", body.encode(), "text/html")
        started = time.perf_counter()
        rating = scrape_rating(article)
        assert time.perf_counter() - started < 2.5
        assert rating.missing  # every later sibling holds a heading or is empty


# Generated trees for comparing selector matching with a brute-force reference.
_NODE = st.tuples(
    st.sampled_from(["div", "a", "p"]),
    st.sampled_from([None, "x", "y"]),  # class
    st.sampled_from([None, "search"]),  # id
    st.booleans(),  # has href
)
# Each step opens an element under the current one, or (None) closes the
# current one. Steps come in runs: a few kinds of element opened in turn
# and never closed, so branches nest deep, or closes that climb back up, so
# a new deep branch can start from the middle of an old one.
_RUN = st.one_of(
    st.tuples(st.lists(_NODE, min_size=1, max_size=3), st.integers(min_value=1, max_value=12)).map(
        lambda run: run[0] * run[1]
    ),
    st.integers(min_value=1, max_value=30).map(lambda climb: [None] * climb),
)
_STEPS = st.lists(_RUN, max_size=5).map(lambda runs: [step for run in runs for step in run])
_COMPOUND = st.tuples(
    st.sampled_from([None, "div", "a", "p"]),
    st.sampled_from([None, "x", "y"]),
    st.sampled_from([None, "search"]),
    st.booleans(),
).filter(lambda compound: compound != (None, None, None, False))
_ALTERNATIVES = st.lists(_COMPOUND, min_size=1, max_size=3)


def _build_tree(steps) -> tuple[Element, list[Element]]:
    root = Element("[document]")
    elements: list[Element] = []
    open_elements = [root]
    for step in steps:
        if step is None:
            if len(open_elements) > 1:
                open_elements.pop()
            continue
        element = Element(step[0], _attributes(step, len(elements)))
        open_elements[-1].children.append(element)
        elements.append(element)
        open_elements.append(element)
    return root, elements


def _attributes(step, index: int) -> dict[str, str]:
    """An opened element's attributes; its href, if it has one, is its index."""
    _, cls, ident, href = step
    attrs = {"class": cls, "id": ident, "href": str(index) if href else None}
    return {name: value for name, value in attrs.items() if value is not None}


def _markup(steps) -> str:
    """``steps`` as markup: a start tag for each element opened, an end tag for
    each close, and a string step as it is. With no string steps, it parses to
    the tree :func:`_build_tree` builds."""
    out: list[str] = []
    open_tags: list[str] = []
    index = 0
    for step in steps:
        if isinstance(step, str):
            out.append(step)
        elif step is None:
            if open_tags:
                out.append(f"</{open_tags.pop()}>")
        else:
            attrs = "".join(f' {name}="{value}"' for name, value in _attributes(step, index).items())
            out.append(f"<{step[0]}{attrs}>")
            open_tags.append(step[0])
            index += 1
    return "".join(out)


def _render(compound) -> str:
    tag, cls, ident, href = compound
    return (tag or "") + (f"#{ident}" if ident else "") + (f".{cls}" if cls else "") + ("[href]" if href else "")


def _compound_matches(el: Element, compound) -> bool:
    tag, cls, ident, href = compound
    return (
        (tag is None or el.tag == tag)
        and (cls is None or cls in el.attrs.get("class", "").split())
        and (ident is None or el.attrs.get("id") == ident)
        and (not href or "href" in el.attrs)
    )


def _descendants(el: Element) -> list[Element]:
    """Every element under ``el`` in document order, from an explicit stack."""
    found = []
    stack = [child for child in reversed(el.children) if isinstance(child, Element)]
    while stack:
        node = stack.pop()
        found.append(node)
        stack.extend(child for child in reversed(node.children) if isinstance(child, Element))
    return found


@settings(max_examples=100, deadline=None)
@given(steps=_STEPS, alternatives=_ALTERNATIVES, scope_index=st.one_of(st.none(), st.integers(min_value=0)))
def test_select_equals_brute_force_reference(steps, alternatives, scope_index):
    root, elements = _build_tree(steps)
    scope = root if scope_index is None or not elements else elements[scope_index % len(elements)]
    selector = ", ".join(_render(compound) for compound in alternatives)
    expected = [el for el in _descendants(scope) if any(_compound_matches(el, c) for c in alternatives)]
    selected = scope.select(selector)
    first = scope.select_one(selector)
    assert selected == expected
    assert first is (expected[0] if expected else None)
    inside = {id(el) for other in expected for el in _descendants(other)}
    assert outermost(selected) == [el for el in expected if id(el) not in inside]


_SPEC_NAMES = st.sampled_from(["a", "b"])
_SPEC_ATTRS = st.sampled_from(["id", "class", "href", "data-ad"])
_SPEC_TEXT = st.text(alphabet=["a", "b", " ", "\xa0", "\x0c", "\t", "\x0b", "\n"], max_size=4)
#: (tag, id, classes, attributes), as :func:`html_reference.reference_matches` takes a compound.
_SPEC_COMPOUND = st.tuples(
    st.sampled_from([None, "div", "a"]),
    st.one_of(st.none(), _SPEC_NAMES),
    st.lists(_SPEC_NAMES, max_size=2),
    st.lists(st.tuples(_SPEC_ATTRS, st.one_of(st.none(), _SPEC_TEXT.filter(bool))), max_size=2),
).filter(lambda compound: compound != (None, None, [], []))


def _spec_selector(compound) -> str:
    tag, ident, classes, attrs = compound
    return (
        (tag or "") + (f"#{ident}" if ident else "") + "".join(f".{name}" for name in classes)
        + "".join(f"[{name}]" if sub is None else f'[{name}*="{sub}"]' for name, sub in attrs)
    )


@settings(max_examples=400, deadline=None)
@given(
    tag=st.sampled_from(["div", "a", "p"]),
    attrs=st.dictionaries(_SPEC_ATTRS, st.one_of(st.none(), st.sampled_from(["", "\xa0", "\x0c"]), _SPEC_TEXT)),
    alternatives=st.lists(_SPEC_COMPOUND, min_size=1, max_size=2),
)
def test_matches_equals_the_selectors_spec(tag, attrs, alternatives):
    """Valueless attributes (None), empty values and class lists holding
    non-ASCII or ASCII-only whitespace, matched as the spec matches them."""
    compounds = parse_selector(", ".join(map(_spec_selector, alternatives)))
    assert htmldoc.matches(tag, attrs, compounds) == reference_matches(tag, attrs, alternatives)


@settings(max_examples=200, deadline=None)
@given(alternatives=st.lists(_SPEC_COMPOUND, min_size=1, max_size=2), upper=st.booleans())
def test_parse_selector_compiles_to_the_references_tuples(alternatives, upper):
    """Each compound compiles to the ``(tag, id, classes, attributes)`` tuple
    that reference_matches reads, the tag lowercased and the classes a frozenset."""
    written = [((tag.upper() if tag and upper else tag), *rest) for tag, *rest in alternatives]
    compounds = parse_selector(", ".join(map(_spec_selector, written)))
    expected = tuple((tag, ident, frozenset(classes), tuple(attrs)) for tag, ident, classes, attrs in alternatives)
    assert compounds == expected
    assert all(type(classes) is frozenset for _, _, classes, _ in compounds)


@settings(max_examples=150, deadline=None)
@given(steps=_STEPS)
def test_scoped_web_read_equals_the_descendant_chain(steps):
    """The web rows read "a[href]" under each outermost "div#search": the
    anchors the former "div#search a[href]" chain matched, which are those
    with a strict div#search ancestor, found here from the root down."""
    root, _ = _build_tree(steps)
    expected = []
    stack = [(child, False) for child in reversed(root.children)]
    while stack:
        el, under_search = stack.pop()
        if under_search and _compound_matches(el, ("a", None, None, True)):
            expected.append(el.attrs.get("href"))
        below = under_search or _compound_matches(el, ("div", None, "search", False))
        stack.extend((child, below) for child in reversed(el.children))
    assert _flat(read_results_page(_markup(steps), ENGINES[SourceId.WEB_SEARCH].selectors)) == (expected, False, False)


@settings(max_examples=150, deadline=None)
@given(
    steps=_STEPS,
    results=_ALTERNATIVES,
    optional=st.fixed_dictionaries({}, optional={key: _ALTERNATIVES for key in ("scope", "ads", "captcha")}),
)
def test_one_walk_read_equals_select_outermost_and_descendant_sets(steps, results, optional):
    """The results page reader against the select and outermost calls it
    replaced: the results under each outermost scope match (or under the root),
    less each one that is an ads match or lies under one, and a bot challenge
    if "captcha" selects anything."""
    root, _ = _build_tree(steps)
    selectors = {key: ", ".join(map(_render, alternatives)) for key, alternatives in optional.items()}
    selectors["results"] = ", ".join(map(_render, results))
    containers = outermost(root.select(selectors["scope"])) if "scope" in selectors else [root]
    candidates = [anchor for container in containers for anchor in container.select(selectors["results"])]
    ads = outermost(root.select(selectors["ads"])) if "ads" in selectors else []
    in_ads = {id(el) for ad in ads for el in (ad, *_descendants(ad))}
    expected = [anchor.attrs.get("href") for anchor in candidates if id(anchor) not in in_ads]
    challenge = "captcha" in selectors and bool(root.select(selectors["captcha"]))
    assert _flat(read_results_page(_markup(steps), selectors)) == (expected, challenge, False)


_MARKER = ENGINES[SourceId.WEB_SEARCH].selectors["captcha_text"]
# Text between generated elements: pieces of the bot-challenge marker, split
# by tags, character references, comments and raw text, in either case.
_MARKER_PIECES = st.sampled_from([
    "detected", "DETECTED ", " unusual", "Unusual", " traffic", "<b>Unusual</b>", "&#100;etected", "&#x55;nusual",
    " ", "&amp;", "x", "<!-- traffic -->", "<script>detected unusual traffic</script>", "<br>",
])
_PAGE_STEPS = st.lists(st.one_of(_RUN, _MARKER_PIECES.map(lambda piece: [piece])), max_size=10).map(
    lambda runs: [step for run in runs for step in run]
)


@settings(max_examples=150, deadline=None)
@given(
    steps=_PAGE_STEPS,
    results=_ALTERNATIVES,
    optional=st.fixed_dictionaries({}, optional={key: _ALTERNATIVES for key in ("scope", "ads", "captcha")}),
)
def test_tree_free_read_equals_the_tree_walk(steps, results, optional):
    """The one-pass reader against the walk down the tree parse_html builds of
    the same markup, and its marker check against the tree's whole text."""
    markup = _markup(steps)
    selectors = {key: ", ".join(map(_render, alternatives)) for key, alternatives in optional.items()}
    selectors["results"] = ", ".join(map(_render, results))
    selectors["captcha_text"] = _MARKER
    root = parse_html(markup)
    anchors, challenge = read_results_tree(root, selectors)
    assert _flat(read_results_page(markup, selectors)) == (
        [anchor.attrs.get("href") for anchor in anchors], challenge, _MARKER in root.text().lower()
    )


@pytest.mark.parametrize("body, marked", [
    ("<p>We have DETECTED <b>Unusual</b> traffic</p>", True),
    ("<p>&#100;etected unusual traffic</p>", True),
    ("<script>var s = 'detected unusual traffic';</script>", True),
    ("<p>detected unusual </p><!-- x --><p>traffic</p>", True),
    ("<p>detected unusual</p><p>traffic</p>", False),
    ("<p>detected unusual <img alt='traffic'></p>", False),
])
def test_marker_found_across_tags_references_and_raw_text(body, marked):
    assert read_results_page(body, ENGINES[SourceId.WEB_SEARCH].selectors)[2] is marked
    assert (_MARKER in parse_html(body).text().lower()) is marked


def test_text_after_a_tag_whose_quote_never_closes_is_kept():
    # the last "'" has no partner, so it opens no value: html.parser reads "='"
    # as an attribute name, and the tag ends at its ">", not at the page's end
    text = "<div href== href = '='>x</div><p>after</p>"
    assert parse_html(text).select_one("p").text() == "after"
    assert _flat(read_results_page(text, {"results": "p", "captcha_text": "after"})) == ([None], False, True)


class TestRegions:
    """A results page is read as regions: each outermost "scope" match, or
    the whole page, with its result hrefs and its first "text" match's pieces."""

    def test_two_outermost_scopes_are_two_regions_in_document_order(self):
        page = (
            '<div id="search"><a href="1">a</a></div><a href="outside">x</a>'
            '<div id="search"><a href="2">b</a><a href="3">c</a></div>'
        )
        regions, _, _ = read_results_page(page, ENGINES[SourceId.WEB_SEARCH].selectors)
        assert regions == [[["1"], None], [["2", "3"], None]]

    def test_a_nested_scope_is_part_of_the_outer_region(self):
        page = '<div id="search"><a href="1">a</a><div id="search"><a href="2">b</a></div><a href="3">c</a></div>'
        regions, _, _ = read_results_page(page, {"scope": "div#search", "results": "a[href]"})
        assert regions == [[["1", "2", "3"], None]]

    @pytest.mark.parametrize("page, hrefs", [
        ('<div id="search"><a href="1">a</a></div><a href="2">b</a>', ["1", "2"]),
        ("<p>no links</p>", []),
        ("", []),
    ], ids=["links", "no-links", "empty"])
    def test_a_row_with_no_scope_is_one_region(self, page, hrefs):
        assert read_results_page(page, {"results": "a[href]"})[0] == [[hrefs, None]]

    def test_text_is_the_pieces_of_each_regions_first_match_only(self):
        page = (
            '<div class="card"><p class="t">first <b>bold</b></p><p class="t">second</p><a href="x">x</a></div>'
            '<div class="card"><a href="y">no text</a></div>'
            '<p class="t">outside every card</p>'
        )
        regions, _, _ = read_results_page(page, {"scope": "div.card", "results": "a[href]", "text": "p.t"})
        assert regions == [[["x"], ["first ", "bold"]], [["y"], None]]


@settings(max_examples=60, deadline=None)
@given(_MARKUP.filter(bool))
def test_parse_time_is_linear_in_input_size(fragment):
    text = fragment * (100_000 // len(fragment) + 1)
    started = time.perf_counter()
    parse_html(text)
    # about 1.5 s at 100 KB, ten times what any input has been seen to take
    assert time.perf_counter() - started < 0.5 + 10e-6 * len(text)


class TestUnterminatedConstructs:
    """A construct still open at the end of the input runs to the end of it,
    as browsers read it: a tag is dropped, the rest is swallowed."""

    def test_unterminated_start_tag_is_dropped(self):
        root = parse_html("<p>kept<a href='x")
        assert shape(root) == shape(parse_html("<p>kept"))
        assert root.select("a") == []

    def test_quoted_value_runs_past_greater_than(self):
        root = parse_html('<p>kept<a title="x>y<b>z')
        assert root.select("a, b") == []
        assert root.text() == "kept"

    def test_unterminated_end_tag_is_dropped(self):
        root = parse_html("<div><p>kept</div")
        assert root.select_one("div").select("p")[0].text() == "kept"

    @pytest.mark.parametrize("opener", ["<!-- open", "<!DOCTYPE html", "<?xml", "<![CDATA[x", "</ x"])
    def test_unterminated_comment_or_declaration_swallows_the_rest(self, opener):
        assert parse_html(f"<p>kept{opener} lost &amp; text").text() == "kept"

    def test_unterminated_comment_swallows_later_tags(self):
        root = parse_html("<p>kept<!-- open<b>lost</b> --")
        assert root.select("b") == []
        assert root.text() == "kept"

    def test_unterminated_raw_text_element_keeps_its_text(self):
        root = parse_html("<p>x</p><script>if (a < b && c) {<b>")
        script = root.select_one("script")
        assert script.children == ["if (a < b && c) {<b>"]
        assert root.select("b") == []

    def test_lone_less_than_is_text(self):
        assert parse_html("a < b <3 <").text() == "a < b <3 <"


class TestHtmlTokenizerRules:
    """Terminated constructs that html.parser reads its own way; the tokenizer
    reads them as HTML (and browsers) do."""

    def test_space_after_end_tag_open_makes_a_bogus_comment(self):
        root = parse_html("<b>x</ b>y</b>z")
        assert root.select_one("b").text() == "xy"

    def test_cdata_section_outside_foreign_content_ends_at_greater_than(self):
        root = parse_html("<p><![CDATA[ a > b ]]></p>")
        assert root.select_one("p").text() == " b ]]>"

    def test_raw_text_ends_at_its_end_tag_even_with_attributes(self):
        root = parse_html("<script>a</script x><p>after</p>")
        assert root.select_one("script").children == ["a"]
        assert root.select_one("p").text() == "after"


class TestAttributeReferences:
    """In an attribute value, a named character reference without its ";"
    stays literal when "=" or an ASCII letter or digit follows it, as in
    HTML; text decodes it as html.unescape does. The reference builder
    decodes such references in attributes too, so this is the one rule for
    terminated input where the two differ."""

    def test_query_parameters_named_like_entities_stay_literal(self):
        root = parse_html('<a href="/url?q=x&notify=1&region=2&copy=3">x</a>')
        assert root.select_one("a").attrs.get("href") == "/url?q=x&notify=1&region=2&copy=3"

    @pytest.mark.parametrize("value,decoded", [
        ("&copy=3", "&copy=3"),
        ("&copyx", "&copyx"),
        ("&copy9", "&copy9"),
        ("&AMP=1", "&AMP=1"),
        ("&notit;", "&notit;"),
        ("&copy", "©"),
        ("&copy-x", "©-x"),
        ("&copy;x", "©x"),
        ("&copyé", "©é"),
        ("&amp;copy=3", "&copy=3"),
        ("&#169x", "©x"),
        ("&notin;", "∉"),
        ("&bogus=1", "&bogus=1"),
    ])
    def test_attribute_values(self, value, decoded):
        for attribute in (f'"{value}"', f"'{value}'", value):
            assert parse_html(f"<a title={attribute}>x</a>").select_one("a").attrs.get("title") == decoded

    def test_text_keeps_the_legacy_decoding(self):
        assert parse_html("<p>&copy=3 &notify=1 &copyx</p>").text() == "©=3 ¬ify=1 ©x"

    def test_the_reference_builder_decodes_them(self):
        root = reference_parse('<a href="?a=1&copy=3">x</a>')
        assert root.select_one("a").attrs.get("href") == "?a=1©=3"


#: Decimal references too long for int(), which refuses over 4,300 digits, and
#: what they decode to: past U+10FFFF, U+FFFD; leading zeros keep the value.
LONG_DECIMAL_REFERENCES = [
    pytest.param("&#" + "1" * 5000 + ";", "\ufffd", id="past-max"),
    pytest.param("&#" + "9" * 5000, "\ufffd", id="past-max-no-semicolon"),
    pytest.param("&#" + "0" * 5000 + "65;", "A", id="leading-zeros"),
    pytest.param("&#" + "0" * 5000 + "65", "A", id="leading-zeros-no-semicolon"),
    pytest.param("&#" + "0" * 5000 + ";", "\ufffd", id="zero"),
]


class TestLongDecimalReferences:
    """A decimal reference of any length decodes as html.unescape decodes a short one."""

    @pytest.mark.parametrize("reference, decoded", LONG_DECIMAL_REFERENCES)
    def test_in_text(self, reference, decoded):
        assert parse_html(f"<p>x{reference} y</p>").select_one("p").text() == f"x{decoded} y"

    @pytest.mark.parametrize("reference, decoded", LONG_DECIMAL_REFERENCES)
    def test_in_an_attribute_value(self, reference, decoded):
        root = parse_html(f'<a href="/x{reference} y">x</a>')
        assert root.select_one("a").attrs.get("href") == f"/x{decoded} y"

    @example(zeros=5000, digits="65", end=";")
    @given(zeros=st.integers(0, 5000), digits=st.text("0123456789", min_size=1, max_size=12), end=st.sampled_from(";x "))
    def test_leading_zeros_keep_the_value_html_unescape_reads(self, zeros, digits, end):
        assert htmldoc.unescape("&#" + "0" * zeros + digits + end) == html.unescape("&#" + digits + end)


class TestReferenceParity:
    """The tokenizer builds the tree the stdlib-based builder builds, on
    every input whose constructs are all terminated."""

    @pytest.mark.parametrize(
        "name", sorted(p.name for p in (Path(__file__).parent / "pages").glob("*.html"))
    )
    def test_recorded_pages(self, name):
        text = page(name).decode("utf-8")
        assert shape(parse_html(text)) == shape(reference_parse(text))

    @pytest.mark.parametrize("text", [
        SAMPLE,
        "<div><p>one<p>two</div><span>after</span>",
        "</div><p>ok</p>",
        "<p>a<br>b<img src='x'>c</p>",
        "<div><span>in</div></span><span>after</span>",
        "<div>" * 300 + "</b>" * 400 + "<p>end</p>",
        "<div>" * 300 + '<a href="x">deep</a>' + "</div>" * 300,
        "<a><b><c></c></b><d></d></a><e><f></f></e>",
    ])
    def test_fixed_inputs(self, text):
        assert shape(parse_html(text)) == shape(reference_parse(text))


_ENTITY = st.sampled_from([
    "&amp;", "&lt;", "&gt;", "&quot;", "&#39;", "&#x27;", "&#8217;", "&nbsp;", "&copy", "&amp",
    "&bogus;", "&#", "&#x110000;",
])
_TEXT = st.lists(
    st.one_of(st.text(alphabet="ab xy\n\t.;#é’", max_size=6), _ENTITY, st.just("x < y <3 &")),
    max_size=4,
).map("".join)
_TAG_NAME = st.sampled_from([
    "div", "DIV", "p", "P", "li", "ul", "a", "A", "span", "b", "h3", "my-tag",
    "br", "BR", "img", "hr", "input", "meta",
])
_ATTR_NAME = st.sampled_from(["href", "HREF", "class", "id", "data-x", "x", "Title", "checked"])
_WS = st.sampled_from([" ", "  ", "\n", "\t"])


# A semicolon-less reference that the tokenizer keeps literal in an attribute
# value and the reference builder decodes (TestAttributeReferences).
_KEPT_LITERAL_IN_ATTRIBUTE = re.compile(r"&(?:copy|amp)[=A-Za-z0-9]")


def _value_text(forbidden: str):
    alphabet = "".join(c for c in "ab xy<>/=-:.'\"" if c not in forbidden)
    return (
        st.lists(st.one_of(st.text(alphabet=alphabet, max_size=5), _ENTITY), max_size=3)
        .map("".join)
        .filter(lambda value: not _KEPT_LITERAL_IN_ATTRIBUTE.search(value))
    )


_ATTRIBUTE = st.one_of(
    _ATTR_NAME,  # valueless
    st.tuples(_ATTR_NAME, st.sampled_from(["=", " = "]), _value_text("'")).map(lambda t: f"{t[0]}{t[1]}'{t[2]}'"),
    st.tuples(_ATTR_NAME, st.sampled_from(["=", "= "]), _value_text('"')).map(lambda t: f'{t[0]}{t[1]}"{t[2]}"'),
    st.tuples(_ATTR_NAME, st.from_regex(r"[abxy/=:.-]{1,5}(&amp;)?", fullmatch=True)).map("=".join),
)
_START_TAG = st.tuples(
    _TAG_NAME,
    st.lists(st.tuples(_WS, _ATTRIBUTE).map("".join), max_size=4).map("".join),
    st.sampled_from([">", "/>", " />", " >"]),
).map(lambda t: f"<{t[0]}{t[1]}{t[2]}")
_END_TAG = st.tuples(_TAG_NAME, st.sampled_from([">", " >", "\n>", ' x="y">'])).map(lambda t: f"</{t[0]}{t[1]}")
_RAW_TEXT = st.lists(
    st.sampled_from(["a < b", "&amp;", "x && y", "<div>", "</p>", "<!--", "-->", "'", '"', "c > d", "</scrip", "</"]),
    max_size=5,
).map("".join)
_RAW_ELEMENT = st.tuples(
    st.sampled_from([("script", "script"), ("SCRIPT type=x", "script"), ("style", "STYLE")]), _RAW_TEXT
).map(lambda t: f"<{t[0][0]}>{t[1]}</{t[0][1]}>")
_TERMINATED_MARKUP = st.lists(
    st.one_of(
        _TEXT, _START_TAG, _END_TAG, _RAW_ELEMENT,
        st.text(alphabet="ab <>&/!", max_size=8).map(lambda t: f"<!--{t}-->"),
        st.sampled_from(["<!DOCTYPE html>", "<!doctype html>", "<?xml version='1.0'?>"]),
    ),
    max_size=30,
).map("".join)


@settings(max_examples=300, deadline=None)
@given(_TERMINATED_MARKUP)
@example("<div href== href = '='>x</div><p>after</p>")
def test_same_tree_as_the_reference_builder(text):
    assert shape(parse_html(text)) == shape(reference_parse(text))


def _syntax_nodes(tree):
    """Every (opcode, argument) node of a parsed regular expression."""
    for op, av in tree:
        yield op, av
        for part in av if isinstance(av, (tuple, list)) else (av,):
            for item in part if isinstance(part, list) else (part,):
                if isinstance(item, sre_parse.SubPattern):
                    yield from _syntax_nodes(item)


def test_patterns_keep_to_python_3_10_syntax():
    patterns = [value for value in vars(htmldoc).values() if isinstance(value, re.Pattern)]
    patterns += htmldoc._RAW_TEXT_END.values()
    assert htmldoc._MARKUP_RE in patterns
    for pattern in patterns:
        ops = {str(op) for op, _ in _syntax_nodes(sre_parse.parse(pattern.pattern, pattern.flags))}
        assert not ops & {"POSSESSIVE_REPEAT", "POSSESSIVE_REPEAT_ONE", "ATOMIC_GROUP"}, pattern.pattern
