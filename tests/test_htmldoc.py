import gc
import time
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tweetcheck.adapters import DEFAULT_SELECTORS, search_web
from tweetcheck.errors import ParseError
from tweetcheck.fetch import FetchResponse
from tweetcheck.htmldoc import _parse_selector, parse_html, parse_response
from tweetcheck.model import SourceId, TweetClaim

from conftest import PANDEMIC_BODY, StubPage, engine_query_url, page, record_pages, replay_fetcher

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
        assert [a.get("href") for a in anchors] == [
            "https://a.example/", "https://b.example/", "https://ad.example/",
        ]

    def test_descendant_chain_with_id(self):
        anchors = self.root.select("div#search a[href]")
        assert len(anchors) == 3

    def test_class_selector(self):
        assert len(self.root.select("div.g")) == 2
        assert len(self.root.select(".first")) == 1

    def test_attr_equals_and_contains(self):
        assert len(self.root.select("[data-text-ad]")) == 1
        assert len(self.root.select("a[href^=https://b]")) == 1
        assert len(self.root.select("a[href*=example]")) == 3
        assert len(self.root.select("a[href$=/]")) == 3

    def test_selector_list(self):
        found = self.root.select("div#other, p")
        assert [el.tag for el in found] == ["div", "p"]

    def test_entities_decoded_in_text(self):
        first = self.root.select("div.g a")[0]
        assert first.text() == "A & B"

    def test_numeric_entities_decoded(self):
        paragraph = self.root.select("p")[0]
        assert paragraph.text().strip() == "Tail ’quote’"

    def test_is_inside(self):
        search = self.root.select("div#search")[0]
        ad_anchor = self.root.select("[data-text-ad] a")[0]
        other_anchor = self.root.select("div#other a")[0]
        assert ad_anchor.is_inside(search)
        assert not other_anchor.is_inside(search)

    def test_unsupported_syntax_rejected(self):
        with pytest.raises(ValueError):
            self.root.select("div > a")

    def test_select_one_is_first_match_or_none(self):
        assert self.root.select_one("a[href]").get("href") == "https://a.example/"
        assert self.root.select_one("div#other, p").tag == "div"
        assert self.root.select_one("table") is None

    def test_compiled_selector_is_cached_and_immutable(self):
        chains = _parse_selector("div#search a[href], p")
        assert chains is _parse_selector("div#search a[href], p")
        assert isinstance(chains, tuple) and all(isinstance(c, tuple) for c in chains)


class TestParentLinks:
    def test_parent_and_is_inside_while_root_alive(self):
        root = parse_html(SAMPLE)
        ad_anchor = root.select("[data-text-ad] a")[0]
        assert ad_anchor.parent.get("data-text-ad") == "1"
        assert ad_anchor.parent.parent.get("id") == "search"
        assert ad_anchor.is_inside(root)
        assert root.parent is None

    def test_detached_element_has_no_parent(self):
        root = parse_html(SAMPLE)
        anchor = root.select("div.g a")[0]
        del root
        assert anchor.parent is None
        assert anchor.text() == "A & B"

    def test_ad_filter_drops_what_containment_drops(self, tmp_path):
        root = parse_html(SAMPLE)
        ads = root.select(DEFAULT_SELECTORS[SourceId.WEB_SEARCH]["ads"])
        kept = [
            anchor.get("href")
            for anchor in root.select("div#search a[href]")
            if not any(anchor is ad or anchor.is_inside(ad) for ad in ads)
        ]
        url = engine_query_url(SourceId.WEB_SEARCH, "sample page")
        store = record_pages(tmp_path / "fx", {url: StubPage(SAMPLE.encode())})
        results = search_web(TweetClaim(body="sample page"), replay_fetcher(store))
        assert list(results.urls) == kept == ["https://a.example/", "https://b.example/"]


class TestTreeLifetime:
    """A parsed tree holds no reference cycle, so dropping its root frees it."""

    @pytest.fixture(autouse=True)
    def _collector_off(self):
        gc.collect()
        gc.disable()
        yield
        gc.enable()

    def test_parsed_page_freed_on_del(self):
        root = parse_html(page("google_serp_pandemic.html").decode("utf-8"))
        alive = weakref.ref(root)
        del root
        assert alive() is None

    def test_deep_nest_freed_on_del(self):
        root = parse_html("<div>" * 100_000)
        alive = weakref.ref(root)
        del root
        assert alive() is None

    def test_search_web_leaves_nothing_for_the_collector(self, pandemic_store):
        fetcher = replay_fetcher(pandemic_store)
        claim = TweetClaim(body=PANDEMIC_BODY)
        search_web(claim, fetcher)  # first use fills module-level caches
        gc.collect()
        assert search_web(claim, fetcher).urls
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
        root.select("div a, p")
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
        assert root.select("div span")[0].text() == "in"

    def test_stray_end_tags_cost_linear_time(self):
        # at 3,000 open elements x 40,000 stray end tags a stack scan per
        # stray tag takes several seconds; a linear builder well under one
        depth = 3000
        started = time.perf_counter()
        root = parse_html("<div>" * depth + "</b>" * 40_000 + "<p>end</p>")
        assert time.perf_counter() - started < 2.5
        assert len(root.select("div")) == depth
        assert [p.text() for p in root.select("div p")] == ["end"]

    def test_deep_nesting_parses_and_selects(self):
        depth = 5000
        root = parse_html("<div>" * depth + '<a href="x">deep</a>' + "</div>" * depth)
        assert len(root.select("div")) == depth
        assert [a.text() for a in root.select("div a[href]")] == ["deep"]


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
        assert parse_response(resp).select("p")[0].text() == "hi"

    def test_non_html_content_type_rejected(self):
        resp = FetchResponse(
            status=200, final_url="https://x/img.png", body=b"\x89PNG",
            content_type="image/png",
        )
        with pytest.raises(ParseError):
            parse_response(resp)

    def test_charset_honoured(self):
        body = "<p>café</p>".encode("latin-1")
        resp = FetchResponse(
            status=200, final_url="https://x/", body=body,
            content_type="text/html; charset=latin-1",
        )
        assert parse_response(resp).select("p")[0].text() == "café"

    def test_missing_content_type_assumed_html(self):
        resp = FetchResponse(status=200, final_url="https://x/", body=b"<p>ok</p>")
        assert parse_response(resp).select("p")[0].text() == "ok"
