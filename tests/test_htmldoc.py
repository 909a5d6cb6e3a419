import pytest

from tweetcheck.errors import ParseError
from tweetcheck.fetch import FetchResponse
from tweetcheck.htmldoc import parse_html, parse_response

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
