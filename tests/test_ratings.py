from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tweetcheck.errors import ParseError
from tweetcheck.fetch import FetchResponse
from tweetcheck.htmldoc import Element, page_text, parse_html
from tweetcheck.model import RatingKind, TruthRating
from tweetcheck.ratings import (
    DEFAULT_RATING_SELECTORS,
    _fallback_scan,
    _label_head,
    scrape_rating,
    scrape_reuters_rating,
    scrape_snopes_rating,
)
from tweetcheck.urls import canonicalize_article_url, identify_publisher

from conftest import REUTERS_PANDEMIC_ARTICLE, SNOPES_PANDEMIC_ARTICLE, page


def response_for(name: str, url: str, content_type="text/html; charset=utf-8") -> FetchResponse:
    return FetchResponse(status=200, final_url=url, body=page(name), content_type=content_type)


def html_response(body: str, url: str) -> FetchResponse:
    return FetchResponse(status=200, final_url=url, body=body.encode("utf-8"), content_type="text/html")


class TestSnopesRating:
    def test_pandemic_article_rated_false(self):
        rating = scrape_snopes_rating(response_for("snopes_article_pandemic.html", SNOPES_PANDEMIC_ARTICLE))
        assert rating.kind is RatingKind.FALSE
        assert rating.raw_label == "False"
        assert not rating.missing

    def test_rating_block_absent(self):
        rating = scrape_snopes_rating(
            response_for("snopes_article_norating.html", "https://www.snopes.com/fact-check/x/")
        )
        assert rating.kind is RatingKind.UNKNOWN
        assert rating.missing

    def test_misattributed_label(self):
        rating = scrape_snopes_rating(
            response_for("snopes_article_misattributed.html", "https://www.snopes.com/fact-check/y/")
        )
        assert rating.kind is RatingKind.MISATTRIBUTED
        assert rating.raw_label == "Misattributed"

    def test_fallback_text_scan(self, caplog):
        body = b"<html><body><p>Analysis text.</p><p>Rating: False</p></body></html>"
        resp = FetchResponse(
            status=200, final_url="https://www.snopes.com/fact-check/z/",
            body=body, content_type="text/html",
        )
        with caplog.at_level("WARNING"):
            rating = scrape_snopes_rating(resp)
        assert rating.kind is RatingKind.FALSE
        assert any("low confidence" in r.message for r in caplog.records)

    def test_non_html_page_raises(self):
        resp = FetchResponse(
            status=200, final_url="https://www.snopes.com/fact-check/z/",
            body=b"\x89PNG", content_type="image/png",
        )
        with pytest.raises(ParseError):
            scrape_snopes_rating(resp)

    def test_unclosed_rating_block_label_is_bounded(self):
        # unclosed <div>s nest the rest of the page inside the rating block
        body = '<html><body><div class="rating_title_wrap">False' + "<div>more text" * 4000
        rating = scrape_snopes_rating(html_response(body, "https://www.snopes.com/fact-check/nested/"))
        assert rating.raw_label == ("False" + "more text" * 4000)[:81]
        assert len(rating.raw_label) <= 81

    def test_pure_given_page_bytes(self):
        resp = response_for("snopes_article_pandemic.html", SNOPES_PANDEMIC_ARTICLE)
        assert scrape_snopes_rating(resp) == scrape_snopes_rating(resp)


#: One article page per publisher whose selectors find no rating block.
_SCAN_URLS = ("https://www.snopes.com/fact-check/scan/", "https://www.reuters.com/article/idUSSCAN")


class TestTextScan:
    """The fallback scan reads a block element's start and end as line breaks."""

    @pytest.mark.parametrize("url", _SCAN_URLS)
    @pytest.mark.parametrize(
        "body, label",
        [
            # a block after the label's block does not run on into the label
            ("<div>Rating: False</div><div>Next para here</div>", "False"),
            ("<p>Rating: False</p><p>Rating: True</p>", "False"),
            ("<li>Verdict: Misattributed</li><li>Sources</li>", "Misattributed"),
            ("<p>Rating: False<br>Posted on Monday</p>", "False"),
            ("<table><tr><td>Rating: True</td><td>2020</td></tr></table>", "True"),
            ("<section>Truth rating: Satire</section><article>More</article>", "Satire"),
            # inline elements still join, and a label may sit in the block below its heading
            ("<p>Rating: <b>False</b></p>", "False"),
            ("<p>Rating: <span>Fa</span>lse. Because</p>", "False"),
            ("<h3>Rating:</h3><p>Mixture. Some of it</p>", "Mixture"),
        ],
    )
    def test_label_ends_at_its_block(self, url, body, label, caplog):
        with caplog.at_level("WARNING", logger="tweetcheck.ratings"):
            rating = scrape_rating(html_response(f"<html><body>{body}</body></html>", url))
        assert rating == TruthRating(label)
        assert [r.getMessage().split(": ", 1)[1] for r in caplog.records] == [
            f"rating found only by text scan (low confidence): {label!r}"
        ]


class TestReutersRating:
    def test_pandemic_article_rated_false(self):
        rating = scrape_reuters_rating(response_for("reuters_article_pandemic.html", REUTERS_PANDEMIC_ARTICLE))
        assert rating.kind is RatingKind.FALSE
        assert rating.raw_label == "False"

    def test_verdict_section_absent(self):
        body = b"<html><body><article><h1>headline</h1><p>story text only</p></article></body></html>"
        resp = FetchResponse(
            status=200, final_url="https://www.reuters.com/article/idUSTEST1",
            body=body, content_type="text/html",
        )
        rating = scrape_reuters_rating(resp)
        assert rating.kind is RatingKind.UNKNOWN
        assert rating.missing

    def test_partly_false_maps_to_mixture(self):
        rating = scrape_reuters_rating(
            response_for("reuters_article_partlyfalse.html", "https://www.reuters.com/article/idUSTEST2")
        )
        assert rating.kind is RatingKind.MIXTURE
        assert rating.raw_label == "Partly false"

    def test_verdict_paragraph_without_full_stop_label_is_bounded(self):
        words = " ".join(f"word{i}" for i in range(20000))
        body = f"<html><body><h2>VERDICT</h2><p>{words}</p></body></html>"
        rating = scrape_reuters_rating(html_response(body, "https://www.reuters.com/article/idUSLONG1"))
        assert rating.raw_label == words[:81].rstrip()
        assert len(rating.raw_label) <= 81


def reference_reuters_rating(page: FetchResponse) -> TruthRating:
    """The Reuters scraper's rule read from whole texts: each heading's whole
    ``text()``, a parent map built by a walk, and the elements holding a
    verdict heading found through ``iter()``."""
    root = parse_html(page_text(page))
    selectors = DEFAULT_RATING_SELECTORS["reuters"]
    wanted = selectors["verdict_heading_text"].strip().lower()
    headings = [h for h in root.select(selectors["verdict_heading"]) if h.text().strip().lower() == wanted]
    heading_ids = {id(heading) for heading in headings}
    parent_of = {
        id(child): (el, index)
        for el in [root, *root.iter()]
        for index, child in enumerate(el.children)
        if isinstance(child, Element)
    }
    for heading in headings:
        parent, index = parent_of[id(heading)]
        for child in parent.children[index + 1:]:
            if isinstance(child, Element) and not any(id(el) in heading_ids for el in child.iter()):
                text = child.text().strip()
                if text:
                    return TruthRating(_label_head(text))
    return _fallback_scan(root, page.final_url, "verdict section")


# Headings opened and left unclosed or closed, around texts that do or do not
# read the wanted text once stripped (runs of whitespace, pieces of the word,
# a letter whose lowercase is longer than itself), whole headings, and
# paragraphs and sections that may follow them with a label.
_HEADING_PIECES = st.sampled_from(
    ["<strong>", "</strong>", "<h2>", "</h2>", "<h3>", "<p>", "</p>", "<b>", "</b>", "<div>", "</div>",
     "VERDICT", "Verdict", "VER", "DICT", "our verdict:", "x", "\u0130", " ", "\n\t ", "   ", "",
     "<h2>VERDICT</h2>", "<strong> Verdict </strong>", "False. x", "<p>False. x</p>", "<p>Misleading</p>"]
)


@settings(max_examples=300, deadline=None)
@given(
    pieces=st.lists(_HEADING_PIECES, max_size=40),
    heading_text=st.sampled_from(["VERDICT", " verdict ", "Our verdict:", "ver dict", "", "x", "\u0130"]),
)
# whitespace at an element's edge that joins the text of its parent's other children
@example(pieces=["<strong>", "VER", "<b>", " ", "DICT"], heading_text="VERDICT")
@example(pieces=["<strong>", "<b>", "VER", " ", "</b>", "DICT"], heading_text="VERDICT")
@example(pieces=["<strong>", "VER", "<b>", "   ", "DICT"], heading_text="ver dict")
@example(pieces=["<strong>", "<b>", "VER", "   ", "</b>", "DICT"], heading_text="ver dict")
def test_reuters_scraper_equals_whole_text_scraper(pieces, heading_text):
    page = html_response("".join(pieces), "https://www.reuters.com/article/idUSDRAWN")
    with mock.patch.dict(DEFAULT_RATING_SELECTORS["reuters"], verdict_heading_text=heading_text):
        assert scrape_reuters_rating(page) == reference_reuters_rating(page)


class TestRouting:
    @pytest.mark.parametrize(
        "url,publisher",
        [
            ("https://www.snopes.com/fact-check/x/", "snopes"),
            ("http://snopes.com/fact-check/x", "snopes"),
            ("https://www.reuters.com/article/idUSX", "reuters"),
            ("http://reuters.com/article/idUSX", "reuters"),
            ("https://example.com/a", None),
            ("https://notsnopes.com/fact-check/x", None),
        ],
    )
    def test_identify_publisher(self, url, publisher):
        assert identify_publisher(url) == publisher

    def test_scrape_rating_routes_by_final_url(self):
        snopes = scrape_rating(response_for("snopes_article_pandemic.html", SNOPES_PANDEMIC_ARTICLE))
        reuters = scrape_rating(response_for("reuters_article_pandemic.html", REUTERS_PANDEMIC_ARTICLE))
        assert snopes.kind is RatingKind.FALSE
        assert reuters.kind is RatingKind.FALSE

    def test_unsupported_host_is_a_parse_error(self):
        resp = FetchResponse(
            status=200, final_url="https://example.com/a", body=b"<p>x</p>", content_type="text/html"
        )
        with pytest.raises(ParseError) as exc:
            scrape_rating(resp)
        assert str(exc.value) == "https://example.com/a: not a Snopes or Reuters page"


# hand-derived normalization table: (input, expected canonical identity)
CANONICAL_TABLE = [
    ("http://reuters.com/article/idUSKCN2242AK", "idUSKCN2242AK"),
    (REUTERS_PANDEMIC_ARTICLE, "idUSKCN2242AK"),
    ("https://www.snopes.com/fact-check/x/", "/fact-check/x"),
    ("http://snopes.com/fact-check/x", "/fact-check/x"),
    ("https://www.Example.com/A/b/?utm_source=feed&x=1#frag", "https://example.com/A/b"),
    ("https://www.snopes.com/news/2020/roundup/", "https://snopes.com/news/2020/roundup"),
    ("HTTPS://WWW.SNOPES.COM/fact-check/Case/", "/fact-check/Case"),
    ("https://www.reuters.com/news/archive", "https://reuters.com/news/archive"),
    ("https://www.snopes.com:443/fact-check/x/", "/fact-check/x"),
    ("https://www.reuters.com:443/article/idUSKBN1", "idUSKBN1"),
    ("https://u:p@www.reuters.com/article/x-story", "https://reuters.com/article/x-story"),
]


class TestCanonicalize:
    @pytest.mark.parametrize("url,expected", CANONICAL_TABLE)
    def test_normalization_table(self, url, expected):
        assert canonicalize_article_url(url) == expected

    def test_short_and_long_article_urls_share_identity(self):
        short = canonicalize_article_url("http://reuters.com/article/idUSKCN2242AK")
        long = canonicalize_article_url(REUTERS_PANDEMIC_ARTICLE)
        assert short == long == "idUSKCN2242AK"

    def test_scheme_www_slash_invariance(self):
        assert canonicalize_article_url("https://www.snopes.com/fact-check/x/") == (
            canonicalize_article_url("http://snopes.com/fact-check/x")
        )

    def test_tracking_parameters_excluded(self):
        with_params = canonicalize_article_url(
            "https://www.snopes.com/fact-check/x/?utm_source=tw&utm_medium=social"
        )
        assert with_params == canonicalize_article_url("https://www.snopes.com/fact-check/x/")

    @pytest.mark.parametrize("url,_", CANONICAL_TABLE)
    def test_idempotent_on_table(self, url, _):
        once = canonicalize_article_url(url)
        assert canonicalize_article_url(once) == once

    @given(
        scheme=st.sampled_from(["http", "https", "HTTP"]),
        host=st.sampled_from(
            ["www.snopes.com", "snopes.com", "WWW.Reuters.com", "reuters.com", "example.org"]
        ),
        path=st.lists(
            st.text(alphabet="abcXYZ019-", min_size=1, max_size=8), min_size=0, max_size=4
        ).map(lambda seg: "/" + "/".join(seg)),
        slash=st.booleans(),
        query=st.sampled_from(["", "?a=1", "?utm_source=x&b=2"]),
    )
    def test_idempotent_on_generated_urls(self, scheme, host, path, slash, query):
        url = f"{scheme}://{host}{path}{'/' if slash and not path.endswith('/') else ''}{query}"
        once = canonicalize_article_url(url)
        assert canonicalize_article_url(once) == once

    @example("http:////www.")
    @example("http:////www.x/y")
    @example("http://www.www.x")
    @example("//[x#y")  # a string urlsplit rejects
    @given(
        url=st.tuples(
            st.sampled_from(["", "http:", "HTTPS:", "x:"]),
            st.text("/", max_size=4),  # an empty host, and "//" paths
            st.lists(st.sampled_from(["www.", "WWW."]), max_size=2).map("".join),
            st.sampled_from(["", "snopes.com", "reuters.com", "x", "[::1]", "[x", "a@", ":80"]),
            st.lists(st.sampled_from(["", "www.", "fact-check", "idUSA1", "a:b", "["]), max_size=4).map(
                lambda segments: "".join("/" + segment for segment in segments)
            ),
            st.sampled_from(["", "/", "?a=1", "#f"]),
        ).map("".join)
    )
    def test_idempotent_on_link_like_strings(self, url):
        # empty hosts, "//" paths and "www." prefixes among them
        once = canonicalize_article_url(url)
        assert canonicalize_article_url(once) == once
