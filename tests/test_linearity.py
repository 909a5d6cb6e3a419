"""No page reader takes time superlinear in its page, swept over the selector tables.

Every selector the engine table and the rating table hold is parsed with
:func:`~tweetcheck.htmldoc.parse_selector`, and an element is built to
match each of its compounds. Pages of that element, nested by unclosed
tags or side by side, or holding long whitespace and entity runs, go to
the reader of the selector's table: :func:`~tweetcheck.adapters.ranked_search`
for a ranked engine, :func:`~tweetcheck.adapters.search_politwoops` for the
tracker and :func:`~tweetcheck.ratings.scrape_rating` for a publisher (whose
text-scan fallback reads a page its selectors miss). Each copy holds a
"Rating:" label or, where the table has one, its literal page text, so a
nested Reuters heading reads "VERDICT". A selector added to a table is
swept without a new test.

Three sweeps read what a page holds besides its elements: for each engine
row, a page whose one link is a long run that a URL's host and path both
take; for each table, a decimal character reference of a long run of
digits; and start tags whose attributes are parted by long runs of spaces,
slashes, "=" or quotes.

Each case is bounded twice: a page 8 times larger may take at most 16 times
as long (best of 3 runs each, measured up to 3 times), and the larger page
at most 2.5 s. A quadratic reader takes about 64 times as long.
"""

from __future__ import annotations

import gc
import time

import pytest

from tweetcheck.adapters import ENGINES, ranked_search, search_politwoops
from tweetcheck.config import source_by_name
from tweetcheck.errors import TweetCheckError
from tweetcheck.fetch import Fetcher, FetchMode, FetchResponse
from tweetcheck.htmldoc import parse_html, parse_selector
from tweetcheck.model import SourceId, TweetClaim
from tweetcheck.ratings import scrape_rating

from conftest import LITERAL_TEXT_KEYS, SELECTOR_CONSTANTS, StubPage, StubTransport, engine_query_url

#: Copies of an element at the smaller size; the larger page has 8 times as many.
SIZE = 200
#: Characters in the run of a hostile link at the smaller size.
LINK_SIZE = 1_000
#: Keys whose elements hold the others: every page opens one of each first.
CONTAINER_KEYS = ("scope",)
#: A page one publisher's scraper reads, by rating table.
ARTICLE_URLS = {
    "rating-snopes": "https://www.snopes.com/fact-check/linearity-sweep/",
    "rating-reuters": "https://www.reuters.com/article/idUSSWEEP",
}

#: How ``count`` copies of an element (start tag, end tag) holding ``text`` make a page.
SHAPES = {
    "nested": lambda start, end, text, count: (start + text) * count,
    "siblings": lambda start, end, text, count: (start + text + end) * count,
    "whitespace": lambda start, end, text, count: start + " \n\t" * (4 * count) + text + "\r\n " * (4 * count) + end,
    "entities": lambda start, end, text, count: start + "&amp;&#8217;&copy=&lt" * (4 * count) + text + end,
}


def _element(compound) -> tuple[str, str]:
    """The start and end tag of an element matching ``compound``."""
    tag, ident, classes, tests = compound
    tag = tag or "span"
    attrs = [f'id="{ident}"'] if ident else []
    if classes:
        attrs.append(f'class="{" ".join(sorted(classes))}"')
    attrs += [f'{name}="{contained or "x"}"' for name, contained in tests]
    return f"<{' '.join([tag, *attrs])}>", f"</{tag}>"


def _table_selectors(table: str) -> dict[str, str]:
    return {key: value for name, key, value in SELECTOR_CONSTANTS if name == table}


def _reader(table: str):
    """Runs the reader of ``table``'s selectors on a page body; a query failure
    such as a bot challenge is an answer too."""
    if table in ARTICLE_URLS:
        return lambda body: scrape_rating(FetchResponse(200, ARTICLE_URLS[table], body, "text/html"))
    source = source_by_name(table)
    claim = TweetClaim(body="linearity sweep")

    def read(body: bytes):
        transport = StubTransport({engine_query_url(source, claim.body): StubPage(body)})
        with Fetcher(FetchMode.LIVE, delay_ms=0, transport=transport) as fetcher:
            try:
                if source is SourceId.POLITWOOPS:
                    return search_politwoops(ENGINES[source], claim, fetcher)
                return ranked_search(ENGINES[source], claim, fetcher)
            except TweetCheckError as exc:
                return exc

    return read


def _cases():
    for table, key, selector in SELECTOR_CONSTANTS:
        if key in LITERAL_TEXT_KEYS:
            continue
        # the elements of "<key>" hold the literal text of "<key>_text", if the table has it
        text = _table_selectors(table).get(f"{key}_text", "Rating: x")
        for compound in parse_selector(selector):
            element = _element(compound)
            for shape in SHAPES:
                yield pytest.param(table, selector, element, shape, text, id=f"{table}-{key}-{element[0]}-{shape}")


def _best_of_3(read, small: bytes, large: bytes) -> tuple[float, float]:
    """The least CPU time of 3 reads of each page, taken in turn so that both
    see the machine alike, with the cycle collector off: its passes cost time
    in proportion to every object alive, which is not the reader's."""
    best = [float("inf"), float("inf")]
    gc.disable()
    try:
        for _ in range(3):
            for index, body in enumerate((small, large)):
                started = time.process_time()
                read(body)
                best[index] = min(best[index], time.process_time() - started)
    finally:
        gc.enable()
    return best[0], best[1]


@pytest.mark.parametrize("table, selector, element, shape, text", list(_cases()))
def test_reader_time_is_linear(table, selector, element, shape, text):
    start, end = element
    assert parse_html(start).select(selector), f"{start} does not match {selector!r}"
    selectors = _table_selectors(table)
    context = "".join(_element(parse_selector(selectors[key])[0])[0] for key in CONTAINER_KEYS if key in selectors)
    read = _reader(table)
    small, large = (
        (context + SHAPES[shape](start, end, text, count)).encode() for count in (SIZE, 8 * SIZE)
    )
    _assert_linear(read, small, large)


def _assert_linear(read, small: bytes, large: bytes) -> None:
    for _ in range(3):  # a machine busy with other work can slow one page's runs: measure again
        small_s, large_s = _best_of_3(read, small, large)
        if large_s <= 16 * small_s:
            break
    assert large_s <= 16 * small_s, f"8 times the page took {large_s / small_s:.1f} times as long"
    assert large_s < 2.5


@pytest.mark.parametrize("source", list(ENGINES), ids=lambda source: source.value)
def test_link_split_time_is_linear(source):
    """A page whose one link is "http://", a run of characters that a host and
    a path both take, then a "[" that no plain link holds: the split must not
    try every place the host could end. The link holds what the row's link
    selector needs (the tracker's "/politwoops/tweet/") after the run."""
    selectors = ENGINES[source].selectors
    context = "".join(_element(parse_selector(selectors[key])[0])[0] for key in CONTAINER_KEYS if key in selectors)
    if "text" in selectors:  # a tracker card is read only if it has text
        start, end = _element(parse_selector(selectors["text"])[0])
        context += f"{start}linearity sweep{end}"
    key = "results"
    _, contained = parse_selector(selectors[key])[0][3][0]
    small, large = (
        f'{context}<a href="http://{"a" * count}{contained or ""}[">x</a>' for count in (LINK_SIZE, 8 * LINK_SIZE)
    )
    assert parse_html(small).select(selectors[key]), f"the link does not match {selectors[key]!r}"
    _assert_linear(_reader(source.value), small.encode(), large.encode())


@pytest.mark.parametrize("table", sorted({table for table, _, _ in SELECTOR_CONSTANTS}))
def test_long_decimal_references_read_in_linear_time(table):
    """A decimal reference of a long run of digits, in text and in a link's
    href: html.unescape reads the digits with int(), which refuses a run of
    over 4,300 of them."""
    selectors = _table_selectors(table)
    context = "".join(_element(parse_selector(selectors[key])[0])[0] for key in CONTAINER_KEYS if key in selectors)
    small, large = (
        f'{context}<p>&#{"1" * count};</p><a href="/&#{"1" * count};">x</a>'.encode()
        for count in (10 * LINK_SIZE, 80 * LINK_SIZE)
    )
    _assert_linear(_reader(table), small, large)


@pytest.mark.parametrize("run", ["/ ", " / ", "\t", "= ", "' "])
@pytest.mark.parametrize("tail", [">", "x>", ""])
def test_attribute_runs_parse_in_linear_time(run, tail):
    """Long runs of whitespace, slashes and the like between a tag's attributes.
    The attribute pattern alone rescans such a run from each of its characters
    when no attribute follows it; the tokenizer hands it only the attributes
    its tag pattern found, so every scan of it starts at an attribute."""
    small, large = (f"<a x{run * count}{tail}y".encode() for count in (SIZE * 20, SIZE * 160))
    _assert_linear(lambda body: parse_html(body.decode()), small, large)
