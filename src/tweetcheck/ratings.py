"""Extract truth ratings from fact-check article pages.

Publisher routing is by host of the final (post-redirect) URL, never by
content sniffing. Each publisher's scraper reads its row of
:data:`DEFAULT_RATING_SELECTORS`, which is code, not configuration: a site
redesign is followed by changing its row. When the selectors miss, a regex
scan for "Rating:"/"VERDICT" style labels is tried and the result is
logged as low-confidence. A page without any rating block yields an
UNKNOWN rating with the missing flag, not a failure.

Every scraper takes time linear in the page however deeply its tags nest.
"""

from __future__ import annotations

import logging
import re
from typing import Optional

from .errors import ParseError
from .fetch import FetchResponse
from .htmldoc import Element, collapse_whitespace, outermost, parse_response
from .model import TruthRating, classify_rating
from .urls import canonicalize_article_url, identify_publisher  # noqa: F401  (also importable from here)

logger = logging.getLogger(__name__)

#: The selectors each publisher's scraper reads ("verdict_heading_text" is literal text).
DEFAULT_RATING_SELECTORS = {
    "snopes": {"rating": "div.rating_title_wrap"},
    "reuters": {"verdict_heading": "h2, h3, strong", "verdict_heading_text": "VERDICT"},
}

#: The most characters a rating label keeps, however long its block.
_LABEL_MAX = 81

_FALLBACK_LABEL = re.compile(
    rf"\b(?:truth rating|rating|verdict)[ \t]*:[ \t]*(\S[^\n]{{0,{_LABEL_MAX - 1}}})",
    re.IGNORECASE,
)


def _label_head(text: str) -> str:
    """The label a rating block states: the first sentence (up to a full stop
    and a space) of its collapsed text, at most :data:`_LABEL_MAX` characters.
    "False. Trump did not…" -> "False"; "False." stays "False."."""
    return collapse_whitespace(text).split(". ", 1)[0][:_LABEL_MAX].rstrip()


def _fallback_scan(root: Element, url: str, block: str) -> TruthRating:
    """When the selectors miss: the label a text scan finds, else a missing rating."""
    m = _FALLBACK_LABEL.search(root.text())
    if m is None:
        logger.warning("%s: no %s found", url, block)
        return classify_rating("")
    label = _label_head(m.group(1))
    logger.warning("%s: rating found only by text scan (low confidence): %r", url, label)
    return classify_rating(label)


def scrape_snopes_rating(page: FetchResponse) -> TruthRating:
    """Extract the rating label from a Snopes fact-check article."""
    root = parse_response(page)
    element = root.select_one(DEFAULT_RATING_SELECTORS["snopes"]["rating"])
    if element is not None:
        return classify_rating(_label_head(element.text()))
    return _fallback_scan(root, page.final_url, "rating block")


def scrape_reuters_rating(page: FetchResponse) -> TruthRating:
    """Extract the verdict from a Reuters fact-check article.

    Reuters states its verdict in a section introduced by a heading (the
    literal text "VERDICT"); the verdict sentence itself opens the
    following paragraph, whose first sentence is the label.
    """
    root = parse_response(page)
    selectors = DEFAULT_RATING_SELECTORS["reuters"]
    headings = verdict_headings(root, selectors["verdict_heading"], selectors["verdict_heading_text"])
    places, holders = _heading_places(root, headings)
    walked: set[int] = set()
    for heading in headings:
        paragraph = _following_text_block(*places[id(heading)], holders, walked)
        if paragraph:
            return classify_rating(_label_head(paragraph))
    return _fallback_scan(root, page.final_url, "verdict section")


def verdict_headings(root: Element, selector: str, heading_text: str) -> list[Element]:
    """The elements under ``root`` matching ``selector`` whose text, stripped
    and lowercased, is ``heading_text`` stripped and lowercased.

    Lowercasing never shortens a string, so no element whose stripped text
    is longer than the wanted text can qualify. Each element's text is built
    bottom-up from its children's and kept only while it is no longer than
    that: a nested heading's text is never rebuilt from its whole subtree,
    so this takes time linear in the page however deeply headings nest.
    """
    wanted = heading_text.strip().lower()
    headings = root.select(selector)
    texts = _short_texts(outermost(headings), len(wanted))
    return [h for h in headings if id(h) in texts and texts[id(h)].strip().lower() == wanted]


def _short_texts(tops: list[Element], limit: int) -> dict[int, str]:
    """By id, the text of each element in the subtrees of ``tops`` (which
    must not nest) whose stripped text is at most ``limit`` characters.

    A whitespace run at either end of a kept text is cut to ``limit + 1``
    characters: stripping drops it, and a cut run makes any text that takes
    it inside too long either way. So a kept text is short, and each
    element costs work in proportion to its children and their own text.
    """
    texts: dict[int, str] = {}  # ids stay unique while the tree is alive
    for top in tops:
        for el in reversed([top, *top.iter()]):  # every element after its descendants
            parts = [child if isinstance(child, str) else texts.get(id(child)) for child in el.children]
            if None in parts:
                continue
            text = "".join(parts)
            core = text.strip()
            if len(core) <= limit:
                lead = text[: len(text) - len(text.lstrip())]
                trail = text[len(lead) + len(core):] if core else ""
                texts[id(el)] = lead[: limit + 1] + core + trail[: limit + 1]
    return texts


def _heading_places(
    root: Element, headings: list[Element]
) -> tuple[dict[int, tuple[Element, int]], set[int]]:
    """By id, each of ``headings``' parent and its index among the parent's
    children; and by id, every element that contains one of ``headings``.

    One walk down from ``root`` reads every element's children once, each
    element after its descendants, so this takes time linear in the page."""
    wanted = {id(heading) for heading in headings}  # ids stay unique while the tree is alive
    places: dict[int, tuple[Element, int]] = {}
    holders: set[int] = set()
    for el in reversed([root, *root.iter()]):
        for index, child in enumerate(el.children):
            if id(child) in wanted:
                places[id(child)] = (el, index)
                holders.add(id(el))
            elif id(child) in holders:
                holders.add(id(el))
    return places, holders


def _following_text_block(parent: Element, index: int, holders: set[int], walked: set[int]) -> Optional[str]:
    """The text of the first child of ``parent`` after the heading at
    ``index`` that has any and holds no verdict heading (by id in
    ``holders``): with unclosed tags the next verdict section nests inside a
    sibling, and its text is no label.

    The headings are tried in document order, so a later heading under a
    parent already in ``walked`` can find nothing its first one did not:
    each parent's children are walked once.
    """
    if id(parent) in walked:
        return None
    walked.add(id(parent))
    for child in parent.children[index + 1:]:
        if isinstance(child, Element) and id(child) not in holders:
            text = child.text().strip()
            if text:
                return text
    return None


def scrape_rating(page: FetchResponse) -> TruthRating:
    """Route a fetched article to the right publisher scraper by final URL host.

    A page whose final URL is on neither publisher (say, a consent page it
    was redirected to) is a :class:`~tweetcheck.errors.ParseError`.
    """
    publisher = identify_publisher(page.final_url)
    if publisher == "snopes":
        return scrape_snopes_rating(page)
    if publisher == "reuters":
        return scrape_reuters_rating(page)
    raise ParseError(f"{page.final_url}: not a Snopes or Reuters page")

