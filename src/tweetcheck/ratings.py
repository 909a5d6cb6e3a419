"""Extract truth ratings from fact-check article pages.

Publisher routing is by host of the final (post-redirect) URL, never by
content sniffing. Each publisher's scraper reads its row of
:data:`DEFAULT_RATING_SELECTORS`, which is code, not configuration: a site
redesign is followed by changing its row. When the selectors miss, a regex
scan for "Rating:"/"VERDICT" style labels is tried over the page's text, in
which each block element (``p``, ``div``, ``li``, ``td``, ``br``, …) starts
and ends a line, and the result is logged as low-confidence. A page without
any rating block yields an UNKNOWN rating with the missing flag, not a
failure.

Every scraper takes time linear in the page however deeply its tags nest;
the Reuters scraper finds its verdict headings in one walk that visits
every element after its descendants.
"""

from __future__ import annotations

import logging
import re

from .errors import ParseError
from .fetch import FetchResponse
from .htmldoc import Element, collapse_whitespace, page_text, parse_html
from .model import TruthRating
from .urls import identify_publisher

logger = logging.getLogger(__name__)

#: The selectors each publisher's scraper reads ("verdict_heading_text" is literal text).
DEFAULT_RATING_SELECTORS = {
    "snopes": {"rating": "div.rating_title_wrap"},
    "reuters": {"verdict_heading": "h2, h3, strong", "verdict_heading_text": "VERDICT"},
}

#: The most characters a rating label keeps, however long its block.
_LABEL_MAX = 81

#: A label runs to the end of its line, and a label on the line after the
#: colon (a "Rating:" heading above it) is read too.
_FALLBACK_LABEL = re.compile(
    rf"\b(?:truth rating|rating|verdict)[ \t]*:\s*(\S[^\n]{{0,{_LABEL_MAX - 1}}})",
    re.IGNORECASE,
)

#: Elements whose start and end the text scan reads as line breaks, so that a
#: label ends where its block does; inline elements (``b``, ``span``, ``a``) join.
_BLOCK_TAGS = frozenset(
    "address article aside blockquote br dd div dl dt figcaption figure footer form h1 h2 h3 h4 h5 h6 "
    "header hr li main nav ol p pre section table tbody td tfoot th thead tr ul".split()
)


def _label_head(text: str) -> str:
    """The label a rating block states: the first sentence (up to a full stop
    and a space) of its collapsed text, at most :data:`_LABEL_MAX` characters.
    "False. Trump did not…" -> "False"; "False." stays "False."."""
    return collapse_whitespace(text).split(". ", 1)[0][:_LABEL_MAX].rstrip()


def _fallback_scan(root: Element, url: str, block: str) -> TruthRating:
    """When the selectors miss: the label a text scan finds, else a missing rating."""
    m = _FALLBACK_LABEL.search(root.text(_BLOCK_TAGS))
    if m is None:
        logger.warning("%s: no %s found", url, block)
        return TruthRating("")
    label = _label_head(m.group(1))
    logger.warning("%s: rating found only by text scan (low confidence): %r", url, label)
    return TruthRating(label)


def scrape_snopes_rating(page: FetchResponse) -> TruthRating:
    """Extract the rating label from a Snopes fact-check article."""
    root = parse_html(page_text(page))
    element = root.select_one(DEFAULT_RATING_SELECTORS["snopes"]["rating"])
    if element is not None:
        return TruthRating(_label_head(element.text()))
    return _fallback_scan(root, page.final_url, "rating block")


def scrape_reuters_rating(page: FetchResponse) -> TruthRating:
    """Extract the verdict from a Reuters fact-check article.

    Reuters states its verdict in a section introduced by a heading: an
    element matching the row's selector whose text, stripped and lowercased,
    is the literal "VERDICT". The label is the first sentence of the first
    later sibling of a heading that has text and holds no verdict heading
    (with unclosed tags the next verdict section nests inside a sibling, and
    its text is no label); the headings are tried in document order.

    One walk visits every element after its descendants and builds each
    element's text from its children's, keeping it only while it is short
    enough to be the heading text: a nested heading's text is never rebuilt
    from its whole subtree. A later heading under a parent already walked
    can find nothing the first one did not, so each parent's children are
    walked once, and the scraper takes time linear in the page however
    deeply it nests.
    """
    root = parse_html(page_text(page))
    selectors = DEFAULT_RATING_SELECTORS["reuters"]
    wanted = selectors["verdict_heading_text"].strip().lower()
    limit = len(wanted)  # lowercasing never shortens a string
    candidates = root.select(selectors["verdict_heading"])
    candidate_ids = set(map(id, candidates))
    # By id (unique while ``root`` keeps the tree alive): each element's text
    # if it is short, each verdict heading's parent and index there, and
    # every element that holds a verdict heading.
    texts: dict[int, str] = {}
    places: dict[int, tuple[Element, int]] = {}
    holders: set[int] = set()
    for el in reversed([root, *root.iter()]):  # every element after its descendants
        parts: list[str | None] = []
        for index, child in enumerate(el.children):
            if isinstance(child, str):
                parts.append(child)
                continue
            text = texts.get(id(child))
            parts.append(text)
            if id(child) in candidate_ids and text is not None and text.strip().lower() == wanted:
                places[id(child)] = (el, index)
                holders.add(id(el))
            elif id(child) in holders:
                holders.add(id(el))
        if None in parts:
            continue
        text = "".join(parts)
        core = text.strip()
        if len(core) <= limit:
            # A whitespace run at either end is cut to ``limit + 1`` characters:
            # stripping drops it, and a cut run makes any text that takes it
            # inside too long either way. So each element costs work in
            # proportion to its children and their own text.
            lead = text[: len(text) - len(text.lstrip())]
            trail = text[len(lead) + len(core):] if core else ""
            texts[id(el)] = lead[: limit + 1] + core + trail[: limit + 1]
    walked: set[int] = set()
    for parent, index in [places[id(heading)] for heading in candidates if id(heading) in places]:
        if id(parent) in walked:
            continue
        walked.add(id(parent))
        for child in parent.children[index + 1:]:
            if isinstance(child, Element) and id(child) not in holders:
                label = child.text().strip()
                if label:
                    return TruthRating(_label_head(label))
    return _fallback_scan(root, page.final_url, "verdict section")


#: Each publisher's scraper, by its key in :data:`~tweetcheck.urls.PUBLISHERS`.
_SCRAPERS = {"snopes": scrape_snopes_rating, "reuters": scrape_reuters_rating}


def scrape_rating(page: FetchResponse) -> TruthRating:
    """Route a fetched article to the right publisher scraper by final URL host.

    A page whose final URL is on neither publisher (say, a consent page it
    was redirected to) is a :class:`~tweetcheck.errors.ParseError`.
    """
    scraper = _SCRAPERS.get(identify_publisher(page.final_url))
    if scraper is None:
        raise ParseError(f"{page.final_url}: not a Snopes or Reuters page")
    return scraper(page)

