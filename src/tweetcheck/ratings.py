"""Extract truth ratings from fact-check article pages.

Publisher routing is by host of the final (post-redirect) URL, never by
content sniffing. Structural selectors are configurable per publisher; when
they miss, a regex scan for "Rating:"/"VERDICT" style labels is tried and
the result is logged as low-confidence. A page without any rating block
yields an UNKNOWN rating with the missing flag, not a failure.
"""

from __future__ import annotations

import logging
import re
from typing import Mapping, Optional

from .fetch import FetchResponse
from .htmldoc import Element, collapse_whitespace, parse_response
from .model import TruthRating, classify_rating
from .urls import canonicalize_article_url, identify_publisher  # noqa: F401  (also importable from here)

logger = logging.getLogger(__name__)

#: Every key each publisher's scraper reads, with its default.
DEFAULT_RATING_SELECTORS = {
    "snopes": {"rating": "div.rating_title_wrap"},
    "reuters": {"verdict_heading": "h2, h3, strong", "verdict_heading_text": "VERDICT"},
}

_FALLBACK_LABEL = re.compile(
    r"\b(?:truth rating|rating|verdict)[ \t]*:[ \t]*(\S[^\n]{0,80})",
    re.IGNORECASE,
)


def _label_head(text: str) -> str:
    """First sentence of a verdict block: "False. Trump did not…" -> "False"."""
    first_line = text.strip().split("\n", 1)[0]
    return first_line.split(".", 1)[0].strip()


def _fallback_scan(root: Element, url: str, block: str) -> TruthRating:
    """When the selectors miss: the label a text scan finds, else a missing rating."""
    m = _FALLBACK_LABEL.search(root.text())
    if m is None:
        logger.warning("%s: no %s found", url, block)
        return classify_rating("")
    label = _label_head(collapse_whitespace(m.group(1)))
    logger.warning("%s: rating found only by text scan (low confidence): %r", url, label)
    return classify_rating(label)


def scrape_snopes_rating(
    page: FetchResponse, selectors: Optional[Mapping[str, str]] = None
) -> TruthRating:
    """Extract the rating label from a Snopes fact-check article."""
    sel = {**DEFAULT_RATING_SELECTORS["snopes"], **(selectors or {})}
    root = parse_response(page)
    element = root.select_one(sel["rating"])
    if element is not None:
        return classify_rating(collapse_whitespace(element.text()))
    return _fallback_scan(root, page.final_url, "rating block")


def scrape_reuters_rating(
    page: FetchResponse, selectors: Optional[Mapping[str, str]] = None
) -> TruthRating:
    """Extract the verdict from a Reuters fact-check article.

    Reuters states its verdict in a section introduced by a heading (by
    default the literal text "VERDICT"); the verdict sentence itself opens
    the following paragraph, so only the first sentence is the label.
    """
    sel = {**DEFAULT_RATING_SELECTORS["reuters"], **(selectors or {})}
    root = parse_response(page)
    wanted = sel["verdict_heading_text"].strip().lower()
    for heading in root.select(sel["verdict_heading"]):
        if heading.text().strip().lower() != wanted:
            continue
        paragraph = _following_text_block(heading)
        if paragraph:
            return classify_rating(_label_head(collapse_whitespace(paragraph)))
    return _fallback_scan(root, page.final_url, "verdict section")


def _following_text_block(heading: Element) -> Optional[str]:
    parent = heading.parent
    if parent is None:
        return None
    found_heading = False
    for child in parent.children:
        if child is heading:
            found_heading = True
            continue
        if not found_heading or not isinstance(child, Element):
            continue
        text = child.text().strip()
        if text:
            return text
    return None


def scrape_rating(
    page: FetchResponse, selectors: Optional[Mapping[str, Mapping[str, str]]] = None
) -> TruthRating:
    """Route a fetched article to the right publisher scraper by final URL host."""
    publisher = identify_publisher(page.final_url)
    per_site = selectors or {}
    if publisher == "snopes":
        return scrape_snopes_rating(page, per_site.get("snopes"))
    if publisher == "reuters":
        return scrape_reuters_rating(page, per_site.get("reuters"))
    raise ValueError(f"unsupported publisher host: {page.final_url}")

