"""URL identity: when two URLs name the same request, result, article or site.

Each rule lives here once:

* :func:`normalize_url_for_key`: the URL a fixture is keyed by;
* :func:`normalize_result_url`: the form a search result is reported and
  deduplicated in;
* :func:`canonicalize_article_url`: the identity under which an article is
  read once per verification and matched against the corpus;
* :func:`identify_publisher` and :func:`is_snopes_url`: which site a URL
  belongs to, judged by its host.

Every function is pure and total over any string: one that
:func:`urllib.parse.urlsplit` rejects (say ``http://[::1``) is taken as a
bare path, so it has no host, belongs to no publisher and is its own
identity. This module imports nothing from the rest of the package.
"""

from __future__ import annotations

import re
from typing import Optional
from urllib.parse import SplitResult, urlsplit, urlunsplit

SNOPES_HOST = "snopes.com"
REUTERS_HOST = "reuters.com"

_REUTERS_ID = re.compile(r"idUS[A-Z0-9]+$")


def _split(url: str) -> SplitResult:
    """``urlsplit(url)``, or ``url`` as a bare path if urlsplit rejects it."""
    try:
        return urlsplit(url)
    except ValueError:  # e.g. an unbalanced "[" in the host
        return SplitResult("", "", url, "", "")


def host(url: str) -> str:
    """The URL's host name, lowercased; "" when it has none."""
    return (_split(url).hostname or "").lower()


def host_matches(name: str, domain: str) -> bool:
    """Whether the host ``name`` is ``domain`` or one of its subdomains."""
    return name == domain or name.endswith("." + domain)


def normalize_url_for_key(url: str) -> str:
    """Lowercase scheme and host, strip any trailing "/" from the path."""
    parts = _split(url)
    path = parts.path.rstrip("/")
    return urlunsplit((parts.scheme.lower(), parts.netloc.lower(), path, parts.query, parts.fragment))


def normalize_result_url(url: str) -> str:
    """Dedup basis for SERP links: lowercase scheme/host, drop fragment."""
    parts = _split(url)
    return urlunsplit((parts.scheme.lower(), parts.netloc.lower(), parts.path, parts.query, ""))


def identify_publisher(url: str) -> Optional[str]:
    """"snopes" or "reuters" by host, else None."""
    name = host(url)
    if host_matches(name, SNOPES_HOST):
        return "snopes"
    if host_matches(name, REUTERS_HOST):
        return "reuters"
    return None


def is_snopes_url(url: str) -> bool:
    """Whether the URL's host is snopes.com itself, with or without "www."."""
    return host(url).removeprefix("www.") == SNOPES_HOST


def canonicalize_article_url(url: str) -> str:
    """Collapse an article URL to a canonical identity for comparison.

    Lowercases scheme and host, strips "www.", trailing slashes, query and
    fragment. Two special shapes get shorter identities: Reuters article
    URLs collapse to their trailing "idUS…" token, and Snopes fact-check
    URLs collapse to their "/fact-check/<slug>" path. Everything else keeps
    its full normalized URL. Idempotent.
    """
    parts = _split(url)
    netloc = parts.netloc.lower().removeprefix("www.")
    path = parts.path.rstrip("/")
    if host_matches(netloc, REUTERS_HOST):
        m = _REUTERS_ID.search(path)
        if m:
            return m.group(0)
    if host_matches(netloc, SNOPES_HOST) and path.startswith("/fact-check/"):
        return path
    return urlunsplit((parts.scheme.lower(), netloc, path, "", ""))
