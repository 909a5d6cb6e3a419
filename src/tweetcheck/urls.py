"""URL identity: when two URLs name the same request, result, article or site.

Each rule lives here once:

* :func:`normalize_url_for_key`: the URL a fixture is keyed by;
* :func:`result_link`: where a link on a results page leads, in the form a
  search result is reported and deduplicated in;
* :func:`canonicalize_article_url`: the identity under which an article is
  read once per verification and matched against the corpus;
* :func:`article_publisher`: whose fact-check article a link is, by its host and path
  (what a site engine keeps, verify reads and the corpus names), and
  :func:`identify_publisher`: whose site a URL is on, by its host alone (whose markup a page is).

Every function is pure and total over any string: one that
:func:`urllib.parse.urlsplit` rejects (say ``http://[::1``) is taken as a
bare path, so it has no host, belongs to no publisher and is its own
identity. This module imports nothing from the rest of the package.
"""

from __future__ import annotations

import re
from urllib.parse import SplitResult, unquote, urljoin, urlsplit, urlunsplit

#: Each publisher the program reads: the site its hosts are on, and the path its articles live under.
PUBLISHERS = {"snopes": ("snopes.com", "/fact-check/"), "reuters": ("reuters.com", "/article/")}

_REUTERS_ID = re.compile(r"idUS[A-Z0-9]+$")
_LEADING_WWW = re.compile(r"\A(?:www\.)+")


def _split(url: str) -> SplitResult:
    """``urlsplit(url)``, or ``url`` as a bare path if urlsplit rejects it."""
    try:
        return urlsplit(url)
    except ValueError:  # e.g. an unbalanced "[" in the host
        return SplitResult("", "", url, "", "")


def host(url: str) -> str:
    """The URL's host name, lowercased; "" when it has none."""
    return host_and_path(url)[0]


def host_and_path(url: str) -> tuple[str, str]:
    """The URL's host name, lowercased ("" when it has none), and its path."""
    parts = _split(url)
    return (parts.hostname or "").lower(), parts.path


def host_matches(name: str, domain: str) -> bool:
    """Whether the host ``name`` is ``domain`` or one of its subdomains."""
    return name == domain or name.endswith("." + domain)


def normalize_url_for_key(url: str) -> str:
    """Lowercase scheme and host, strip any trailing "/" from the path."""
    parts = _split(url)
    path = parts.path.rstrip("/")
    return urlunsplit((parts.scheme.lower(), parts.netloc.lower(), path, parts.query, parts.fragment))


# A link none of urljoin's or urlsplit's special cases touch: "http(s)://host" and a
# path, or a path alone, of the listed ASCII characters up to its fragment (so no
# whitespace, control character, "[", backslash or ";"). Groups: scheme, host, path, query.
# The host ends at "/", "?", "#" or the end, or a failing match tries every host/path split.
_PLAIN_LINK = re.compile(
    r"(?:(https?)://([-\w.~!$&'()*+,=:@%]+)(?=[/?#]|\Z))?([-\w.~!$&'()*+,=:@%/]*)(?:\?([-\w.~!$&'()*+,=:@%/?]*))?(?:#.*)?\Z",
    re.ASCII | re.IGNORECASE | re.DOTALL,
)


def _plain(url: str) -> SplitResult | None:
    m = _PLAIN_LINK.match(url)
    return m and SplitResult((m[1] or "").lower(), m[2] or "", m[3], m[4] or "", "")


def result_link(base: str, href: str, unwrap: bool) -> tuple[str, str, str] | None:
    """(URL, host, path) of the http(s) page with a host, and no malformed port, that the link
    ``href`` on the page at ``base`` leads to, or None. With ``unwrap``, a "/url?" redirect wrapper
    leads to its first non-blank "q", else "url". The URL, as a result is reported, has its scheme
    and host lowercased and no userinfo or fragment; host and path are :func:`host_and_path` of it.
    The answer is that of urljoin, parse_qs and urlsplit in turn; a plain link is not joined."""
    try:
        page = urlsplit(base)  # urljoin reads the base first, and may reject it
        parts = _plain(href)
        if parts and not parts.netloc:  # a path, joined here only if root-relative without dot segments
            path = parts.path
            joins = page.scheme in ("http", "https") and path[:1] == "/" and path[1:2] != "/" and "/." not in path
            parts = SplitResult(page.scheme, page.netloc, path, parts.query, "") if joins else None
        parts = parts or urlsplit(urljoin(base, href))
        if unwrap and parts.path == "/url":
            values: dict[str, str] = {}
            for field in parts.query.split("&"):
                name, _, value = field.partition("=")
                if value:
                    values.setdefault(unquote(name.replace("+", " ")), value)
            target = values.get("q") or values.get("url")
            if target:
                target = unquote(target.replace("+", " "))
                parts = urlsplit(target)
        parts.port  # raises for a port no request may go to, say "80x"
    except ValueError:  # e.g. an unbalanced "[" in the host, or that port
        return None
    if parts.scheme not in ("http", "https") or not parts.hostname:
        return None
    url = urlunsplit((parts.scheme, parts.netloc.rpartition("@")[2].lower(), parts.path, parts.query, ""))
    return url, parts.hostname.lower(), parts.path


def identify_publisher(url: str) -> str | None:
    """The :data:`PUBLISHERS` key whose site the URL's host is on, else None."""
    name = host(url)
    return next((publisher for publisher, (site, _) in PUBLISHERS.items() if host_matches(name, site)), None)


def article_publisher(name: str, path: str) -> str | None:
    """The :data:`PUBLISHERS` key whose article a link to the host ``name`` (lowercased) and
    the path ``path`` is, else None: the host is on its site and more than slashes follow its article path."""
    return next((key for key, (site, articles) in PUBLISHERS.items() if host_matches(name, site)
                 and path.startswith(articles) and path[len(articles):].strip("/")), None)


def canonicalize_article_url(url: str) -> str:
    """Collapse an article URL to a canonical identity for comparison.

    Lowercases scheme and host, strips userinfo, every leading "www.", trailing slashes, query and
    fragment. Two special shapes get shorter identities: Reuters article
    URLs collapse to their trailing "idUS…" token, and Snopes fact-check
    URLs collapse to their "/fact-check/<slug>" path, the article judged by
    :func:`article_publisher`. Anything else keeps its full normalized URL. Idempotent: with
    no host, a path's leading slashes become one, or urlunsplit would write "//x" to be read as a host.
    """
    try:
        parts = urlsplit(url)
    except ValueError:  # a bare path, kept whole: urlunsplit may read a leading "//" as a host
        return url.rstrip("/")
    path = parts.path.rstrip("/")
    name = (parts.hostname or "").lower()
    if host_matches(name, PUBLISHERS["reuters"][0]) and (m := _REUTERS_ID.search(path)):
        return m.group(0)
    if article_publisher(name, path) == "snopes":
        return path
    netloc = _LEADING_WWW.sub("", parts.netloc.rpartition("@")[2].lower())
    if not netloc and path.startswith("//"):
        path = "/" + path.lstrip("/")
    return urlunsplit((parts.scheme.lower(), netloc, path, "", ""))
