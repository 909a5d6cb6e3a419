"""Lightweight HTML tree with the small CSS-selector subset the scrapers need.

Built on the stdlib parser. Supported selector syntax, which is what the
per-adapter selector configuration files may use:

* comma-separated alternatives: ``h2, h3``
* descendant chains: ``div#search a[href]``
* compound simple selectors: tag name, ``#id``, ``.class`` (repeatable),
  ``[attr]``, ``[attr=v]``, ``[attr*=v]``, ``[attr^=v]``, ``[attr$=v]``

Unclosed tags are recovered from by scanning down the open-element stack;
this is not a full HTML5 tree builder, but it handles the result pages and
article pages this package scrapes.
"""

from __future__ import annotations

import re
from html.parser import HTMLParser
from typing import Iterator, Optional

from .errors import ParseError
from .fetch import FetchResponse

VOID_TAGS = frozenset(
    "area base br col embed hr img input link meta param source track wbr".split()
)

_ATTR_RE = re.compile(r"\[\s*([\w:-]+)\s*(?:([*^$]?=)\s*\"?([^\"\]]*?)\"?\s*)?\]")
_PART_RE = re.compile(r"([\w:-]+)|#([\w:-]+)|\.([\w:-]+)")


class Element:
    """One HTML element: tag, attributes, and mixed text/element children."""

    __slots__ = ("tag", "attrs", "children", "parent")

    def __init__(self, tag: str, attrs: Optional[dict[str, str]] = None, parent=None):
        self.tag = tag
        self.attrs = attrs or {}
        self.children: list[Element | str] = []
        self.parent: Optional[Element] = parent

    def __repr__(self):
        ident = f"#{self.attrs['id']}" if "id" in self.attrs else ""
        return f"<Element {self.tag}{ident}>"

    @property
    def classes(self) -> list[str]:
        return self.attrs.get("class", "").split()

    def get(self, name: str, default: Optional[str] = None) -> Optional[str]:
        return self.attrs.get(name, default)

    def iter(self) -> Iterator["Element"]:
        """All descendant elements in document order, self excluded.

        Walks an explicit stack, so nesting depth costs neither recursion
        nor a generator frame per level.
        """
        stack = [child for child in reversed(self.children) if isinstance(child, Element)]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(child for child in reversed(node.children) if isinstance(child, Element))

    def text(self) -> str:
        """Concatenated text of all descendants, entities already decoded."""
        parts: list[str] = []
        stack: list[Element | str] = list(reversed(self.children))
        while stack:
            node = stack.pop()
            if isinstance(node, str):
                parts.append(node)
            else:
                stack.extend(reversed(node.children))
        return "".join(parts)

    def select(self, selector: str) -> list["Element"]:
        """Elements under this one matching the selector, in document order."""
        chains = _parse_selector(selector)
        return [el for el in self.iter() if any(_chain_matches(el, c) for c in chains)]

    def select_one(self, selector: str) -> Optional["Element"]:
        found = self.select(selector)
        return found[0] if found else None

    def is_inside(self, container: "Element") -> bool:
        node = self.parent
        while node is not None:
            if node is container:
                return True
            node = node.parent
        return False


class _Simple:
    __slots__ = ("tag", "id", "classes", "attrs")

    def __init__(self, tag, id_, classes, attrs):
        self.tag = tag
        self.id = id_
        self.classes = classes
        self.attrs = attrs


def _parse_compound(token: str) -> _Simple:
    tag = None
    id_ = None
    classes: list[str] = []
    attrs: list[tuple[str, str, str]] = []

    def grab_attr(m: re.Match) -> str:
        attrs.append((m.group(1).lower(), m.group(2) or "", m.group(3) or ""))
        return ""

    rest = _ATTR_RE.sub(grab_attr, token)
    pos = 0
    for m in _PART_RE.finditer(rest):
        if m.start() != pos:
            raise ValueError(f"unsupported selector syntax: {token!r}")
        pos = m.end()
        if m.group(1):
            if tag is not None:
                raise ValueError(f"two tag names in selector: {token!r}")
            tag = m.group(1).lower()
        elif m.group(2):
            id_ = m.group(2)
        else:
            classes.append(m.group(3))
    if pos != len(rest):
        raise ValueError(f"unsupported selector syntax: {token!r}")
    return _Simple(tag, id_, tuple(classes), tuple(attrs))


def _parse_selector(selector: str) -> list[list[_Simple]]:
    chains = []
    for alternative in selector.split(","):
        tokens = alternative.split()
        if not tokens:
            continue
        chains.append([_parse_compound(token) for token in tokens])
    if not chains:
        raise ValueError("empty selector")
    return chains


def _matches_simple(el: Element, simple: _Simple) -> bool:
    if simple.tag is not None and el.tag != simple.tag:
        return False
    if simple.id is not None and el.attrs.get("id") != simple.id:
        return False
    if simple.classes and not set(simple.classes).issubset(el.classes):
        return False
    for name, op, value in simple.attrs:
        actual = el.attrs.get(name)
        if actual is None:
            return False
        if op == "=" and actual != value:
            return False
        if op == "*=" and value not in actual:
            return False
        if op == "^=" and not actual.startswith(value):
            return False
        if op == "$=" and not actual.endswith(value):
            return False
    return True


def _chain_matches(el: Element, chain: list[_Simple]) -> bool:
    if not _matches_simple(el, chain[-1]):
        return False
    node = el.parent
    for simple in reversed(chain[:-1]):
        while node is not None and not _matches_simple(node, simple):
            node = node.parent
        if node is None:
            return False
        node = node.parent
    return True


class _TreeBuilder(HTMLParser):
    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.root = Element("[document]")
        self.stack = [self.root]

    def handle_starttag(self, tag, attrs):
        element = Element(tag, dict(attrs), parent=self.stack[-1])
        self.stack[-1].children.append(element)
        if tag not in VOID_TAGS:
            self.stack.append(element)

    def handle_endtag(self, tag):
        for index in range(len(self.stack) - 1, 0, -1):
            if self.stack[index].tag == tag:
                del self.stack[index:]
                return
        # stray end tag: ignore

    def handle_data(self, data):
        if data:
            self.stack[-1].children.append(data)


def parse_html(text: str) -> Element:
    """Parse HTML text into an element tree; returns the document root."""
    builder = _TreeBuilder()
    builder.feed(text)
    builder.close()
    return builder.root


_CHARSET_RE = re.compile(r"charset=([\w.-]+)", re.IGNORECASE)
_HTMLISH_CT = re.compile(r"(^text/|html|xml)", re.IGNORECASE)


def decode_body(response: FetchResponse) -> str:
    charset = "utf-8"
    m = _CHARSET_RE.search(response.content_type)
    if m:
        charset = m.group(1)
    try:
        return response.body.decode(charset, errors="replace")
    except LookupError:
        return response.body.decode("utf-8", errors="replace")


def parse_response(response: FetchResponse) -> Element:
    """Parse a fetched page, or raise :class:`ParseError` if it is not HTML."""
    ct = response.content_type.split(";")[0].strip()
    if ct and not _HTMLISH_CT.search(ct):
        raise ParseError(f"{response.final_url}: not an HTML page ({ct})")
    return parse_html(decode_body(response))
