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

Parent links are weak references: a tree is owned by its root through
``children`` alone, so it holds no reference cycle and is freed the moment
its root is dropped, without waiting for the cycle collector. A tree lives
as long as its root; keep the root while walking upward. An element whose
root is gone has ``parent`` None.
"""

from __future__ import annotations

import re
import weakref
from functools import lru_cache
from html.parser import HTMLParser
from typing import Iterator, Optional

from .errors import ParseError
from .fetch import FetchResponse

VOID_TAGS = frozenset(
    "area base br col embed hr img input link meta param source track wbr".split()
)

_ATTR_RE = re.compile(r"\[\s*([\w:-]+)\s*(?:([*^$]?=)\s*\"?([^\"\]]*?)\"?\s*)?\]")
_PART_RE = re.compile(r"([\w:-]+)|#([\w:-]+)|\.([\w:-]+)")


def _no_parent() -> None:
    return None


class Element:
    """One HTML element: tag, attributes, and mixed text/element children.

    The link to the parent is weak (see the module docstring): ``parent``
    is None for the root and for an element whose root has been dropped.
    """

    __slots__ = ("tag", "attrs", "children", "_parent", "__weakref__")

    def __init__(self, tag: str, attrs: Optional[dict[str, str]] = None, parent=None):
        self.tag = tag
        self.attrs = attrs or {}
        self.children: list[Element | str] = []
        # Called to dereference, so hot loops walk up with ``node._parent()``.
        self._parent = _no_parent if parent is None else weakref.ref(parent)

    def __repr__(self):
        ident = f"#{self.attrs['id']}" if "id" in self.attrs else ""
        return f"<Element {self.tag}{ident}>"

    @property
    def parent(self) -> Optional["Element"]:
        return self._parent()

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
            stack.extend([child for child in reversed(node.children) if isinstance(child, Element)])

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

    def _matching(self, selector: str) -> Iterator["Element"]:
        chains = _parse_selector(selector)
        for el in self.iter():
            for chain in chains:
                if _chain_matches(el, chain):
                    yield el
                    break

    def select(self, selector: str) -> list["Element"]:
        """Elements under this one matching the selector, in document order."""
        return list(self._matching(selector))

    def select_one(self, selector: str) -> Optional["Element"]:
        """The first element :meth:`select` would return, without finding the rest."""
        return next(self._matching(selector), None)

    def is_inside(self, container: "Element") -> bool:
        node = self._parent()
        while node is not None:
            if node is container:
                return True
            node = node._parent()
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
    return _Simple(tag, id_, frozenset(classes), tuple(attrs))


@lru_cache(maxsize=256)
def _parse_selector(selector: str) -> tuple[tuple[_Simple, ...], ...]:
    """Compiled selector, one chain per alternative; cached, so never mutate it."""
    chains = []
    for alternative in selector.split(","):
        tokens = alternative.split()
        if not tokens:
            continue
        chains.append(tuple(_parse_compound(token) for token in tokens))
    if not chains:
        raise ValueError("empty selector")
    return tuple(chains)


def _matches_simple(el: Element, simple: _Simple) -> bool:
    if simple.tag is not None and el.tag != simple.tag:
        return False
    if simple.id is not None and el.attrs.get("id") != simple.id:
        return False
    if simple.classes and not simple.classes.issubset(el.classes):
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


def _chain_matches(el: Element, chain: tuple[_Simple, ...]) -> bool:
    if not _matches_simple(el, chain[-1]):
        return False
    node = el._parent()
    for simple in reversed(chain[:-1]):
        while node is not None and not _matches_simple(node, simple):
            node = node._parent()
        if node is None:
            return False
        node = node._parent()
    return True


class _TreeBuilder(HTMLParser):
    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.root = Element("[document]")
        self.stack = [self.root]
        # Open elements per tag name, so a stray end tag is dropped in O(1)
        # instead of scanning the whole stack.
        self.open_counts: dict[str, int] = {}

    def handle_starttag(self, tag, attrs):
        element = Element(tag, dict(attrs), parent=self.stack[-1])
        self.stack[-1].children.append(element)
        if tag not in VOID_TAGS:
            self.stack.append(element)
            self.open_counts[tag] = self.open_counts.get(tag, 0) + 1

    def handle_endtag(self, tag):
        if not self.open_counts.get(tag):
            return  # stray end tag: ignore
        # close everything above the nearest open element with this tag
        while True:
            closed = self.stack.pop().tag
            self.open_counts[closed] -= 1
            if closed == tag:
                return

    def parse_marked_section(self, i, report=1):
        # The stdlib asserts on an unknown ``<![keyword[``; HTML reads it
        # as a bogus comment.
        try:
            return super().parse_marked_section(i, report)
        except AssertionError:
            return self.parse_bogus_comment(i, report)

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
