"""HTML tokenizer, element tree and the small CSS-selector subset the scrapers need.

Pages are read by a tokenizer of this module's own (:func:`tokenize`), in
one pass:

* From each ``<`` it matches one construct: a start tag (attribute values
  quoted, bare or absent), an end tag, a comment, or other markup opened by
  ``<!``, ``<?`` or ``</`` (doctype, processing instruction, CDATA section,
  ``</ x>``), which ends at the first ``>`` as in HTML. Comments and such
  markup are skipped. A ``<`` that starts none of these is text.
* Tag and attribute names are lowercased. A valueless attribute is None; of
  duplicate attributes the last wins.
* The content of ``<script>`` and ``<style>`` is raw text up to the
  element's end tag (its name followed by a space, ``/`` or ``>``): no tag
  or character reference in it is read.
* Character references (``&amp;``, ``&#8217;``) in text and attribute values
  are decoded by :func:`unescape`, which is :func:`html.unescape` for a
  decimal reference of any length, except that in an attribute value a
  named reference without its ``;`` stays literal when ``=`` or an ASCII
  letter or digit follows it, as in HTML: ``href="?a=1&copy=2"`` keeps its
  ``copy`` parameter.
* A quote that is never closed opens no attribute value, as in
  :mod:`html.parser`: its attribute has no value, and the ``=`` after the
  name starts the next attribute's name if whitespace, a slash or a quote
  comes before it (``<div x' ='>`` has the attributes ``x'`` and ``='``),
  and otherwise leaves the tag unterminated (``<a title="x>``).
* A construct left open at the end of the input runs to the end: an
  unterminated comment or raw-text element takes the rest of the input,
  and an unterminated tag is dropped with the rest, as browsers do.

Every construct ends at its terminator or at the end of the input, and only
the last ``'`` and the last ``"`` of a page can be an unclosed quote, each
scanned to the end at most twice, so parsing takes time linear in the
input whatever the page holds.

Unclosed tags are recovered from without a full HTML5 tree builder, which
handles the result pages and article pages this package scrapes. Void
elements (``<br>``, ``<img>``) and self-closing tags (``<div/>``) take no
children. An end tag closes the nearest open element of its name and every
element opened inside it; an end tag with no open element of its name is
ignored. The tokenizer applies these rules itself, and :func:`parse_html`
builds a tree from what it reports. Search results and tracker pages are read
in the same one pass with no tree (:mod:`tweetcheck.adapters`): whether an
element matches a compound is known at its start tag. Articles are parsed
into a tree, since their scrapers look inside the elements they find.

Supported selector syntax, which is what the per-engine and per-publisher
selector constants use:

* comma-separated alternatives: ``h2, h3``
* compound selectors, read as CSS reads them: tag name, ``#id``, ``.class``
  (repeatable; a class list splits on ASCII whitespace only), ``[attr]``
  (present, with a value or none), ``[attr*=v]`` (``v`` not empty)

A selector compiles to plain data, a ``(tag, id, classes, attributes)`` tuple
per alternative, and is matched in one walk down the subtree it is called on,
so matching takes time linear in the page however deeply it nests.

A tree points only down: an element holds its children and no link back
up. So a tree holds no reference cycle and is freed the moment its root is
dropped, without waiting for the cycle collector, and whatever needs to
know what contains what works it out from the root down.
"""

from __future__ import annotations

import html
import re
from collections.abc import Callable, Iterator, Mapping
from functools import lru_cache
from html.entities import html5

from .errors import ParseError
from .fetch import FetchResponse

VOID_TAGS = frozenset(
    "area base br col embed hr img input link meta param source track wbr".split()
)

#: One part of a compound selector: a tag, ``#id``, ``.class``, ``[attr]`` or ``[attr*="value"]``.
_PART_RE = re.compile(
    r"([\w:-]+)|#([\w:-]+)|\.([\w:-]+)|\[\s*([\w:-]+)\s*(?:\*=\s*\"?([^\"\]]*?)\"?\s*)?\]"
)
_CLASS_SEP = re.compile(r"[ \t\n\f\r]+")  # HTML's ASCII whitespace, which alone separates classes


class Element:
    """One HTML element: tag, attributes, and mixed text/element children."""

    __slots__ = ("tag", "attrs", "children")

    def __init__(self, tag: str, attrs: dict[str, str] | None = None):
        self.tag = tag
        self.attrs = attrs or {}
        self.children: list[Element | str] = []

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

    def text(self, breaks: frozenset[str] = frozenset()) -> str:
        """Concatenated text of all descendants, entities already decoded.

        Where a descendant's tag is in ``breaks``, its start and its end each
        read as a line break, so the text of one block does not run on into
        the next.
        """
        parts: list[str] = []
        stack: list[Element | str] = list(reversed(self.children))
        while stack:
            node = stack.pop()
            if isinstance(node, str):
                parts.append(node)
            elif node.tag in breaks:
                stack += ("\n", *reversed(node.children), "\n")
            else:
                stack.extend(reversed(node.children))
        return "".join(parts)

    def _matching(self, selector: str) -> Iterator["Element"]:
        compounds = parse_selector(selector)
        return (el for el in self.iter() if matches(el.tag, el.attrs, compounds))

    def select(self, selector: str) -> list["Element"]:
        """Elements under this one matching the selector, in document order."""
        return list(self._matching(selector))

    def select_one(self, selector: str) -> Element | None:
        """The first element :meth:`select` would return, without finding the rest."""
        return next(self._matching(selector), None)


def _parse_compound(token: str) -> tuple:
    tag = None
    id_ = None
    classes: list[str] = []
    attrs: list[tuple[str, str | None]] = []
    pos = 0
    for m in _PART_RE.finditer(token):
        if m.start() != pos:
            raise ValueError(f"unsupported selector syntax: {token!r}")
        pos = m.end()
        if m.group(1):
            if tag is not None:
                raise ValueError(f"two tag names in selector: {token!r}")
            tag = m.group(1).lower()
        elif m.group(2):
            id_ = m.group(2)
        elif m.group(3):
            classes.append(m.group(3))
        elif m.group(5) == "":
            raise ValueError(f"empty substring in selector: {token!r}")  # CSS matches nothing with it
        else:
            attrs.append((m.group(4).lower(), m.group(5)))
    if pos != len(token):
        raise ValueError(f"unsupported selector syntax: {token!r}")
    return tag, id_, frozenset(classes), tuple(attrs)


@lru_cache(maxsize=256)
def parse_selector(selector: str) -> tuple[tuple, ...]:
    """Compiled selector: a ``(tag, id, classes, attributes)`` tuple per alternative, the
    tag lowercased or None, the id or None, the classes a frozenset, the attributes
    ``(name, substring)`` pairs, the substring None for ``[name]``. A descendant chain
    (compounds separated by whitespace) is unsupported syntax."""
    alternatives = [alternative.strip() for alternative in selector.split(",")]
    compounds = tuple(_parse_compound(alternative) for alternative in alternatives if alternative)
    if not compounds:
        raise ValueError("empty selector")
    return compounds


def matches(tag: str, attrs: Mapping[str, str | None], compounds: tuple[tuple, ...]) -> bool:
    """Whether an element with this tag and these attributes matches one of a
    compiled selector's compounds (see :func:`parse_selector`)."""
    for c_tag, c_id, c_classes, c_attrs in compounds:
        if c_tag is not None and tag != c_tag:
            continue
        if c_id is not None and attrs.get("id") != c_id:
            continue
        if c_classes and not c_classes.issubset(_CLASS_SEP.split(attrs.get("class") or "")):
            continue
        for name, contained in c_attrs:
            # presence alone for [attr]; contained is never "", so no valueless attribute holds it
            if name not in attrs or (contained is not None and contained not in (attrs[name] or "")):
                break
        else:
            return True
    return False


# One pattern per construct, tried at each "<" (a "<" that starts none is
# text). Each construct ends at its terminator or, if that never comes, at the
# end of the input, so no alternative fails once its first characters have
# matched: the search never rescans, and a page parses in linear time. The
# tag and attribute grammar is html.parser's. The patterns keep to Python 3.10
# syntax: no possessive quantifiers, no atomic groups.
_TAG_NAME = r"[a-zA-Z][^\t\n\r\f />\x00]*"
# One attribute: a name, then "=" and a value single-quoted, double-quoted or
# bare, if it has one. A quote that is never closed opens no value; the "="
# before it is left over, and starts the next attribute's name only after
# whitespace, a slash or a quote, as html.parser reads it (only a left-over
# "=" can follow a name directly, so no other name start needs the check).
# Only the last quote of each kind in a page can be unclosed, and at most two
# tries reach it (a name's, then a left-over "="'s), so its scans cost O(n).
_ATTR = r"""[\s/]*((?:[^\s/>=]|=(?<=['"\s/]=))[^\s/=>]*)(?:\s*(=)=*\s*(?:'([^']*)'|"([^"]*)"|([^'"\s>][^\s>]*)|(?!['"])))?"""
_TAG_ATTR_RE = re.compile(_ATTR)
# The same without capturing groups, which cost time in a repeat.
_ATTR_UNGROUPED = _ATTR.replace("(", "(?:").replace("(?:?", "(?")
_MARKUP_RE = re.compile(
    "<(?:"
    # start tag: name, attributes, "/" if self-closing, and ">"; or, unterminated,
    # the end of the input or the "=" before a quote that is never closed
    rf"({_TAG_NAME})((?:{_ATTR_UNGROUPED})*)[\s/]*?(/?)(>|\Z|(?==))"
    # end tag: name, and ">" unless unterminated; anything after the name is ignored
    rf"|/({_TAG_NAME})[^>]*(>|\Z)"
    r"|!--.*?(?:--\s*>|\Z)"  # comment
    r"|[!?/][^>]*>?"  # doctype, processing instruction, CDATA, bogus comment
    ")",
    re.DOTALL,
)
# Where the text of a raw-text element ends: its end tag.
_RAW_TEXT_END = {
    tag: re.compile(rf"</{tag}[\s/>]", re.IGNORECASE) for tag in ("script", "style")
}


# html.unescape reads a decimal reference's digits with int(), which refuses over
# 4,300 of them. In a reference of 8 digits or more, leading zeros are dropped, and
# a value past U+10FFFF becomes U+10FFFF + 1, which reads as U+FFFD as they all do.
_LONG_DECIMAL = re.compile(r"&#(?=[0-9]{8})0*([0-9]+)")


def unescape(text: str) -> str:
    """``text`` with its character references decoded as :func:`html.unescape`
    decodes them, a decimal reference of any length among them."""
    if "&#" in text:
        text = _LONG_DECIMAL.sub(lambda m: "&#" + (m[1] if len(m[1]) <= 7 else "1114112"), text)
    return html.unescape(text)


# A character reference as html.unescape finds one: numeric, or a name of at
# most 32 characters.
_CHARREF_RE = re.compile(r"&(#[0-9]+;?|#[xX][0-9a-fA-F]+;?|[^\t\n\f <&#;]{1,32};?)")


def _attribute_reference(m: re.Match) -> str:
    """One character reference in an attribute value, decoded as HTML does there."""
    name = m.group(1)
    if not name.startswith("#") and name not in html5:
        # html.unescape would decode the longest reference the name starts
        # with; in an attribute, HTML keeps it literal before "=" or [A-Za-z0-9].
        for end in range(len(name) - 1, 1, -1):
            if name[:end] in html5:
                follow = name[end]
                if follow == "=" or (follow.isascii() and follow.isalnum()):
                    return m.group(0)
                break
    return unescape(m.group(0))


def _attributes(text: str) -> dict[str, str | None]:
    attrs: dict[str, str | None] = {}
    for name, equals, single, double, bare in _TAG_ATTR_RE.findall(text):
        if equals:
            value = single or double or bare
            attrs[name.lower()] = _CHARREF_RE.sub(_attribute_reference, value) if "&" in value else value
        else:
            attrs[name.lower()] = None
    return attrs


def tokenize(text: str, document: object, open_element: Callable[[object, str, dict], object],
             add_text: Callable[[object, str], object]) -> None:
    """Read ``text`` in one pass, telling the caller what it holds in document
    order. Each open element has a state: ``document`` for the document, and
    for an element the value ``open_element(parent_state, tag, attributes)``
    returns when its start tag is read. A void or self-closing element opens
    nothing, so what it returns is dropped. Each run of text, character
    references decoded, goes to ``add_text(state, text)`` with the state of
    the innermost open element; the content of a raw-text element is one run.
    End tags close elements by the rules in the module docstring."""
    states = [document]
    open_tags: list[str] = []
    # Open elements per tag name, so a stray end tag is dropped in O(1)
    # instead of scanning the whole stack.
    open_counts: dict[str, int] = {}
    search = _MARKUP_RE.search
    pos = 0
    end = len(text)
    while pos < end:
        m = search(text, pos)
        if m is None:
            break
        start = m.start()
        if start > pos:
            data = text[pos:start]
            add_text(states[-1], unescape(data) if "&" in data else data)
        pos = m.end()
        name, attrs, slash, closed, end_name, end_closed = m.groups()
        if name is not None:
            if not closed:
                return  # unterminated start tag: dropped with the rest, as browsers do
            tag = name.lower()
            state = open_element(states[-1], tag, _attributes(attrs) if attrs else {})
            if slash or tag in VOID_TAGS:
                continue
            states.append(state)
            open_tags.append(tag)
            open_counts[tag] = open_counts.get(tag, 0) + 1
            raw_end = _RAW_TEXT_END.get(tag)
            if raw_end is not None:
                found = raw_end.search(text, pos)
                raw_stop = end if found is None else found.start()
                if raw_stop > pos:
                    add_text(state, text[pos:raw_stop])
                pos = raw_stop
        elif end_name is not None:
            tag = end_name.lower()
            if not end_closed or not open_counts.get(tag):
                continue  # unterminated or stray end tag: ignore
            # close everything above the nearest open element with this tag
            while True:
                states.pop()
                closed_tag = open_tags.pop()
                open_counts[closed_tag] -= 1
                if closed_tag == tag:
                    break
    if pos < end:
        data = text[pos:]
        add_text(states[-1], unescape(data) if "&" in data else data)


_new_object = object.__new__


def _add_element(children: list, tag: str, attrs: dict) -> list:
    # the fields are set here rather than by Element(tag, attrs), whose
    # __init__ would be a second Python call for every element of a page
    element = _new_object(Element)
    element.tag = tag
    element.attrs = attrs
    element.children = []
    children.append(element)
    return element.children


def parse_html(text: str) -> Element:
    """Parse HTML text into an element tree; returns the document root."""
    root = Element("[document]")
    tokenize(text, root.children, _add_element, list.append)
    return root


_WS_RUN = re.compile(r"\s+")


def collapse_whitespace(text: str) -> str:
    """``text`` with each run of whitespace made one space, ends trimmed."""
    return _WS_RUN.sub(" ", text).strip()


_CHARSET_RE = re.compile(r'charset="?([\w.-]+)', re.IGNORECASE)  # quoted or not (RFC 9110 §8.3.1)
_SURROGATE = re.compile("[\ud800-\udfff]")
_HTMLISH_CT = re.compile(r"(^text/|html|xml)", re.IGNORECASE)


def decode_body(response: FetchResponse) -> str:
    """The body as text in the charset its Content-Type names (UTF-8 if none or
    unknown). What cannot be decoded becomes U+FFFD, and so does each surrogate
    a codec such as ``unicode_escape`` or ``utf-7`` decodes: no later step could
    encode one. UTF-8 decodes none, so its text is not searched for one."""
    m = _CHARSET_RE.search(response.content_type)
    charset = m.group(1) if m else "utf-8"
    try:
        text = response.body.decode(charset, errors="replace")
    except (LookupError, UnicodeError):  # unknown charset, or one that cannot replace (idna)
        text = response.body.decode("utf-8", errors="replace")
    if text.isascii() or charset.lower() in ("utf-8", "utf8"):
        return text
    return _SURROGATE.sub("\ufffd", text)


def page_text(response: FetchResponse) -> str:
    """A fetched page's decoded text, or raise :class:`ParseError` if it is not HTML."""
    ct = response.content_type.split(";")[0].strip()
    if ct and not _HTMLISH_CT.search(ct):
        raise ParseError(f"{response.final_url}: not an HTML page ({ct})")
    return decode_body(response)
