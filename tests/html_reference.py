"""Reference readers for parity tests.

:func:`reference_parse` is the tree builder on the stdlib ``html.parser`` that
``tweetcheck.htmldoc`` used before it got a tokenizer of its own. It builds the
same :class:`~tweetcheck.htmldoc.Element` tree with the same recovery rules, so
the tests can compare the two trees node for node.

:func:`read_results_tree` is the results-page reader as a walk down a parsed
tree, which :func:`tweetcheck.adapters.read_results_page` was before it read
the page in one tokenizer pass with no tree.

:func:`outermost` keeps those of a list of matched elements that no other one
contains, as the tracker's card reader reads cards; it is the reference the
card reader is checked against.

:func:`reference_matches` is the supported selector subset as the Selectors
spec and the DOM define it, on compounds given as data rather than text.
"""

from html.parser import HTMLParser
from typing import Iterable, Mapping, Optional

from tweetcheck.htmldoc import VOID_TAGS, Element, matches, parse_selector


class _TreeBuilder(HTMLParser):
    def __init__(self):
        super().__init__(convert_charrefs=True)
        self.root = Element("[document]")
        self.stack = [self.root]
        self.open_counts: dict[str, int] = {}

    def handle_starttag(self, tag, attrs):
        element = Element(tag, dict(attrs))
        self.stack[-1].children.append(element)
        if tag not in VOID_TAGS:
            self.stack.append(element)
            self.open_counts[tag] = self.open_counts.get(tag, 0) + 1

    def handle_endtag(self, tag):
        if not self.open_counts.get(tag):
            return  # stray end tag: ignore
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


def reference_parse(text: str) -> Element:
    """The document root, as the stdlib-based builder parses ``text``."""
    builder = _TreeBuilder()
    builder.feed(text)
    builder.close()
    return builder.root


def shape(root: Element) -> list:
    """A comparable form of a tree: its nodes in document order as
    ``("open", tag, attrs)``, ``("text", text)`` and ``("close", tag)``.
    Adjacent text is merged, since how text is split into strings is not
    part of the tree's meaning. Walks an explicit stack, so deep trees need
    no recursion."""
    events: list = []
    stack: list = [root]
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            if events and events[-1][0] == "text":
                events[-1] = ("text", events[-1][1] + node)
            else:
                events.append(("text", node))
        elif isinstance(node, tuple):
            events.append(node)
        else:
            events.append(("open", node.tag, node.attrs))
            stack.append(("close", node.tag))
            stack.extend(reversed(node.children))
    return events


def read_results_tree(root: Element, selectors: Mapping[str, str]) -> tuple[list[Element], bool]:
    """In document order, the elements matching "results" that have an ancestor
    matching "scope" (with no "scope" key, all do) and neither match "ads" nor
    have an ancestor that does; and whether any element matches "captcha". One
    walk, carrying down whether it is in a scope or an ad: linear in the page."""
    keys = ("scope", "results", "ads", "captcha")
    scope, results, ads, captcha = (parse_selector(selectors[key]) if selectors.get(key) else () for key in keys)
    anchors: list[Element] = []
    challenge = False
    stack = [(child, not scope, False) for child in reversed(root.children) if isinstance(child, Element)]
    while stack:
        el, scoped, in_ad = stack.pop()
        in_ad = in_ad or matches(el.tag, el.attrs, ads)
        if scoped and not in_ad and matches(el.tag, el.attrs, results):
            anchors.append(el)
        challenge = challenge or matches(el.tag, el.attrs, captcha)
        scoped = scoped or matches(el.tag, el.attrs, scope)
        stack.extend([(child, scoped, in_ad) for child in reversed(el.children) if isinstance(child, Element)])
    return anchors, challenge


def outermost(elements: Iterable[Element]) -> list[Element]:
    """Those of ``elements``, given in document order, that no other one of them
    contains. The kept elements' subtrees are disjoint and each is walked once,
    so this takes time linear in the page however deeply the elements nest."""
    covered: set[int] = set()  # ids stay unique while the root keeps the tree alive
    kept = []
    for el in elements:
        if id(el) not in covered:
            kept.append(el)
            covered.update(map(id, el.iter()))
    return kept


#: HTML's ASCII whitespace, on which the DOM splits a class list.
ASCII_WHITESPACE = "\t\n\x0c\r "


def reference_matches(tag: str, attrs: Mapping[str, Optional[str]], compounds) -> bool:
    """Whether an element matches one of ``compounds``, each a tuple
    ``(tag, id, classes, attributes)`` of a compound selector's parts, where
    ``attributes`` holds ``(name, substring)`` pairs, the substring None for
    ``[name]``. ``attrs`` maps an attribute to its value, None for one written
    without a value, whose value in the DOM is the empty string. From the
    Selectors spec: a type selector compares the tag; ``#id`` the value of the
    id attribute; ``.c`` holds where ``c`` is one of the class attribute's
    tokens, split on ASCII whitespace; ``[name]`` holds where the attribute is
    present, whatever its value; and ``[name*=v]`` where its value contains
    ``v``, and never for an empty ``v``."""
    values = {name: value or "" for name, value in attrs.items()}
    class_list = values.get("class", "").translate({ord(c): " " for c in ASCII_WHITESPACE}).split(" ")
    for c_tag, c_id, c_classes, c_attrs in compounds:
        if (
            (c_tag is None or c_tag == tag)
            and (c_id is None or values.get("id") == c_id)
            and all(name in class_list for name in c_classes)
            and all(
                name in values and (sub is None or (sub != "" and sub in values[name]))
                for name, sub in c_attrs
            )
        ):
            return True
    return False
