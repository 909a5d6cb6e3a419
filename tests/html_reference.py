"""Reference readers for parity tests.

:func:`reference_parse` is the tree builder on the stdlib ``html.parser`` that
``tweetcheck.htmldoc`` used before it got a tokenizer of its own. It builds the
same :class:`~tweetcheck.htmldoc.Element` tree with the same recovery rules, so
the tests can compare the two trees node for node.

:func:`read_results_tree` is the results-page reader as a walk down a parsed
tree, which :func:`tweetcheck.adapters.read_results_page` was before it read
the page in one tokenizer pass with no tree.
"""

from html.parser import HTMLParser
from typing import Mapping

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
