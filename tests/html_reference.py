"""Reference tree builder on the stdlib ``html.parser``, for parity tests.

This is the builder ``tweetcheck.htmldoc`` used before it got a tokenizer of
its own. It builds the same :class:`~tweetcheck.htmldoc.Element` tree with the
same recovery rules, so the tests can compare the two trees node for node.
"""

from html.parser import HTMLParser

from tweetcheck.htmldoc import VOID_TAGS, Element


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
