import re
from urllib.parse import unquote, unquote_plus

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tweetcheck.adapters import ENGINES
from tweetcheck.model import SourceId, TweetClaim
from tweetcheck.queries import (
    Encoding,
    QuerySpec,
    Truncation,
    build_query,
    encode_query,
    truncate_body,
)

from conftest import JOBS_BODY

POLITWOOPS_SPEC = ENGINES[SourceId.POLITWOOPS].spec
SNOPES_SPEC = ENGINES[SourceId.SNOPES_SEARCH].spec


def _is_space(ch: str) -> bool:
    return re.fullmatch(r"\s", ch) is not None


def oracle_word_truncate(body: str, limit: int) -> str:
    """Enumerate every whitespace-delimited prefix, pick the longest that fits."""
    prefixes = []
    for i in range(1, len(body) + 1):
        ends_word = not _is_space(body[i - 1]) and (i == len(body) or _is_space(body[i]))
        if ends_word:
            prefixes.append(body[:i])
    fitting = [p for p in prefixes if len(p) <= limit]
    return max(fitting, key=len) if fitting else body[:limit]


class TestTruncateBody:
    def test_jobs_tweet_50_char_prefix(self):
        assert truncate_body(JOBS_BODY, POLITWOOPS_SPEC) == (
            "The jobs report shows unemployment down to 3.5%, t"
        )

    def test_short_body_unchanged(self):
        assert truncate_body("hi", POLITWOOPS_SPEC) == "hi"

    def test_word_boundary_prefix_matches_enumeration_oracle(self):
        body = (
            "Measured words add up slowly until the limit cuts the sentence at "
            "a boundary somewhere near one hundred characters in total length"
        )
        assert len(body) == 130
        spec = QuerySpec(100, Encoding.PERCENT, Truncation.WORD_BOUNDARY_PREFIX)
        assert truncate_body(body, spec) == oracle_word_truncate(body, 100)

    def test_first_word_longer_than_limit_falls_back_to_chars(self):
        body = "x" * 40 + " tail"
        spec = QuerySpec(20, Encoding.PERCENT, Truncation.WORD_BOUNDARY_PREFIX)
        assert truncate_body(body, spec) == "x" * 20

    @given(st.text(min_size=1, max_size=400))
    def test_char_prefix_properties(self, body):
        result = truncate_body(body, POLITWOOPS_SPEC)
        assert len(result) <= POLITWOOPS_SPEC.max_chars
        assert body.startswith(result)
        assert truncate_body(result, POLITWOOPS_SPEC) == result

    @given(st.text(min_size=1, max_size=400))
    def test_word_boundary_properties(self, body):
        spec = QuerySpec(37, Encoding.PERCENT, Truncation.WORD_BOUNDARY_PREFIX)
        result = truncate_body(body, spec)
        assert len(result) <= spec.max_chars
        assert body.startswith(result)
        assert result != ""
        assert truncate_body(result, spec) == result
        assert result == oracle_word_truncate(body, 37)


class TestEncodeQuery:
    def test_plus_encoding_of_prefix_tail(self):
        assert encode_query("3.5%, t", Encoding.PLUS) == "3.5%25%2C+t"

    @pytest.mark.parametrize("encoding", [Encoding.PLUS, Encoding.PERCENT])
    def test_plain_ascii_passthrough(self, encoding):
        assert encode_query("abc", encoding) == "abc"

    def test_percent_encoding_spaces_and_reserved(self):
        encoded = encode_query("a b&c", Encoding.PERCENT)
        assert encoded == "a%20b%26c"
        assert unquote(encoded) == "a b&c"

    def test_plus_encoding_space_becomes_plus(self):
        assert encode_query("a b", Encoding.PLUS) == "a+b"

    @given(st.text(max_size=200))
    def test_round_trips(self, text):
        assert unquote_plus(encode_query(text, Encoding.PLUS)) == text
        assert unquote(encode_query(text, Encoding.PERCENT)) == text

    @given(st.text(max_size=200))
    def test_output_is_ascii(self, text):
        encode_query(text, Encoding.PLUS).encode("ascii")
        encode_query(text, Encoding.PERCENT).encode("ascii")


class TestBuildQuery:
    def test_site_filter_appended_outside_length_budget(self):
        claim = TweetClaim(body="word " * 60)
        spec = ENGINES[SourceId.WEB_SEARCH_SITE_SNOPES].spec
        query = build_query(claim, spec)
        assert query.endswith(" site:snopes.com")
        assert len(query.removesuffix(" site:snopes.com")) <= spec.max_chars

    def test_single_word_no_filter(self):
        assert build_query(TweetClaim(body="x"), SNOPES_SPEC) == "x"

    def test_snopes_length_restriction(self):
        body = "word " * 50  # 250 characters
        query = build_query(TweetClaim(body=body), SNOPES_SPEC)
        assert query == oracle_word_truncate(body, SNOPES_SPEC.max_chars)

    def test_newlines_replaced(self):
        claim = TweetClaim(body="line one\nline two\r\nthree")
        query = build_query(claim, SNOPES_SPEC)
        assert "\n" not in query and "\r" not in query
        assert query == "line one line two  three"

    @given(st.text(min_size=1, max_size=500).filter(lambda s: s.strip()))
    def test_never_emits_control_characters(self, body):
        query = build_query(TweetClaim(body=body), SNOPES_SPEC)
        assert not re.search(r"[\x00-\x1f\x7f]", query)


class TestQuerySpec:
    def test_minimum_length_enforced(self):
        with pytest.raises(ValueError):
            QuerySpec(9, Encoding.PERCENT, Truncation.CHAR_PREFIX)

    def test_defaults_exist_for_every_source(self):
        assert all(isinstance(ENGINES[source].spec, QuerySpec) for source in SourceId)
