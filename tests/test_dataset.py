import codecs

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tweetcheck.dataset import (
    GroundTruthRecord,
    load_dataset,
    load_shipped_dataset,
    parse_dataset,
    record_problems,
    serialize_dataset,
    shipped_dataset_path,
    validate_dataset,
)
from tweetcheck.errors import FormatError, ValidationError

HEADER = "# id\tauthentic\ttweet_body\tsnopes_url\tlive_url\tarchived_url\treuters_url\n"


def make_record(ident="r1", authentic=False, **overrides) -> GroundTruthRecord:
    fields = dict(
        id=ident,
        tweet_body="an alleged tweet",
        snopes_url=f"https://www.snopes.com/fact-check/{ident}/",
        authentic=authentic,
    )
    if authentic:
        fields["live_url"] = f"https://twitter.com/x/status/{ident}"
        fields["archived_url"] = f"https://web.archive.org/web/2020/{ident}"
    fields.update(overrides)
    return GroundTruthRecord(**fields)


class TestShippedCorpus:
    def test_thirty_records_split_evenly(self):
        records = load_shipped_dataset()
        assert len(records) == 30
        assert sum(1 for r in records if r.authentic) == 15
        assert sum(1 for r in records if not r.authentic) == 15

    def test_validator_issues_empty_report(self):
        assert validate_dataset(load_shipped_dataset()) == []

    def test_order_preserved(self):
        records = load_shipped_dataset()
        assert [r.id for r in records[:3]] == ["f01", "f02", "f03"]
        assert records[-1].id == "a15"

    def test_loadable_from_path(self):
        assert len(load_dataset(shipped_dataset_path())) == 30

    def test_overlap_column_present_on_anchor_record(self):
        records = {r.id: r for r in load_shipped_dataset()}
        assert records["f01"].reuters_url is not None
        assert "idUSKCN2242AK" in records["f01"].reuters_url


class TestParsing:
    def test_header_only_file_is_empty(self, tmp_path):
        path = tmp_path / "empty.tsv"
        path.write_text(HEADER, encoding="utf-8")
        assert load_dataset(path) == []

    def test_a_leading_byte_order_mark_is_skipped(self, tmp_path):
        path = tmp_path / "bom.tsv"
        path.write_bytes(codecs.BOM_UTF8 + shipped_dataset_path().read_bytes())
        assert load_dataset(path) == load_shipped_dataset()

    def test_a_bad_byte_after_a_byte_order_mark_names_its_line(self, tmp_path):
        path = tmp_path / "bom.tsv"
        # the bad byte opens line 2: an offset counted from after the mark would fall on line 1
        row = b"\xe91\tfalse\tbody\thttps://www.snopes.com/fact-check/r1/\t-\t-\t-\n"
        path.write_bytes(codecs.BOM_UTF8 + HEADER.encode() + row)
        with pytest.raises(FormatError) as exc:
            load_dataset(path)
        assert exc.value.line_no == 2

    def test_six_field_rows_accepted(self):
        line = "x1\tfalse\tbody text\thttps://www.snopes.com/fact-check/x1/\t-\t-"
        records = parse_dataset(HEADER + line + "\n")
        assert records[0].reuters_url is None

    def test_wrong_field_count_reports_line(self):
        with pytest.raises(FormatError) as exc:
            parse_dataset(HEADER + "x1\tfalse\tbody\n")
        assert exc.value.line_no == 2

    def test_bad_authentic_value_reports_field(self):
        line = "x1\tmaybe\tbody\thttps://www.snopes.com/fact-check/x1/\t-\t-\t-"
        with pytest.raises(FormatError) as exc:
            parse_dataset(HEADER + line + "\n")
        assert exc.value.field == "authentic"

    def test_invalid_escape_rejected(self):
        line = "x1\tfalse\tbad \\x escape\thttps://www.snopes.com/fact-check/x1/\t-\t-\t-"
        with pytest.raises(FormatError) as exc:
            parse_dataset(HEADER + line + "\n")
        assert exc.value.field == "tweet_body"

    @pytest.mark.parametrize(
        "cells, field, message",
        [
            (["", "maybe", "\\x"], "id", "must be non-empty"),
            (["x1", "maybe", "\\x"], "authentic", "expected true/false, got 'maybe'"),
            (["x1", "true", "\\x"], "tweet_body", "invalid escape at offset 0"),
        ],
    )
    def test_first_bad_column_names_the_field(self, cells, field, message):
        line = "\t".join([*cells, "https://www.snopes.com/fact-check/x1/", "-", "-", "-"])
        with pytest.raises(FormatError) as exc:
            parse_dataset(HEADER + line + "\n")
        assert (exc.value.field, str(exc.value)) == (field, f"line 2, field {field}: {message}")

    def test_authentic_without_archive_names_the_record(self):
        line = (
            "bad7\ttrue\tbody\thttps://www.snopes.com/fact-check/bad7/\t"
            "https://twitter.com/x/status/1\t-\t-"
        )
        with pytest.raises(ValidationError) as exc:
            parse_dataset(HEADER + line + "\n")
        assert exc.value.record_id == "bad7"
        assert "archived_url" in str(exc.value)

    def test_first_record_with_findings_raises_with_all_of_them(self):
        first, repeat = make_record("r1"), make_record("r1", tweet_body=" ")
        text = serialize_dataset([first, make_record("r2"), repeat, make_record("r2")])
        with pytest.raises(ValidationError) as exc:
            parse_dataset(text)
        assert str(exc.value) == (
            "record r1: tweet_body is empty; duplicate record id; "
            "duplicate snopes_url (also on r1): /fact-check/r1"
        )
        assert [(f.record_id, f.message) for f in validate_dataset(parse_dataset(text, validate=False))] == [
            ("r1", "tweet_body is empty"),
            ("r1", "duplicate record id"),
            ("r1", "duplicate snopes_url (also on r1): /fact-check/r1"),
            ("r2", "duplicate record id"),
            ("r2", "duplicate snopes_url (also on r2): /fact-check/r2"),
        ]

    def test_findings_and_format_errors_raise_in_line_order(self):
        duplicate = serialize_dataset([make_record("r1"), make_record("r1")])
        with pytest.raises(ValidationError):
            parse_dataset(duplicate + "x1\tfalse\tbody\n")
        with pytest.raises(FormatError):
            parse_dataset(HEADER + "x1\tfalse\tbody\n" + duplicate)

    def test_validate_false_defers_invariants(self):
        line = "bad8\ttrue\tbody\thttps://www.snopes.com/fact-check/bad8/\t-\t-\t-"
        records = parse_dataset(HEADER + line + "\n", validate=False)
        assert len(records) == 1
        assert record_problems(records[0])


class TestRecordProblems:
    def test_well_formed_records_pass(self):
        assert record_problems(make_record(authentic=True)) == []
        assert record_problems(make_record(authentic=False)) == []

    def test_blank_body_is_a_breach(self):
        record = make_record(tweet_body="   ")
        assert any("tweet_body" in p for p in record_problems(record))

    def test_off_host_article_url_is_a_breach(self):
        record = make_record(snopes_url="https://example.com/fact-check/x/")
        assert any("snopes_url" in p for p in record_problems(record))

    def test_fabricated_with_live_url_is_a_breach(self):
        record = make_record(live_url="https://twitter.com/x/status/1")
        assert any("fabricated" in p for p in record_problems(record))


class TestValidateDataset:
    def test_duplicate_ids_reported(self):
        records = [make_record("dup"), make_record("dup")]
        findings = validate_dataset(records)
        assert any("duplicate record id" in f.message for f in findings)

    def test_duplicate_canonical_urls_reported(self):
        records = [
            make_record("u1", snopes_url="https://www.snopes.com/fact-check/same/"),
            make_record("u2", snopes_url="http://snopes.com/fact-check/same"),
        ]
        findings = validate_dataset(records)
        assert any("duplicate snopes_url" in f.message and f.record_id == "u2" for f in findings)

    def test_breaches_included(self):
        findings = validate_dataset([make_record(tweet_body=" ")])
        assert findings


# "#" and tab: an id the reader would lose, which the writer must refuse
_ident = st.text(alphabet="abcdefghij0123456789-#\t", min_size=1, max_size=8)
_slug = st.text(alphabet="abcdefghij0123456789-", min_size=1, max_size=12)
# The characters the escape code branches on (backslash, tab, LF, CR), the
# letters that follow a backslash in an escape, the other Unicode line breaks
# and non-ASCII text. An explicit alphabet is cheap to draw, also in a fresh
# checkout where hypothesis has not yet built its character tables.
_body = st.text("a Z0\\ntr\t\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029é中\U0001f642", max_size=80).filter(
    lambda s: s.strip()
)


# Any field's text, built of what the file marks absent, comments out, escapes
# or splits on, the line breaks it does not split on, and text.
_field = st.text("-#\\\t\n\r x\x0b\x1c\x85\u2028é", max_size=6)


@st.composite
def _records(draw):
    authentic = draw(st.booleans())
    ident = draw(_ident)
    live = archived = None
    if authentic:
        live = f"https://twitter.com/x/status/{draw(_slug)}"
        archived = f"https://web.archive.org/web/2020/{draw(_slug)}"
    return GroundTruthRecord(
        id=ident,
        tweet_body=draw(_body),
        snopes_url=f"https://www.snopes.com/fact-check/{draw(_slug)}/",
        authentic=authentic,
        live_url=live,
        archived_url=archived,
        reuters_url=draw(st.none() | st.just("https://www.reuters.com/article/idUSX1")),
    )


class TestRoundTrip:
    # ids and articles unique: parse_dataset rejects a repeated one
    @given(st.lists(_records(), max_size=8, unique_by=(lambda r: r.id, lambda r: r.snopes_url)))
    def test_parse_after_serialize_is_identity(self, records):
        try:
            text = serialize_dataset(records)
        except ValueError:
            assert any(r.id.startswith("#") or "\t" in r.id for r in records)
        else:
            assert parse_dataset(text) == records

    def test_no_records_is_the_header_alone(self):
        assert serialize_dataset([]) == HEADER

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("id", "#r1", "a leading '#' would make its row a comment: '#r1'"),
            ("id", "r\t1", "a tab or line feed would break its row: 'r\\t1'"),
            ("snopes_url", "https://www.snopes.com/\n", "a tab or line feed would break its row: 'https://www.snopes.com/\\n'"),
            ("live_url", "a\tb", "a tab or line feed would break its row: 'a\\tb'"),
            ("live_url", "", "'' would read back as no URL"),
            ("archived_url", "-", "'-' would read back as no URL"),
            ("reuters_url", "x\r", "a trailing CR would read back as the line's end: 'x\\r'"),
        ],
    )
    def test_a_record_the_reader_would_lose_is_refused(self, field, value, message):
        record = make_record("r1").replace(**{field: value})
        with pytest.raises(ValueError) as exc:
            serialize_dataset([make_record("r0"), record])
        assert str(exc.value) == f"record {record.id!r}, field {field}: {message}"

    @given(st.builds(
        GroundTruthRecord, id=_field, tweet_body=_field, snopes_url=_field, authentic=st.booleans(),
        live_url=st.none() | _field, archived_url=st.none() | _field, reuters_url=st.none() | _field,
    ))
    def test_a_record_is_refused_or_reads_back_equal(self, record):
        try:
            text = serialize_dataset([record])
        except ValueError:
            return
        assert parse_dataset(text, validate=False) == [record]

    def test_a_carriage_return_inside_a_row_round_trips(self):
        record = make_record("r\r1", snopes_url="https://www.snopes.com/fact-check/r1/\r", archived_url="x\r")
        assert parse_dataset(serialize_dataset([record]), validate=False) == [record]

    def test_bodies_with_tabs_newlines_backslashes(self):
        tricky = make_record(tweet_body="a\tb\nc\rd\\e \\n literal")
        assert parse_dataset(serialize_dataset([tricky])) == [tricky]

    def test_shipped_corpus_round_trips(self):
        records = load_shipped_dataset()
        assert parse_dataset(serialize_dataset(records)) == records


class TestEscapes:
    @pytest.mark.parametrize("char, escape", [("\\", "\\\\"), ("\t", "\\t"), ("\n", "\\n"), ("\r", "\\r")])
    @pytest.mark.parametrize("run", [1, 3])
    def test_each_escaped_character_round_trips_alone_and_in_runs(self, char, escape, run):
        record = make_record(tweet_body=f"a{char * run}b")
        text = serialize_dataset([record])
        assert text.split("\n")[1].split("\t")[2] == f"a{escape * run}b"
        assert parse_dataset(text) == [record]

    @pytest.mark.parametrize(
        "body, offset",
        [("trailing \\", 9), ("bad \\x escape", 4), ("before a \\\r raw CR", 9)],
    )
    def test_invalid_escape_names_its_offset(self, body, offset):
        line = f"x1\tfalse\t{body}\thttps://www.snopes.com/fact-check/x1/\t-\t-\t-"
        with pytest.raises(FormatError) as exc:
            parse_dataset(HEADER + line + "\n")
        assert exc.value.field == "tweet_body"
        assert str(exc.value) == f"line 2, field tweet_body: invalid escape at offset {offset}"

    def test_an_escaped_backslash_before_t_is_a_backslash_and_t(self):
        line = "x1\tfalse\ta\\\\tb\thttps://www.snopes.com/fact-check/x1/\t-\t-\t-"
        assert parse_dataset(HEADER + line + "\n")[0].tweet_body == "a\\tb"
