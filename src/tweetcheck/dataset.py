"""Ground-truth corpus of tweets with known fact-check coverage.

File format, declared once in ``_COLUMNS``: UTF-8 text, one record per line,
tab-separated fields in the order (id, authentic, tweet_body, snopes_url,
live_url, archived_url, reuters_url), "-" for an absent optional. The tweet
body escapes backslash, tab, LF and CR (\\\\, \\t, \\n, \\r; ``_ESCAPES``), so a
record stays on one line. Lines starting with "#" and blank lines are
ignored. The trailing reuters_url column is optional on read and backs the
Reuters overlap evaluation; 6-field rows are accepted.
"""

from __future__ import annotations

import codecs
import re
from pathlib import Path
from collections.abc import Iterable, Iterator

from .errors import DatasetError, FormatError, ValidationError
from .model import Record, TweetClaim
from .urls import PUBLISHERS, article_publisher, canonicalize_article_url, host_and_path


class GroundTruthRecord(Record):
    """One corpus row: an alleged tweet with its known fact-check article."""

    id: str
    tweet_body: str
    snopes_url: str
    authentic: bool
    live_url: str | None = None
    archived_url: str | None = None
    reuters_url: str | None = None


class ValidationFinding(Record):
    record_id: str
    message: str


#: The characters a tweet body escapes, each by the letter after its backslash.
_ESCAPES = {"\\": "\\", "t": "\t", "n": "\n", "r": "\r"}
_ESCAPE_TABLE = str.maketrans({char: "\\" + letter for letter, char in _ESCAPES.items()})
_ESCAPE_SEQUENCE = re.compile(r"\\(.?)", re.DOTALL)


def _unescape(match: re.Match) -> str:
    if match[1] not in _ESCAPES:
        raise ValueError(f"invalid escape at offset {match.start()}")
    return _ESCAPES[match[1]]


_FLAGS = ("false", "true")  # indexed by the flag
_ABSENT = "-"


def _text(text: str) -> str:
    """A field's text, read or written: refused where it would break its row."""
    if "\t" in text or "\n" in text:
        raise ValueError(f"a tab or line feed would break its row: {text!r}")
    return text


def _id(text: str) -> str:
    if not text:
        raise ValueError("must be non-empty")
    if text.startswith("#"):
        raise ValueError(f"a leading '#' would make its row a comment: {text!r}")
    return _text(text)


def _write_url(url: str | None) -> str:
    """An optional URL's text, "-" when it is absent; "" and "-" would read back absent."""
    if url in ("", _ABSENT):
        raise ValueError(f"{url!r} would read back as no URL")
    return _text(url or _ABSENT)


def _read_flag(text: str) -> bool:
    if text not in _FLAGS:
        raise ValueError(f"expected true/false, got {text!r}")
    return text == _FLAGS[True]


#: The corpus columns in file order: each field's name, how it is read from
#: its text and how it is written back (either may raise a ValueError).
_COLUMNS = (
    ("id", _id, _id),
    ("authentic", _read_flag, _FLAGS.__getitem__),
    ("tweet_body", lambda text: _ESCAPE_SEQUENCE.sub(_unescape, text), lambda body: body.translate(_ESCAPE_TABLE)),
    ("snopes_url", _text, _text),
    *((name, lambda text: None if text == _ABSENT else text, _write_url)
      for name in ("live_url", "archived_url", "reuters_url")),
)


def record_problems(record: GroundTruthRecord) -> list[str]:
    """Invariant breaches for one record; empty when the record is well-formed."""
    problems = []
    try:
        TweetClaim(body=record.tweet_body)  # the body rule eval and record apply
    except ValueError as exc:  # an empty body keeps its own short wording
        problems.append("tweet_body is empty" if not record.tweet_body.strip() else f"tweet_body: {exc}")
    for publisher, (site, articles) in PUBLISHERS.items():  # the snopes_url, and a reuters_url if present
        url = getattr(record, f"{publisher}_url")
        if url is not None and article_publisher(*host_and_path(url)) != publisher:
            problems.append(f"{publisher}_url is not a {site} article under {articles}: {url!r}")
    if record.authentic:
        if not record.live_url:
            problems.append("authentic record is missing live_url")
        if not record.archived_url:
            problems.append("authentic record is missing archived_url")
    else:
        if record.live_url or record.archived_url:
            problems.append("fabricated record must not carry live/archived URLs")
    return problems


def _parse_line(line: str, line_no: int) -> GroundTruthRecord:
    fields = line.split("\t")
    if len(fields) not in (6, 7):
        raise FormatError(line_no, "row", f"expected 6 or 7 tab-separated fields, got {len(fields)}")
    values = {}  # a 6-field row's reuters_url reads the padding, absent
    for (name, read, _), text in zip(_COLUMNS, fields + [_ABSENT]):
        try:
            values[name] = read(text)
        except ValueError as exc:
            raise FormatError(line_no, name, str(exc)) from None
    return GroundTruthRecord(**values)


def parse_dataset(text: str, validate: bool = True) -> list[GroundTruthRecord]:
    """Parse corpus text into records in file order.

    Records are separated by "\\n" only; other unicode line breaks may occur
    escaped inside the body field and must not split a record. With
    ``validate``, the first record that :func:`validate_dataset` has
    findings for raises a :class:`ValidationError` carrying all of them.
    """
    records = (
        _parse_line(line.rstrip("\r"), line_no)
        for line_no, line in enumerate(text.split("\n"), start=1)
        if line.strip() and not line.startswith("#")
    )
    if not validate:
        return list(records)
    valid = []
    for record, problems, duplicates in _checked(records):
        if problems or duplicates:
            raise ValidationError(record.id, "; ".join(problems + duplicates))
        valid.append(record)
    return valid


def load_dataset(path: str | Path, validate: bool = True) -> list[GroundTruthRecord]:
    """Load and (by default) validate a corpus file, a leading UTF-8 BOM
    skipped; an unreadable file is a :class:`DatasetError`, and bytes that
    are not UTF-8 a :class:`FormatError` naming their line."""
    try:
        data = Path(path).read_bytes().removeprefix(codecs.BOM_UTF8)
    except OSError as exc:  # missing, a directory, no permission
        raise DatasetError(str(exc)) from None
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = data.count(b"\n", 0, exc.start) + 1
        raise FormatError(line_no, "row", f"not UTF-8 text ({exc.reason})") from None
    return parse_dataset(text, validate=validate)


def serialize_dataset(records: list[GroundTruthRecord]) -> str:
    """Render records back to the file format (always 7 columns). A field
    that would hide or break its row (an id starting with "#", a tab or line
    feed) or read back as another value (an optional URL of "" or "-", a
    last-column URL ending in CR) is a ValueError naming the record and the field."""
    lines = ["# " + "\t".join(name for name, _, _ in _COLUMNS)]
    for record in records:
        cells = []
        for name, _, write in _COLUMNS:
            try:
                cells.append(write(getattr(record, name)))
                if len(cells) == len(_COLUMNS) and cells[-1].endswith("\r"):  # the reader strips a line's CRs
                    raise ValueError(f"a trailing CR would read back as the line's end: {cells[-1]!r}")
            except ValueError as exc:
                raise ValueError(f"record {record.id!r}, field {name}: {exc}") from None
        lines.append("\t".join(cells))
    return "\n".join(lines) + "\n"


def validate_dataset(records: list[GroundTruthRecord]) -> list[ValidationFinding]:
    """Corpus-level report: every record's invariant breaches, then every
    repeated id and article, each part in file order."""
    checked = list(_checked(records))
    return [ValidationFinding(r.id, p) for r, problems, _ in checked for p in problems] + [
        ValidationFinding(r.id, d) for r, _, duplicates in checked for d in duplicates
    ]


def _checked(
    records: Iterable[GroundTruthRecord],
) -> Iterator[tuple[GroundTruthRecord, list[str], list[str]]]:
    """Each record with its invariant breaches and with what it repeats of
    an earlier record: its id, its article."""
    seen_ids: set[str] = set()
    seen_urls: dict[str, str] = {}
    for record in records:
        problems, duplicates = record_problems(record), []
        if record.id in seen_ids:
            duplicates.append("duplicate record id")
        seen_ids.add(record.id)
        canonical = canonicalize_article_url(record.snopes_url)
        if canonical in seen_urls:
            duplicates.append(f"duplicate snopes_url (also on {seen_urls[canonical]}): {canonical}")
        else:
            seen_urls[canonical] = record.id
        yield record, problems, duplicates


def shipped_dataset_path() -> Path:
    """Filesystem path of the corpus file distributed with the package."""
    return Path(__file__).with_name("data") / "ground_truth.tsv"


def load_shipped_dataset() -> list[GroundTruthRecord]:
    return load_dataset(shipped_dataset_path())
