"""Ground-truth corpus of tweets with known fact-check coverage.

File format: UTF-8 text, one record per line, tab-separated fields in the
order (id, authentic, tweet_body, snopes_url, live_url, archived_url,
reuters_url), with a literal "-" for absent optionals. The tweet body has
backslash, tab, and newline characters escaped (\\\\, \\t, \\n, \\r) so a
record always stays on one line. Lines starting with "#" and blank lines
are ignored. The trailing reuters_url column is optional on read and backs
the Reuters overlap evaluation; 6-field rows are accepted.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional
from urllib.parse import urlsplit

from .errors import FormatError, ValidationError
from .ratings import canonicalize_article_url

_FIELD_NAMES = ("id", "authentic", "tweet_body", "snopes_url", "live_url", "archived_url", "reuters_url")


@dataclass(frozen=True)
class GroundTruthRecord:
    """One corpus row: an alleged tweet with its known fact-check article."""

    id: str
    tweet_body: str
    snopes_url: str
    authentic: bool
    live_url: Optional[str] = None
    archived_url: Optional[str] = None
    reuters_url: Optional[str] = None


@dataclass(frozen=True)
class ValidationFinding:
    record_id: str
    message: str


def _escape_body(text: str) -> str:
    return (
        text.replace("\\", "\\\\")
        .replace("\t", "\\t")
        .replace("\n", "\\n")
        .replace("\r", "\\r")
    )


_UNESCAPES = {"\\": "\\", "t": "\t", "n": "\n", "r": "\r"}


def _unescape_body(text: str) -> str:
    out: list[str] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\\":
            if i + 1 >= len(text) or text[i + 1] not in _UNESCAPES:
                raise ValueError(f"invalid escape at offset {i}")
            out.append(_UNESCAPES[text[i + 1]])
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def record_problems(record: GroundTruthRecord) -> list[str]:
    """Invariant breaches for one record; empty when the record is well-formed."""
    problems = []
    if not record.tweet_body.strip():
        problems.append("tweet_body is empty")
    host = (urlsplit(record.snopes_url).hostname or "").lower()
    if host.startswith("www."):
        host = host[4:]
    if host != "snopes.com":
        problems.append(f"snopes_url host is not snopes.com: {record.snopes_url!r}")
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
    if len(fields) == 6:
        fields = fields + ["-"]
    record_id, authentic_text, body_raw, snopes_url, live_url, archived_url, reuters_url = fields
    if not record_id:
        raise FormatError(line_no, "id", "must be non-empty")
    if authentic_text not in ("true", "false"):
        raise FormatError(line_no, "authentic", f"expected true/false, got {authentic_text!r}")
    try:
        body = _unescape_body(body_raw)
    except ValueError as exc:
        raise FormatError(line_no, "tweet_body", str(exc)) from None

    def optional(value: str) -> Optional[str]:
        return None if value == "-" else value

    return GroundTruthRecord(
        id=record_id,
        tweet_body=body,
        snopes_url=snopes_url,
        authentic=authentic_text == "true",
        live_url=optional(live_url),
        archived_url=optional(archived_url),
        reuters_url=optional(reuters_url),
    )


def parse_dataset(text: str, validate: bool = True) -> list[GroundTruthRecord]:
    """Parse corpus text into records in file order.

    Records are separated by "\\n" only; other unicode line breaks may occur
    escaped inside the body field and must not split a record.
    """
    records = []
    for line_no, line in enumerate(text.split("\n"), start=1):
        line = line.rstrip("\r")
        if not line.strip() or line.startswith("#"):
            continue
        record = _parse_line(line, line_no)
        if validate:
            problems = record_problems(record)
            if problems:
                raise ValidationError(record.id, "; ".join(problems))
        records.append(record)
    return records


def load_dataset(path: str | Path, validate: bool = True) -> list[GroundTruthRecord]:
    """Load and (by default) validate a corpus file."""
    return parse_dataset(Path(path).read_text(encoding="utf-8"), validate=validate)


def serialize_dataset(records: list[GroundTruthRecord]) -> str:
    """Render records back to the file format (always 7 columns)."""
    lines = ["# " + "\t".join(_FIELD_NAMES)]
    for record in records:
        lines.append(
            "\t".join(
                (
                    record.id,
                    "true" if record.authentic else "false",
                    _escape_body(record.tweet_body),
                    record.snopes_url,
                    record.live_url or "-",
                    record.archived_url or "-",
                    record.reuters_url or "-",
                )
            )
        )
    return "\n".join(lines) + "\n"


def validate_dataset(records: list[GroundTruthRecord]) -> list[ValidationFinding]:
    """Corpus-level report: invariant breaches, duplicate ids, duplicate articles."""
    findings = []
    for record in records:
        for problem in record_problems(record):
            findings.append(ValidationFinding(record.id, problem))
    seen_ids: dict[str, str] = {}
    seen_urls: dict[str, str] = {}
    for record in records:
        if record.id in seen_ids:
            findings.append(ValidationFinding(record.id, "duplicate record id"))
        seen_ids[record.id] = record.id
        canonical = canonicalize_article_url(record.snopes_url)
        if canonical in seen_urls:
            findings.append(
                ValidationFinding(
                    record.id, f"duplicate snopes_url (also on {seen_urls[canonical]}): {canonical}"
                )
            )
        else:
            seen_urls[canonical] = record.id
    return findings


def shipped_dataset_path() -> Path:
    """Filesystem path of the corpus file distributed with the package."""
    return Path(__file__).with_name("data") / "ground_truth.tsv"


def shipped_dataset_text() -> str:
    """Contents of the corpus file distributed with the package."""
    return shipped_dataset_path().read_text("utf-8")


def load_shipped_dataset() -> list[GroundTruthRecord]:
    return parse_dataset(shipped_dataset_text())
