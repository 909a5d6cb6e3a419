"""Command-line front end.

Subcommands: verify, eval, record, validate-dataset, scrape. Stdout is
data; diagnostics go to stderr. Exit codes are a stable contract:

* verify: 0 = Authentic, 1 = Fabricated, 2 = Unverifiable
* 64 = usage error, 65 = dataset error, 66 = missing or corrupt replay fixture,
  69 = operational failure (network or non-2xx answer, bot challenge, unparseable pages)

Each of 64, 65, 66 and 69 is declared once, as the ``exit_code`` of the
:mod:`tweetcheck.errors` class that causes it (argparse's usage error is a
:class:`ConfigError`'s). :func:`main` alone ends a command that raises one,
with the line :func:`~tweetcheck.errors.describe_failure` words; a command
that prints before it fails returns the class's code itself.

``record`` is the ``eval`` pass with a recording fetcher, and both print
each failed query, a replay fixture miss included, as one
``tweetcheck: record ID via ENGINE failed: WHY`` line.

A printed line that holds page or network text (a rating label, an article
URL, a failure's words, a log line) goes through :func:`printable` first.
"""

from __future__ import annotations

import argparse
import logging
import sys
from functools import partial
from pathlib import Path
from collections.abc import Sequence

from .config import MODE_ENV_VAR, AppConfig, build_config, source_by_name
from .dataset import GroundTruthRecord, load_dataset, shipped_dataset_path, validate_dataset
from .errors import ConfigError, DatasetError, FixtureMiss, TweetCheckError, describe_failure
from .evaluation import EVAL_SOURCES, evaluate_engine, render_report
from .fetch import FetchMode, FetchRequest
from .model import Outcome, SourceId, TweetClaim
from .pipeline import evidence_lines, rating_line, verify_claim
from .ratings import scrape_rating
from .urls import identify_publisher

_OUTCOME_EXIT = {Outcome.AUTHENTIC: 0, Outcome.FABRICATED: 1, Outcome.UNVERIFIABLE: 2}

#: What a page may not print raw: every C0 control but tab, DEL and every C1
#: control, and the bidi controls; each maps to its escape, such as "\x1b" or "\u202e".
_PRINT_ESCAPES = {
    code: f"\\x{code:02x}" if code < 0x100 else f"\\u{code:04x}"
    for code in (*range(0x20), *range(0x7F, 0xA0), *range(0x202A, 0x202F), *range(0x2066, 0x206A))
    if code != 0x09
}


def printable(text: str) -> str:
    """``text`` with each character of :data:`_PRINT_ESCAPES` written as its escape."""
    return text.translate(_PRINT_ESCAPES)


class _PrintableFormatter(logging.Formatter):
    def format(self, record: logging.LogRecord) -> str:
        return printable(super().format(record))


def _common_options() -> tuple[argparse.ArgumentParser, argparse.ArgumentParser]:
    """(-v only, -v plus the config and fetch flags) as parent parsers."""
    verbose = argparse.ArgumentParser(add_help=False)
    verbose.add_argument(
        "-v", "--verbose", action="count", default=0, help="log diagnostics to stderr (-vv for debug)"
    )
    common = argparse.ArgumentParser(add_help=False, parents=[verbose])
    common.add_argument("--config", metavar="FILE", help="key=value configuration file")
    common.add_argument(
        "--mode",
        choices=[m.value for m in FetchMode],
        help=f"fetch mode (overrides config file and ${MODE_ENV_VAR})",
    )
    common.add_argument("--fixtures", metavar="DIR", help="fixture directory for record/replay")
    return verbose, common


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tweetcheck",
        description="Verify whether an alleged tweet was really posted.",
    )
    verbose, common = _common_options()
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", parents=[common], help="verify one alleged tweet body")
    p_verify.add_argument("body", help="the alleged tweet text")
    p_verify.add_argument(
        "--engine", action="append", metavar="NAME",
        help="restrict to an engine (repeatable): " + ", ".join(s.value for s in SourceId),
    )
    p_verify.add_argument(
        "--max-articles", type=int, metavar="N", help="articles to scrape per engine"
    )
    p_verify.set_defaults(func=cmd_verify)

    p_eval = sub.add_parser("eval", parents=[common], help="score engines over a dataset")
    p_eval.add_argument("--dataset", required=True, metavar="PATH")
    p_eval.add_argument("--engine", action="append", metavar="NAME")
    p_eval.add_argument("--format", choices=["table", "machine"], default="table")
    p_eval.set_defaults(func=_engine_pass)

    p_record = sub.add_parser("record", parents=[common], help="record fixtures for a dataset")
    p_record.add_argument("--dataset", required=True, metavar="PATH")
    p_record.add_argument("--engine", action="append", metavar="NAME")
    p_record.set_defaults(func=_engine_pass)

    p_validate = sub.add_parser("validate-dataset", parents=[verbose], help="check a dataset file")
    p_validate.add_argument(
        "--dataset", metavar="PATH", help="defaults to the corpus shipped with the package"
    )
    p_validate.set_defaults(func=cmd_validate_dataset)

    p_scrape = sub.add_parser("scrape", parents=[common], help="scrape one article's truth rating")
    p_scrape.add_argument("url", help="fact-check article URL")
    p_scrape.set_defaults(func=cmd_scrape)
    return parser


def _configure_logging(verbosity: int) -> None:
    level = logging.WARNING
    if verbosity == 1:
        level = logging.INFO
    elif verbosity >= 2:
        level = logging.DEBUG
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(_PrintableFormatter("%(levelname)s %(name)s: %(message)s"))
    logging.basicConfig(level=level, handlers=[handler])


def _resolve_config(args: argparse.Namespace, mode: FetchMode | None = None) -> AppConfig:
    """The configuration of ``--config``, the environment and the flags; ``mode``, if given, over ``--mode``."""
    return build_config(
        args.config,
        mode=mode or (FetchMode(args.mode) if args.mode else None),
        fixtures_dir=Path(args.fixtures) if args.fixtures else None,
        max_articles=getattr(args, "max_articles", None),
    )


def _parse_engines(
    names: Sequence[str] | None, allowed: Sequence[SourceId]
) -> list[SourceId]:
    """The engines ``names`` gives, each once, in the order of ``allowed``; all of ``allowed`` if none."""
    if not names:
        return list(allowed)
    for name in names:
        if source_by_name(name) not in allowed:  # raises ConfigError on unknown names
            raise ConfigError(f"engine {name!r} is not usable for this command")
    return [source for source in allowed if source.value in names]


def _load_corpus(path: str | Path, validate: bool = True) -> list[GroundTruthRecord]:
    """:func:`~tweetcheck.dataset.load_dataset`; a corpus with no record is a :class:`DatasetError` too."""
    records = load_dataset(path, validate=validate)
    if not records:
        raise DatasetError(f"no records in {path}")
    return records


def cmd_verify(args: argparse.Namespace) -> int:
    try:
        claim = TweetClaim(body=args.body)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    engines = _parse_engines(args.engine, list(SourceId))
    config = _resolve_config(args)
    with config.build_fetcher() as fetcher:
        run = verify_claim(claim, config, fetcher, engines)
    for source, message in run.engine_errors.items():
        print(printable(f"tweetcheck: {source.value}: {message}"), file=sys.stderr)
    if len(run.engine_errors) == len(engines):
        raise TweetCheckError("every engine failed; cannot verify")

    for item in run.verdict.evidence:
        for line in evidence_lines(item):
            print(printable(line))
    print(f"Verdict: {run.verdict.outcome.value}")
    if run.verdict.conflict:
        print("Conflicting evidence detected.")
    return _OUTCOME_EXIT[run.verdict.outcome]


def _engine_pass(args: argparse.Namespace) -> int:
    """eval and record: resolve engines, config, fetcher and dataset, run
    :func:`evaluate_engine` per engine and print every failed or skipped
    query on stderr. Exit 66 if a replay fixture was missing or corrupt;
    else eval prints its report, and record its counts (69 if a query
    failed). Record exits 64 before any request if ``--mode`` is not record.

    Engines on different hosts run at the same time; engines sharing a host
    (web and web-snopes) run one after the other. Reports stay in engine order.
    """
    recording = args.command == "record"
    engines = _parse_engines(args.engine, EVAL_SOURCES)
    config = _resolve_config(args, FetchMode.RECORD if recording else None)
    with config.build_fetcher() as fetcher:
        records = _load_corpus(args.dataset)
        if recording and args.mode not in (None, FetchMode.RECORD.value):
            raise ConfigError(f"record cannot run with --mode {args.mode}; it always records")
        jobs = []
        for source in engines:
            settings = config.engines[source]
            jobs.append((settings.endpoint, partial(evaluate_engine, settings, records, fetcher)))
        reports = fetcher.run_per_host(jobs)
    failed = [outcome for report in reports for outcome in report.outcomes if outcome.failed]
    for outcome in failed:  # in engine then record order
        print(
            printable(f"tweetcheck: record {outcome.record_id} via {outcome.source.value} failed: {outcome.error}"),
            file=sys.stderr,
        )
    if any(issubclass(outcome.failure, FixtureMiss) for outcome in failed):
        return FixtureMiss.exit_code
    if recording:
        print(f"recorded {len(records)} record(s) x {len(reports)} engine(s), {len(failed)} failure(s)")
        return 0 if not failed else TweetCheckError.exit_code
    sys.stdout.write(render_report(reports, args.format))
    return 0


def cmd_validate_dataset(args: argparse.Namespace) -> int:
    records = _load_corpus(args.dataset or shipped_dataset_path(), validate=False)
    findings = validate_dataset(records)
    if findings:
        for finding in findings:
            print(f"record {finding.record_id}: {finding.message}")
        return DatasetError.exit_code
    authentic = sum(1 for r in records if r.authentic)
    print(f"dataset OK: {len(records)} records ({authentic} authentic, {len(records) - authentic} fabricated)")
    return 0


def cmd_scrape(args: argparse.Namespace) -> int:
    if identify_publisher(args.url) is None:
        raise ConfigError(f"unsupported publisher host: {args.url}")
    try:
        request = FetchRequest(url=args.url)
    except ValueError as exc:  # no scheme, as in "//www.snopes.com/x", or not http(s)
        raise ConfigError(str(exc)) from None
    config = _resolve_config(args)
    with config.build_fetcher() as fetcher:
        page = fetcher.fetch(request)
    rating = scrape_rating(page)
    print(printable(rating_line(rating)))
    print(f"Normalized kind: {rating.kind.value}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after --help
        if exc.code != 2:
            raise
        return ConfigError.exit_code
    _configure_logging(args.verbose)
    try:
        return args.func(args)
    except TweetCheckError as exc:
        print(printable(f"tweetcheck: {describe_failure(exc)}"), file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
