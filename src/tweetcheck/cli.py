"""Command-line front end.

Subcommands: verify, eval, record, validate-dataset, scrape. Stdout is
data; diagnostics go to stderr. Exit codes are a stable contract:

* verify: 0 = Authentic, 1 = Fabricated, 2 = Unverifiable
* 64 = usage error, 65 = dataset error, 66 = missing or corrupt replay fixture,
  69 = operational failure (network, bot challenge, unparseable pages)
"""

from __future__ import annotations

import argparse
import logging
import sys
from functools import partial
from pathlib import Path
from typing import Callable, Optional, Sequence

from .config import MODE_ENV_VAR, AppConfig, ConfigError, build_config, source_by_name
from .dataset import GroundTruthRecord, load_dataset, shipped_dataset_path, validate_dataset
from .errors import (
    CaptchaDetected,
    CorruptFixture,
    EmptyDatasetError,
    FixtureMiss,
    FormatError,
    MissingFixtures,
    NetworkError,
    ParseError,
    TweetCheckError,
    ValidationError,
)
from .adapters import EngineSettings, ranked_search
from .evaluation import EVAL_SOURCES, evaluate_engine, render_report
from .fetch import Fetcher, FetchMode, FetchRequest
from .model import Outcome, SourceId, TweetClaim
from .pipeline import verify_claim
from .ratings import identify_publisher, scrape_rating

EXIT_AUTHENTIC = 0
EXIT_FABRICATED = 1
EXIT_UNVERIFIABLE = 2
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_NO_FIXTURE = 66
EXIT_OPERATIONAL = 69

_OUTCOME_EXIT = {
    Outcome.AUTHENTIC: EXIT_AUTHENTIC,
    Outcome.FABRICATED: EXIT_FABRICATED,
    Outcome.UNVERIFIABLE: EXIT_UNVERIFIABLE,
}

logger = logging.getLogger(__name__)


def _fail(message: str, code: int) -> int:
    print(f"tweetcheck: {message}", file=sys.stderr)
    return code


def _common_options() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="FILE", help="key=value configuration file")
    common.add_argument(
        "--mode",
        choices=[m.value for m in FetchMode],
        help=f"fetch mode (overrides config file and ${MODE_ENV_VAR})",
    )
    common.add_argument("--fixtures", metavar="DIR", help="fixture directory for record/replay")
    common.add_argument(
        "-v", "--verbose", action="count", default=0, help="log diagnostics to stderr (-vv for debug)"
    )
    return common


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tweetcheck",
        description="Verify whether an alleged tweet was really posted.",
    )
    common = _common_options()
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
    p_eval.set_defaults(func=cmd_eval)

    p_record = sub.add_parser("record", parents=[common], help="record fixtures for a dataset")
    p_record.add_argument("--dataset", required=True, metavar="PATH")
    p_record.add_argument("--engine", action="append", metavar="NAME")
    p_record.set_defaults(func=cmd_record)

    p_validate = sub.add_parser("validate-dataset", parents=[common], help="check a dataset file")
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
    logging.basicConfig(
        stream=sys.stderr, level=level, format="%(levelname)s %(name)s: %(message)s"
    )


def _resolve_config(args: argparse.Namespace) -> AppConfig:
    config = build_config(args.config)
    if args.mode:
        config.mode = FetchMode(args.mode)
    if args.fixtures:
        config.fixtures_dir = Path(args.fixtures)
    if getattr(args, "max_articles", None) is not None:
        config.max_articles = args.max_articles
    return config


def _parse_engines(
    names: Optional[Sequence[str]], allowed: Sequence[SourceId]
) -> list[SourceId]:
    if not names:
        return list(allowed)
    engines = []
    for name in names:
        source = source_by_name(name)  # raises ConfigError on unknown names
        if source not in allowed:
            raise ConfigError(f"engine {name!r} is not usable for this command")
        if source not in engines:
            engines.append(source)
    return sorted(engines, key=list(SourceId).index)


def cmd_verify(args: argparse.Namespace) -> int:
    if not args.body.strip():
        return _fail("tweet body must be non-empty", EXIT_USAGE)
    if args.max_articles is not None and args.max_articles < 1:
        return _fail("--max-articles must be at least 1", EXIT_USAGE)
    try:
        claim = TweetClaim(body=args.body)
        engines = _parse_engines(args.engine, list(SourceId))
        config = _resolve_config(args)
        fetcher = config.build_fetcher()
    except (ConfigError, ValueError) as exc:
        return _fail(str(exc), EXIT_USAGE)

    with fetcher:
        run = verify_claim(claim, config, fetcher, engines)
    for source, message in run.engine_errors.items():
        print(f"tweetcheck: {source.value}: {message}", file=sys.stderr)
    if run.engine_errors and len(run.engine_errors) == run.engines_run and not run.verdict.evidence:
        return _fail("every engine failed; cannot verify", EXIT_OPERATIONAL)

    for line in run.lines:
        print(line)
    print(f"Verdict: {run.verdict.outcome.value}")
    if run.verdict.conflict:
        print("Conflicting evidence detected.")
    return _OUTCOME_EXIT[run.verdict.outcome]


def cmd_eval(args: argparse.Namespace) -> int:
    try:
        engines = _parse_engines(args.engine, EVAL_SOURCES)
        config = _resolve_config(args)
        fetcher = config.build_fetcher()
    except ConfigError as exc:
        return _fail(str(exc), EXIT_USAGE)
    with fetcher:
        try:
            records = load_dataset(args.dataset)
        except (FormatError, ValidationError, OSError) as exc:
            return _fail(f"dataset error: {exc}", EXIT_DATA)
        outcomes = _run_engines(evaluate_engine, engines, records, config, fetcher)

    reports = []
    misses: list[FixtureMiss] = []
    for outcome in outcomes:
        if isinstance(outcome, MissingFixtures):
            misses.extend(outcome.misses)
        elif isinstance(outcome, EmptyDatasetError):
            return _fail(str(outcome), EXIT_DATA)
        elif isinstance(outcome, Exception):
            raise outcome
        else:
            reports.append(outcome)
    if misses:
        for miss in misses:
            if isinstance(miss, CorruptFixture):
                problem = f"corrupt fixture: record {miss.record_id}: {miss.url}: {miss.reason}"
            else:
                problem = f"missing fixture: record {miss.record_id}: {miss.url}"
            print(f"tweetcheck: {problem}", file=sys.stderr)
        return EXIT_NO_FIXTURE
    sys.stdout.write(render_report(reports, args.format))
    return 0


def cmd_record(args: argparse.Namespace) -> int:
    try:
        engines = _parse_engines(args.engine, EVAL_SOURCES)
        config = _resolve_config(args)
        config.mode = FetchMode.RECORD
        fetcher = config.build_fetcher()
    except ConfigError as exc:
        return _fail(str(exc), EXIT_USAGE)
    with fetcher:
        try:
            records = load_dataset(args.dataset)
        except (FormatError, ValidationError, OSError) as exc:
            return _fail(f"dataset error: {exc}", EXIT_DATA)
        outcomes = _run_engines(_record_engine, engines, records, config, fetcher)

    failures = 0
    for outcome in outcomes:
        if isinstance(outcome, Exception):
            raise outcome
        for message in outcome:
            print(f"tweetcheck: {message}", file=sys.stderr)
        failures += len(outcome)
    print(f"recorded {len(records)} record(s) x {len(engines)} engine(s), {failures} failure(s)")
    return 0 if failures == 0 else EXIT_OPERATIONAL


def _run_engines(
    job: Callable[[SourceId, Sequence[GroundTruthRecord], Fetcher, EngineSettings], object],
    engines: Sequence[SourceId],
    records: Sequence[GroundTruthRecord],
    config: AppConfig,
    fetcher: Fetcher,
) -> list:
    """``job(source, records, fetcher, settings)`` for each engine, in engine order.

    Engines on different hosts run at the same time; engines sharing a host
    (web and web-snopes) run one after the other. Each entry is the job's
    result or the exception it raised.
    """
    jobs = []
    for source in engines:
        settings = config.engine_settings(source)
        jobs.append((settings.endpoint, partial(job, source, records, fetcher, settings)))
    return fetcher.run_per_host(jobs)


def _record_engine(
    source: SourceId,
    records: Sequence[GroundTruthRecord],
    fetcher: Fetcher,
    settings: EngineSettings,
) -> list[str]:
    """Record one engine's results for every record; one message per failed record.

    After a bot challenge the engine is not queried again: the records
    left count as failures.
    """
    failures = []
    for index, record in enumerate(records):
        try:
            ranked_search(source, TweetClaim(body=record.tweet_body), fetcher, settings)
        except CaptchaDetected as exc:
            failures.append(f"record {record.id} via {source.value} failed: {exc}")
            failures.extend(
                f"record {skipped.id} via {source.value} skipped after a bot challenge"
                for skipped in records[index + 1:]
            )
            break
        except TweetCheckError as exc:
            failures.append(f"record {record.id} via {source.value} failed: {exc}")
    return failures


def cmd_validate_dataset(args: argparse.Namespace) -> int:
    path = Path(args.dataset) if args.dataset else shipped_dataset_path()
    try:
        records = load_dataset(path, validate=False)
    except (FormatError, OSError) as exc:
        return _fail(f"dataset error: {exc}", EXIT_DATA)
    findings = validate_dataset(records)
    if findings:
        for finding in findings:
            print(f"record {finding.record_id}: {finding.message}")
        return EXIT_DATA
    authentic = sum(1 for r in records if r.authentic)
    print(f"dataset OK: {len(records)} records ({authentic} authentic, {len(records) - authentic} fabricated)")
    return 0


def cmd_scrape(args: argparse.Namespace) -> int:
    if identify_publisher(args.url) is None:
        return _fail(f"unsupported publisher host: {args.url}", EXIT_USAGE)
    try:
        config = _resolve_config(args)
        fetcher = config.build_fetcher()
    except ConfigError as exc:
        return _fail(str(exc), EXIT_USAGE)
    with fetcher:
        try:
            page = fetcher.fetch(FetchRequest(url=args.url))
        except FixtureMiss as exc:
            return _fail(str(exc), EXIT_NO_FIXTURE)
        except NetworkError as exc:
            return _fail(str(exc), EXIT_OPERATIONAL)
    if not page.ok:
        return _fail(f"HTTP {page.status} for {args.url}", EXIT_OPERATIONAL)
    try:
        rating = scrape_rating(page, config.rating_selectors())
    except ValueError as exc:  # redirected off to an unsupported host
        return _fail(str(exc), EXIT_USAGE)
    except ParseError as exc:
        return _fail(str(exc), EXIT_OPERATIONAL)
    if rating.missing:
        print("Truth rating: UNKNOWN (missing)")
    else:
        print(f"Truth rating: {rating.raw_label}")
    print(f"Normalized kind: {rating.kind.value}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _configure_logging(args.verbose)
    try:
        return args.func(args)
    except ConfigError as exc:
        return _fail(str(exc), EXIT_USAGE)
    except TweetCheckError as exc:
        return _fail(str(exc), EXIT_OPERATIONAL)


if __name__ == "__main__":
    sys.exit(main())
