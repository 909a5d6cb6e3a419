"""In-memory span recorder wrapped around the program's public functions.

Modules bind each other's functions with ``from .x import y``, so each
target is replaced at every import site: every ``tweetcheck`` module
attribute that is the original function gets the wrapper. Spans are kept
in memory as ``[name, start, end, parent, op, value, failed]``; a layer's
self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import logging
import sys
import time
from typing import Any, Callable, Optional

# (span name, module, attribute path, value taken from (args, result))
TARGETS: tuple[tuple[str, str, str, Optional[Callable]], ...] = (
    ("fetch.fetch", "tweetcheck.fetch", "Fetcher.fetch", lambda a, r: len(r.body)),
    ("fetch.store_load", "tweetcheck.fetch", "FixtureStore.load", None),
    ("fetch.store_save", "tweetcheck.fetch", "FixtureStore.save", None),
    ("fetch.transport", "requests", "Session.request", None),
    ("htmldoc.decode", "tweetcheck.htmldoc", "decode_body", None),
    ("htmldoc.parse", "tweetcheck.htmldoc", "parse_html", lambda a, r: len(a[0])),
    ("htmldoc.select", "tweetcheck.htmldoc", "Element.select", None),
    ("adapters.search", "tweetcheck.adapters", "ranked_search", lambda a, r: len(r.urls)),
    ("adapters.search", "tweetcheck.adapters", "search_politwoops", lambda a, r: len(r)),
    ("ratings.scrape", "tweetcheck.ratings", "scrape_rating", lambda a, r: 0 if r.missing else 1),
    ("pipeline.verify", "tweetcheck.pipeline", "verify_claim", None),
    ("verdict.aggregate", "tweetcheck.verdict", "aggregate", None),
    ("evaluation.eval", "tweetcheck.evaluation", "evaluate_engine", None),
    ("dataset.load", "tweetcheck.dataset", "load_dataset", None),
)


def unit(name: str) -> str:
    """Unit of a per-layer metric, from its name's suffix."""
    for suffix, symbol in (("_ms", "ms"), ("_kb", "KiB"), ("_share", "ratio")):
        if name.endswith(suffix):
            return symbol
    return "count"


class Tracer(logging.Handler):
    """Span recorder; also counts the program's text-scan rating log records."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = 0
        self.enabled = False
        self.text_scans = 0
        self._restore: list[tuple[Any, str, Any]] = []

    def emit(self, record: logging.LogRecord) -> None:
        if self.enabled and record.name == "tweetcheck.ratings" and "text scan" in str(record.msg):
            self.text_scans += 1

    def span(self, name: str, fn: Callable, value: Optional[Callable] = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            index = len(tracer.spans)
            record = [name, time.perf_counter(), None, tracer.stack[-1] if tracer.stack else None,
                      tracer.op, 0, False]
            tracer.spans.append(record)
            tracer.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                record[6] = True
                raise
            finally:
                record[2] = time.perf_counter()
                tracer.stack.pop()
            if value is not None:
                record[5] = value(args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target at every import site (idempotent per install)."""
        for name, module_name, path, value in TARGETS:
            owner = sys.modules[module_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapped = self.span(name, original, value)
            self._set(owner, attr, wrapped)
            if outer:
                continue
            for mod_name, module in list(sys.modules.items()):
                if mod_name.startswith("tweetcheck") and module is not None:
                    for key, obj in list(vars(module).items()):
                        if obj is original:
                            self._set(module, key, wrapped)

    def _set(self, owner: Any, key: str, value: Any) -> None:
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, key, original = self._restore.pop()
            setattr(owner, key, original)

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [span[2] - span[1] for span in self.spans]
        for span in self.spans:
            if span[3] is not None:
                own[span[3]] -= span[2] - span[1]
        return own

    def layer_metrics(self, ops: int) -> dict[str, float]:
        """Per-layer totals divided by the number of operations traced."""
        own = self.self_times()
        dur: dict[str, float] = {}
        self_ms: dict[str, float] = {}
        count: dict[str, int] = {}
        value: dict[str, float] = {}
        failed: dict[str, int] = {}
        for span, self_s in zip(self.spans, own):
            name = span[0]
            dur[name] = dur.get(name, 0.0) + (span[2] - span[1]) * 1000.0
            self_ms[name] = self_ms.get(name, 0.0) + self_s * 1000.0
            count[name] = count.get(name, 0) + 1
            value[name] = value.get(name, 0) + span[5]
            failed[name] = failed.get(name, 0) + int(span[6])
        d = lambda n: dur.get(n, 0.0)  # noqa: E731
        scrapes = count.get("ratings.scrape", 0)
        totals = {
            "fetch.requests": count.get("fetch.fetch", 0),
            "fetch.bytes": value.get("fetch.fetch", 0),
            "fetch.errors": failed.get("fetch.fetch", 0),
            "fetch.fetch_ms": d("fetch.fetch"),
            "fetch.transport_ms": d("fetch.transport"),
            "fetch.wait_ms": d("fetch.fetch") - d("fetch.transport") - d("fetch.store_load") - d("fetch.store_save"),
            "fetch.store_load_ms": d("fetch.store_load"),
            "fetch.store_save_ms": d("fetch.store_save"),
            "htmldoc.decode_ms": d("htmldoc.decode"),
            "htmldoc.parse_ms": d("htmldoc.parse"),
            "htmldoc.parse_kb": value.get("htmldoc.parse", 0) / 1024.0,
            "htmldoc.select_ms": d("htmldoc.select"),
            "htmldoc.select_calls": count.get("htmldoc.select", 0),
            "adapters.queries": count.get("adapters.search", 0),
            "adapters.results": value.get("adapters.search", 0),
            "adapters.search_ms": self_ms.get("adapters.search", 0.0),
            "ratings.scrapes": scrapes,
            "ratings.scrape_ms": self_ms.get("ratings.scrape", 0.0),
            "pipeline.verify_ms": self_ms.get("pipeline.verify", 0.0),
            "verdict.aggregate_ms": d("verdict.aggregate"),
            "evaluation.eval_ms": self_ms.get("evaluation.eval", 0.0),
            "dataset.load_ms": d("dataset.load"),
        }
        metrics = {key: val / ops for key, val in totals.items()}
        metrics["ratings.rated_share"] = value.get("ratings.scrape", 0) / scrapes if scrapes else 0.0
        metrics["ratings.text_scan_share"] = self.text_scans / scrapes if scrapes else 0.0
        return metrics
