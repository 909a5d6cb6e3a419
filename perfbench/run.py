"""Offline benchmark: drives the real ``tweetcheck.cli.main`` in-process.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload live-verify --seed 1 --seconds 30 --trace 0

Live-like traffic goes to a fake origin (``origin.py``) in its own process,
reached through ``HTTP_PROXY`` and ``http://`` endpoint overrides in a
benchmark config file. Every output is checked against answers the
generator planted. The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import http.client
import io
import json
import logging
import os
import platform
import random
import resource
import select
import shutil
import socket
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import oracle  # noqa: E402
from origin import LOW_PERCENTILE, audit  # noqa: E402
from spans import Tracer, unit  # noqa: E402

LATENCY_MS = 20
DELAY_MS = 100
SETUP_REPS = 5
#: Workloads that record their fixtures at set-up and then read them back.
REPLAY_WORKLOADS = ("replay-verify", "replay-eval")
#: Workloads whose closed-loop operation is one whole pass over the corpus.
PASS_WORKLOADS = ("record-corpus", "replay-eval")
#: Times ``import tweetcheck.cli`` inside a fresh interpreter; prints seconds.
IMPORT_PROBE = "import time; t = time.perf_counter(); import tweetcheck.cli; print(time.perf_counter() - t)"
FAIL_EXITS = (64, 65, 66, 69)
LOCAL_HOSTS = ("127.0.0.1", "localhost", "::1")


class Abort(Exception):
    """An output disagreed with the planted answer."""


def guard_network() -> None:
    """Refuse to resolve any host but the loopback, so nothing leaves the machine."""
    real = socket.getaddrinfo

    def local_only(host, *args, **kwargs):
        if host not in LOCAL_HOSTS:
            raise OSError(f"benchmark refuses non-local address {host!r}")
        return real(host, *args, **kwargs)

    socket.getaddrinfo = local_only


class OriginProcess:
    """The fake origin, started as a child process; stops when closed."""

    def __init__(self, workload: str, seed: int, latency_ms: float):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "origin.py"), "--workload", workload, "--seed", str(seed),
             "--latency-ms", str(latency_ms), "--corpus", str(ROOT / gen.CORPUS_PATH)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT,
        )
        ready, _, _ = select.select([self.proc.stdout], [], [], 120)
        line = self.proc.stdout.readline().decode() if ready else ""
        if not line.startswith("READY "):
            self.close()
            raise RuntimeError(f"fake origin did not start: {line!r}")
        self.port = int(line.split()[1])
        self.url = f"http://127.0.0.1:{self.port}"

    def log(self) -> list[list]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request("GET", "/__log")
            return json.loads(conn.getresponse().read())
        finally:
            conn.close()

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.stdin.close()  # the origin stops at end of its stdin
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            if not stream.closed:
                stream.close()


def use_proxy(url: str) -> None:
    for name in ("no_proxy", "NO_PROXY", "all_proxy", "ALL_PROXY"):
        os.environ.pop(name, None)
    os.environ["http_proxy"] = os.environ["HTTP_PROXY"] = url


def environment(seed: int) -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = "unknown"
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                              timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        if done.returncode == 0:
            commit = done.stdout.strip()
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": commit,
        "seed": seed,
        "origin_latency_ms": LATENCY_MS,
        "politeness_delay_ms": DELAY_MS,
    }


class Bench:
    """One workload run: set-up, a closed loop with one client, checks."""

    def __init__(self, plan: gen.Plan, work: Path):
        from tweetcheck import cli

        self.cli = cli
        self.plan = plan
        self.workload = plan.workload
        self.seed = plan.seed
        self.work = work
        self.records = plan.records
        self.dataset = ROOT / gen.CORPUS_PATH
        self.fixtures: Optional[Path] = None
        self.setup_origin: Optional[dict] = None
        self.origin: Optional[OriginProcess] = None
        self.attempted = 0
        self.failed = 0
        self.errors: Counter[str] = Counter()
        self.log_from = 0
        self.cursor = 0
        self.check_every_pass = False  # record-corpus: eval each pass's fixtures right after it

    # -- plumbing --------------------------------------------------------

    def config(self, name: str, delay_ms: int, fixtures: Path) -> Path:
        lines = [f"politeness_delay_ms = {delay_ms}", f"fixtures = {fixtures}"]
        lines += [f"endpoint.{engine} = {url}" for engine, url in gen.ENDPOINTS.items()]
        path = self.work / name
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def call(self, argv: list[str]) -> tuple[Optional[int], str, float]:
        """Run one CLI command in-process; (exit code or None if it raised, stdout, seconds).

        Each command starts on a collected heap, as a fresh ``tweetcheck``
        process does: parse trees are reference cycles, and the previous
        command's would otherwise be collected inside this one.
        """
        out = io.StringIO()
        gc.collect()
        started = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = self.cli.main(argv)
        except SystemExit as exc:  # argparse rejects a command line this way
            code = exc.code
        except Exception as exc:  # a crash is a counted failure, not the end of the run
            self.fail(type(exc).__name__)
            code = None
        return code, out.getvalue(), time.perf_counter() - started

    def fail(self, kind: str) -> None:
        self.failed += 1
        self.errors[kind] += 1

    def start_origin(self, latency_ms: float) -> None:
        self.origin = OriginProcess(self.workload, self.seed, latency_ms)
        use_proxy(self.origin.url)
        self.log_from = 0

    def stop_origin(self) -> None:
        if self.origin is not None:
            self.origin.close()
            self.origin = None

    def origin_audit(self, delay_ms: int) -> dict:
        """Audit the origin's requests since the last audit; raise on a breach."""
        log = self.origin.log()[self.log_from:]
        self.log_from += len(log)
        result = audit(log, delay_ms)
        if not result["polite"]:
            raise Abort(f"impolite: {result['short_gaps']} of {result['host_gaps']} same-host gaps under half "
                        f"the {delay_ms} ms delay, shortest {result['min_host_gap_ms']:.3f} ms, "
                        f"{LOW_PERCENTILE}th percentile {result['low_host_gap_ms']:.3f} ms")
        if result["not_found"]:
            raise Abort(f"{result['not_found']} request(s) for URLs the origin does not serve")
        return result

    # -- operations ------------------------------------------------------

    def verify(self, record_id: str, mode: str, cfg: Path) -> float:
        expected = oracle.expected_verify(self.plan, record_id)
        body = self.plan.record(record_id).body
        code, stdout, seconds = self.call(["verify", body, "--config", str(cfg), "--mode", mode])
        self.attempted += 1
        if code in FAIL_EXITS:
            self.fail(f"exit {code}")
        elif code is not None:
            problem = oracle.check_verify(expected, code, stdout)
            if problem:
                raise Abort(f"verify {record_id} ({mode}): {problem}")
        return seconds

    def record_pass(self, cfg: Path, fixtures: Path) -> float:
        code, stdout, seconds = self.call(["record", "--dataset", str(self.dataset), "--config", str(cfg),
                                           "--fixtures", str(fixtures)])
        queries = len(self.records) * len(gen.RANKED_ENGINES)
        self.attempted += queries
        if code is None:
            return seconds
        failures = oracle.record_failures(code, stdout, len(self.records), len(gen.RANKED_ENGINES))
        if failures is None:
            raise Abort(f"record: unexpected output (exit {code}): {stdout[-200:]!r}")
        for _ in range(failures):
            self.fail("record query")
        written = len(list(fixtures.glob("*.fixture")))
        if failures == 0 and written != queries:
            raise Abort(f"record wrote {written} fixtures, expected {queries}")
        return seconds

    def eval_pass(self, cfg: Path, fixtures: Path) -> float:
        code, stdout, seconds = self.call(["eval", "--dataset", str(self.dataset), "--config", str(cfg),
                                           "--mode", "replay", "--fixtures", str(fixtures),
                                           "--format", "machine"])
        self.attempted += 1
        if code is None:
            return seconds
        if code != 0:
            self.fail(f"exit {code}")
            return seconds
        problem = oracle.check_eval(self.plan, stdout)
        if problem:
            raise Abort(f"eval: {problem}")
        return seconds

    # -- workloads -------------------------------------------------------

    def start(self) -> float:
        """The benchmark's part of set-up: plan, pages and the origin; returns its seconds.

        The replay workloads record from an origin without latency, so no
        politeness delay is configured there either.
        """
        started = time.perf_counter()
        self.start_origin(latency_ms=0 if self.workload in REPLAY_WORKLOADS else LATENCY_MS)
        return time.perf_counter() - started

    def setup_program(self) -> float:
        """The program's part of one set-up; returns its seconds.

        That is a cold ``import tweetcheck.cli`` in a fresh interpreter, and
        on the replay workloads recording their fixtures through the
        program: ``verify --mode record`` per claim, or one ``record`` pass.
        """
        probe = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, check=True, capture_output=True,
                               text=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
        seconds = float(probe.stdout)
        if self.workload not in REPLAY_WORKLOADS:
            self.cfg = self.config("live.conf", DELAY_MS, self.work / "unused")
            return seconds
        if self.fixtures is not None:
            shutil.rmtree(self.fixtures)
        self.fixtures = Path(tempfile.mkdtemp(prefix="fixtures-", dir=self.work))
        cfg = self.config("record.conf", 0, self.fixtures)
        if self.workload == "replay-verify":
            seconds += sum(self.verify(record_id, "record", cfg) for record_id in self.plan.order)
        else:
            seconds += self.record_pass(cfg, self.fixtures)
        self.setup_origin = self.origin_audit(0)
        self.cfg = self.config("replay.conf", 0, self.fixtures)
        return seconds

    def setup(self) -> tuple[float, list[float]]:
        """Start the origin once and set the program up SETUP_REPS times;
        (origin start seconds, the program's set-up seconds per repetition)."""
        origin_s = self.start()
        setups = [self.setup_program() for _ in range(SETUP_REPS)]
        if self.workload in REPLAY_WORKLOADS:
            self.stop_origin()  # the closed loop reads fixtures only
        return origin_s, setups

    def op(self) -> tuple[float, int]:
        """One closed-loop operation; (seconds, operations it counts as)."""
        queries = len(self.records) * len(gen.RANKED_ENGINES)
        if self.workload == "record-corpus":
            fixtures = Path(tempfile.mkdtemp(prefix="record-", dir=self.work))
            seconds = self.record_pass(self.cfg, fixtures)
            if self.fixtures is not None:
                shutil.rmtree(self.fixtures)
            self.fixtures = fixtures  # the last pass's fixtures are checked by check_recorded
            if self.check_every_pass:
                self.check_recorded()
            return seconds, queries
        if self.workload == "replay-eval":
            return self.eval_pass(self.cfg, self.fixtures), queries
        index, pass_index = self.cursor % len(self.plan.order), self.cursor // len(self.plan.order)
        if index == 0:  # a fresh seeded order each pass, so no claim keeps one position
            self.order = random.Random(f"order:{self.seed}:{pass_index}").sample(self.plan.order, len(self.plan.order))
        record_id = self.order[index]
        self.cursor += 1
        mode = "replay" if self.workload == "replay-verify" else "live"
        return self.verify(record_id, mode, self.cfg), 1

    def warm_up(self) -> None:
        """One untimed operation, so that first-call costs fall outside the loop.

        On the pass workloads it is the pass's command over a one-record copy
        of the corpus, which runs the same code in a fraction of the time.
        Its output is not checked; the loop's operations are.
        """
        if self.workload not in PASS_WORKLOADS:
            self.op()
            return
        lines = self.dataset.read_text(encoding="utf-8").splitlines(keepends=True)
        first = next(i for i, line in enumerate(lines) if line.strip() and not line.startswith("#"))
        dataset = self.work / "warm-up.tsv"
        dataset.write_text("".join(lines[: first + 1]), encoding="utf-8")
        if self.workload == "record-corpus":
            fixtures = Path(tempfile.mkdtemp(prefix="warm-up-", dir=self.work))
            argv = ["record", "--fixtures", str(fixtures)]
        else:
            argv = ["eval", "--mode", "replay", "--fixtures", str(self.fixtures), "--format", "machine"]
        self.call([*argv, "--dataset", str(dataset), "--config", str(self.cfg)])

    def pass_length(self) -> int:
        """Operations in one pass over the inputs."""
        return 1 if self.workload in PASS_WORKLOADS else len(self.plan.order)

    def run_for(self, seconds: float, whole_passes: bool = False) -> tuple[list[float], int, float]:
        self.cursor = 0
        latencies: list[float] = []
        ops = 0
        started = time.perf_counter()
        while time.perf_counter() - started < seconds or (whole_passes and len(latencies) % self.pass_length()):
            took, count = self.op()
            latencies.append(took)
            ops += count
        return latencies, ops, time.perf_counter() - started

    def check_recorded(self) -> None:
        """On record-corpus, check the last pass's fixtures with an
        ``eval --mode replay`` against the planted ranks (not in the pass's time)."""
        if self.workload == "record-corpus" and self.fixtures is not None:
            self.eval_pass(self.cfg, self.fixtures)

    def close(self) -> None:
        self.stop_origin()


def timed_run(bench: Bench, seconds: float) -> tuple[dict, dict]:
    origin_s, setups = bench.setup()
    bench.warm_up()
    bench.attempted = bench.failed = 0
    bench.errors.clear()
    latencies, ops, _ = bench.run_for(seconds)
    detail = {"samples": len(latencies), "setup_s": setups, "origin_start_s": origin_s}
    if bench.workload in PASS_WORKLOADS:
        detail["pass_s"] = latencies
    if bench.origin is not None:
        detail["origin"] = bench.origin_audit(DELAY_MS)
    bench.check_recorded()
    detail["ops_per_s"] = ops / sum(latencies)
    if len(latencies) >= 100:
        detail["p90_ms"] = statistics.quantiles(latencies, n=10)[-1] * 1000.0
    metrics = {
        "latency_p50_ms": (statistics.median(latencies) * 1000.0, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return metrics, detail


def traced_run(bench: Bench, seconds: float, tracer: Tracer) -> tuple[dict, dict]:
    bench.start()
    bench.setup_program()
    if bench.workload in REPLAY_WORKLOADS:
        bench.stop_origin()
    bench.attempted = bench.failed = 0
    bench.errors.clear()
    # On record-corpus a traced operation is a record pass and the eval that
    # checks it, so that the evaluation and fixture-read layers are measured
    # on a listed workload too.
    bench.check_every_pass = True
    latencies, _, untraced_s = bench.run_for(seconds / 2, whole_passes=True)
    if bench.origin is not None:
        bench.origin_audit(DELAY_MS)
    ops = len(latencies)
    bench.cursor = 0  # the same operations again, now traced
    tracer.install()
    tracer.enabled = True
    started = time.perf_counter()
    try:
        for index in range(ops):
            tracer.op = index
            bench.op()
    finally:
        traced_s = time.perf_counter() - started
        tracer.enabled = False
        tracer.uninstall()
    if bench.origin is not None:
        origin, origin_ops = bench.origin_audit(DELAY_MS), ops
    else:  # the replay workloads talk to the origin only while recording their fixtures
        origin, origin_ops = bench.setup_origin, bench.pass_length()
    metrics = {name: (value, unit(name)) for name, value in tracer.layer_metrics(ops).items()}
    metrics["origin.requests"] = (origin["requests"] / origin_ops, "count")
    metrics["origin.max_inflight"] = (origin["max_inflight"], "count")
    metrics["origin.min_host_gap_ms"] = (origin["min_host_gap_ms"] or 0.0, "ms")
    metrics["errors.rate"] = (bench.failed / bench.attempted, "ratio")
    metrics["trace.overhead_pct"] = ((traced_s / untraced_s - 1.0) * 100.0, "%")
    return metrics, {"traced_ops": ops, "untraced_s": untraced_s, "traced_s": traced_s, "origin": origin}


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="tweetcheck offline benchmark")
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "tweetcheck").is_dir():
        print(f"benchmark: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    guard_network()
    sys.path.insert(0, str(ROOT / "src"))
    tracer = Tracer()
    logging.getLogger().addHandler(tracer)  # the CLI's basicConfig then leaves stderr alone

    plan = gen.build_plan(args.workload, args.seed, gen.load_corpus(ROOT / gen.CORPUS_PATH))
    # The plan and expected answers are the benchmark's, not the program's:
    # keep them out of the collector's reach, so the program's collections
    # cost what they would cost in its own process.
    gc.collect()
    gc.freeze()
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".perfbench"))
    bench = Bench(plan, work)
    correct = True
    metrics: dict = {}
    detail: dict = {}
    try:
        if args.trace:
            metrics, detail = traced_run(bench, args.seconds, tracer)
        else:
            metrics, detail = timed_run(bench, args.seconds)
    except Abort as exc:
        print(f"benchmark: output check failed: {exc}", file=sys.stderr)
        correct = False
    finally:
        bench.close()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it
    detail.update(workload=args.workload, env=environment(args.seed), errors_by_class=bench.errors)
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": max(bench.attempted, 1),
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
