"""Start-up cost: offline commands never load the network stack.

Each check runs in a fresh interpreter, since this test process has long
since imported everything.
"""

import os
import subprocess
import sys
from pathlib import Path

import tweetcheck
from tweetcheck.cli import main
from tweetcheck.dataset import serialize_dataset

from conftest import PANDEMIC_BODY, eval_pages, eval_records, record_pages

#: Modules that only live and record fetching (or recording fixtures) need.
NETWORK_ONLY = (
    "requests",
    "urllib3",
    "charset_normalizer",
    "http.client",
    "ssl",
    "concurrent.futures",
    "tempfile",
)

# Poisoned modules make any `import` of them raise, so a command that runs
# to completion provably never imported one.
_POISONED_MAIN = f"""
import sys
for name in {NETWORK_ONLY!r}:
    sys.modules[name] = None
from tweetcheck.cli import main
sys.exit(main(sys.argv[1:]))
"""


def _python(*args: str) -> subprocess.CompletedProcess:
    src = str(Path(tweetcheck.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )


def test_importing_the_cli_loads_no_network_module():
    # -S: no site hooks (.pth files), which may preload any of these themselves
    probe = _python(
        "-S", "-c",
        "import sys, tweetcheck.cli; print(' '.join(sorted(sys.modules)))",
    )
    assert probe.returncode == 0, probe.stderr
    loaded = set(probe.stdout.split())
    assert "tweetcheck.cli" in loaded
    assert loaded.isdisjoint(NETWORK_ONLY), sorted(loaded.intersection(NETWORK_ONLY))


def _same_as_in_process(argv: list[str], capsys) -> None:
    expected_code = main(argv)
    expected_out = capsys.readouterr().out
    proc = _python("-c", _POISONED_MAIN, *argv)
    assert (proc.stdout, proc.returncode) == (expected_out, expected_code), proc.stderr


def test_replay_verify_runs_without_the_network_stack(pandemic_store, capsys):
    _same_as_in_process(
        ["verify", PANDEMIC_BODY, "--mode", "replay", "--fixtures", str(pandemic_store.root)],
        capsys,
    )


def test_replay_eval_runs_without_the_network_stack(tmp_path, capsys):
    store = record_pages(tmp_path / "fx", eval_pages())
    dataset = tmp_path / "corpus.tsv"
    dataset.write_text(serialize_dataset(eval_records()), encoding="utf-8")
    for output in ("table", "machine"):
        _same_as_in_process(
            ["eval", "--dataset", str(dataset), "--engine", "snopes", "--format", output,
             "--mode", "replay", "--fixtures", str(store.root)],
            capsys,
        )


def test_live_fetcher_loads_requests_at_construction():
    probe = _python("-c", """
import sys
from tweetcheck.fetch import Fetcher, FetchMode, FixtureStore
Fetcher(FetchMode.REPLAY, FixtureStore("unused"))
Fetcher(FetchMode.LIVE, transport=lambda req: None)
assert "requests" not in sys.modules, "loaded without a network transport"
Fetcher(FetchMode.LIVE)
assert "requests" in sys.modules, "live fetcher did not load requests"
""")
    assert probe.returncode == 0, probe.stderr
