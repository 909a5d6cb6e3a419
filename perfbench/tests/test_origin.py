import http.client
import threading

import pytest

from origin import LOW_GAP_SHARE, MAX_SHORT_SHARE, SHORT_GAP_SHARE, audit
from run import OriginProcess


def test_audit_reports_gaps_per_host():
    log = [
        [0.000, "www.snopes.com", 200, 10, 1],
        [0.010, "www.reuters.com", 200, 10, 1],  # another host: not a gap
        [0.050, "www.snopes.com", 200, 10, 1],
        [0.120, "www.snopes.com", 200, 10, 1],
    ]
    result = audit(log, delay_ms=50)
    assert result["requests"] == 4
    assert result["max_inflight"] == 1
    assert result["min_host_gap_ms"] == pytest.approx(50.0)
    assert result["polite"]


def test_audit_flags_same_host_requests_closer_than_the_delay():
    log = [[0.000, "www.google.com", 200, 1, 1], [0.001, "www.google.com", 200, 1, 2]]
    result = audit(log, delay_ms=50)
    assert result["min_host_gap_ms"] == pytest.approx(1.0)
    assert result["max_inflight"] == 2
    assert (result["host_gaps"], result["short_gaps"]) == (1, 1)
    assert not result["polite"]


def test_audit_tolerates_a_rare_late_arrival():
    """One jittered gap in far more than 1/MAX_SHORT_SHARE passes; two do not."""
    step = 0.051
    times = [i * step for i in range(int(2 / MAX_SHORT_SHARE))]
    times[10] = times[11] - (50 * SHORT_GAP_SHARE - 1) / 1000.0  # arrived late, right before the next
    log = [[t, "h", 200, 1, 1] for t in times]
    assert audit(log, delay_ms=50)["short_gaps"] == 1 and audit(log, delay_ms=50)["polite"]
    squeezed = [[t if i % 2 else t + step - 0.001, "h", 200, 1, 1] for i, t in enumerate(times)]
    assert not audit(squeezed, delay_ms=50)["polite"]


@pytest.mark.parametrize("spacing_ms", [30, 40])
def test_audit_flags_a_systematic_shortfall(spacing_ms):
    """Same-host requests spaced evenly below the delay fail, though none is under half of it."""
    log = [[i * spacing_ms / 1000.0, "www.snopes.com", 200, 1, 1] for i in range(100)]
    result = audit(log, delay_ms=50)
    assert result["short_gaps"] == 0
    assert result["low_host_gap_ms"] == pytest.approx(spacing_ms)
    assert not result["polite"]


def test_audit_passes_spacing_at_the_delay_with_slight_jitter():
    delay_ms = 50
    times = [i * delay_ms / 1000.0 + (0.001 if i % 3 else 0.0) for i in range(100)]
    result = audit([[t, "h", 200, 1, 1] for t in times], delay_ms)
    assert result["low_host_gap_ms"] >= delay_ms * LOW_GAP_SHARE
    assert result["polite"]


def test_audit_counts_not_found():
    assert audit([[0.0, "h", 404, 9, 1]], delay_ms=0)["not_found"] == 1


def _get(port: int, url: str) -> tuple[int, bytes]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("GET", url)  # absolute form, as a client talking to a proxy sends it
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


@pytest.fixture
def origin():
    server = OriginProcess("live-verify", seed=3, latency_ms=300)
    yield server
    server.close()
    assert server.proc.returncode is not None


def test_origin_serves_logs_and_counts_inflight(origin):
    url = "http://www.snopes.com/fact-check/no-such-article/"
    assert _get(origin.port, url)[0] == 404
    assert audit(origin.log(), delay_ms=0)["max_inflight"] == 1

    results = []
    threads = [threading.Thread(target=lambda: results.append(_get(origin.port, url))) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
        assert not thread.is_alive()
    log = origin.log()
    assert [status for status, _ in results] == [404, 404]
    assert len(log) == 3
    assert all(entry[1] == "www.snopes.com" for entry in log)
    assert audit(log, delay_ms=0)["max_inflight"] == 2
    assert not audit(log, delay_ms=50)["polite"]
