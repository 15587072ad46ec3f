"""Self-tests for the benchmark's own arithmetic.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository
root.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from perfbench import harness, loadgen
from perfbench.harness import SpanLog

ROOT = Path(__file__).resolve().parents[2]


# -- tail percentiles ----------------------------------------------------------


def test_samples_beyond_the_nearest_rank():
    assert harness.samples_beyond(1000, 99) == 10
    assert harness.samples_beyond(100, 90) == 10
    assert harness.samples_beyond(20, 50) == 10
    assert harness.samples_beyond(999, 99) == 9


def test_tail_ok_boundary():
    assert harness.tail_ok(range(1000), 99)
    assert not harness.tail_ok(range(999), 99)
    assert harness.tail_ok(range(100), 90)
    assert not harness.tail_ok(range(99), 90)


def test_percentile_is_nearest_rank_and_observed():
    values = list(range(1, 1001))
    assert harness.percentile(values, 99) == 990
    assert harness.percentile(values, 50) == 500
    assert harness.percentile(reversed(values), 90) == 900
    # Never interpolates between samples.
    assert harness.percentile([1.0, 2.0], 50) == 1.0
    assert harness.percentile([5.0], 99) == 5.0
    with pytest.raises(ValueError):
        harness.percentile([], 50)


def test_segmented_percentile_takes_the_median_of_segments():
    times = [i / 100.0 for i in range(500)]
    values = [1.0] * 500
    # A burst slows the second segment only.
    for i in range(100, 200):
        values[i] = 50.0
    assert harness.segmented_percentile(times, values, 90) == 1.0
    assert harness.percentile(values, 90) == 50.0


def test_segmented_percentile_falls_back_without_a_full_tail_per_segment():
    times = list(range(200))
    values = [float(v) for v in range(200)]
    # 40 samples per segment leave only 4 beyond each segment's p90.
    assert harness.segmented_percentile(times, values, 90) == harness.percentile(
        values, 90
    )


def test_segmented_rate_is_the_median_segment_rate():
    # 10 completions per second for 10 s, none in seconds 4-6.
    times = [t / 10.0 for t in range(100) if not 40 <= t < 60]
    assert harness.segmented_rate(times, [1] * len(times), 0.0, 10.0) == 10.0


def test_paired_overhead_alternates_and_compares_totals():
    order = []

    def call(trace):
        order.append(trace)
        time.sleep(0.020 if trace else 0.010)

    overhead = harness.paired_overhead([call] * 4)
    assert order == [False, True, True, False, False, True, True, False]
    assert 0.5 < overhead < 1.5


# -- open loop -----------------------------------------------------------------


def test_due_time_latency_and_lag_arithmetic():
    assert harness.due_time(10.0, 4.0, 6) == 11.5
    latency, lag = harness.open_loop_times(due=11.5, sent=11.6, done=11.9)
    assert latency == pytest.approx(0.4)
    assert lag == pytest.approx(0.1)


class _StallingHandler(BaseHTTPRequestHandler):
    """Answers every POST at once, except the second, which it holds."""

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass

    def do_POST(self):  # noqa: N802 - stdlib dispatch name
        self.rfile.read(int(self.headers["Content-Length"]))
        with self.server.lock:
            self.server.seen += 1
            seen = self.server.seen
        if seen == 2:
            time.sleep(0.15)
        body = b"{}"
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)


def test_open_loop_charges_a_stall_to_the_requests_it_delays():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _StallingHandler)
    server.seen = 0
    server.lock = threading.Lock()
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        host, port = server.server_address[:2]
        results = loadgen.open_loop(
            host, port, [b"{}"], rate=50.0, count=6, connections=1
        )
    finally:
        server.shutdown()
        server.server_close()
        thread.join(5)
    assert not thread.is_alive()
    assert [r[0] for r in results] == list(range(6))
    assert all(r[4] == 200 for r in results)
    due = [r[1] for r in results]
    assert due[3] - due[2] == pytest.approx(1 / 50.0)
    latency = [harness.open_loop_times(r[1], r[2], r[3])[0] for r in results]
    lag = [harness.open_loop_times(r[1], r[2], r[3])[1] for r in results]
    round_trip = [r[3] - r[2] for r in results]
    # Request 1 stalls 150 ms; with one connection, request 2 (due 20 ms
    # later) cannot be sent until it returns, and its latency from the
    # due time carries that wait although its own round trip is short.
    assert lag[2] > 0.1
    assert latency[2] > round_trip[2] + 0.1
    assert lag[0] < 0.05


# -- PSS across a process tree -------------------------------------------------


def test_parse_pss_kib():
    text = "00400000-7fff ---p 00000000 00:00 0 [rollup]\nRss: 900 kB\nPss: 640 kB\n"
    assert harness.parse_pss_kib(text) == 640
    with pytest.raises(ValueError):
        harness.parse_pss_kib("Rss: 1 kB\n")


def _hold_private_memory(mib: int, ready, release) -> None:
    block = bytearray(mib * 1024 * 1024)
    for i in range(0, len(block), 4096):
        block[i] = 1
    ready.set()
    release.wait(30)


@pytest.mark.skipif(
    not Path("/proc/self/smaps_rollup").exists(), reason="needs Linux PSS"
)
def test_pss_tree_sums_workers_and_honours_exclusions():
    context = multiprocessing.get_context("spawn")
    release = context.Event()
    children = []
    try:
        for _ in range(2):
            ready = context.Event()
            child = context.Process(
                target=_hold_private_memory, args=(24, ready, release)
            )
            child.start()
            children.append(child)
            assert ready.wait(30)
        own = harness.pss_tree_mib(exclude=[c.pid for c in children])
        both = harness.pss_tree_mib()
        one = harness.pss_tree_mib(exclude=[children[0].pid])
        pids = harness.descendant_pids(os.getpid())
        assert {c.pid for c in children} <= set(pids)
        # Each worker holds >= 24 MiB of private pages.
        assert both - own >= 2 * 24
        assert both - one >= 24
        assert one - own >= 24
    finally:
        release.set()
        for child in children:
            child.join(30)
            assert not child.is_alive()


# -- self-time subtraction -----------------------------------------------------


def test_self_times_subtract_direct_children_only():
    row = {
        "root": (None, 10.0),
        "a": ("root", 6.0),
        "b": ("a", 4.0),
        "c": ("root", 1.0),
    }
    assert harness.self_times(row) == {"root": 3.0, "a": 2.0, "b": 4.0, "c": 1.0}


def test_ledger_means_and_unaccounted_share():
    rows = [
        {"root": (None, 0.010), "a": ("root", 0.006), "gap": ("root", 0.002)},
        {"root": (None, 0.020), "a": ("root", 0.012), "gap": ("root", 0.004)},
    ]
    layer_of = {"root": "outer_ms", "a": "inner_ms", "gap": None}
    means, unaccounted = harness.ledger(rows, layer_of, "root")
    assert means == pytest.approx({"outer_ms": 3.0, "inner_ms": 9.0})
    # The unmapped span's self time is the unaccounted part.
    assert unaccounted == pytest.approx(6.0 / 30.0)


def test_span_log_sums_repeated_spans_of_one_op():
    log = SpanLog()
    log.add(0, "root", None, 0.5)
    log.add(0, "leaf", "root", 0.1)
    log.add(0, "leaf", "root", 0.2)
    log.add(1, "root", None, 0.4)
    ops = log.ops()
    assert ops[0]["leaf"] == ("root", pytest.approx(0.3))
    assert harness.self_times(ops[0])["root"] == pytest.approx(0.2)
    assert set(ops) == {0, 1}


# -- the result contract -------------------------------------------------------


def test_result_line_requires_every_declared_metric():
    units = {"a_ms": "ms", "b": "count"}
    line = json.loads(
        harness.result_line(
            correct=True, attempted=3, failed=0,
            metrics={"a_ms": 1.5, "b": 2}, units=units,
        )
    )
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["metrics"]["a_ms"] == {"value": 1.5, "unit": "ms"}
    with pytest.raises(KeyError):
        harness.result_line(
            correct=True, attempted=1, failed=0, metrics={"a_ms": 1.0},
            units=units,
        )


def test_benchmark_json_matches_declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    from perfbench.run import WORKLOADS

    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    layers = json.loads((ROOT / "perfbench" / "layers.json").read_text())
    for workload in layers["workloads"]:
        for name in [*workload["moves"], *workload["bypasses"]]:
            assert name in harness.PER_LAYER, name
        for moved in workload["moves"].values():
            assert moved in harness.END_TO_END, moved
    named = {n for w in layers["workloads"] for n in w["moves"]}
    assert named == set(harness.PER_LAYER) - {"ledger.void_rows"}
