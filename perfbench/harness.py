"""Measurement arithmetic shared by the workloads.

Percentiles with a minimum tail, open-loop due-time latency, PSS summed
over a process tree, the span log that per-layer self times are derived
from, provenance, and the result line the benchmark prints last.
"""

from __future__ import annotations

import ctypes
import json
import math
import os
import platform
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path

#: A reported percentile must have at least this many samples above it.
MIN_TAIL = 10

#: End-to-end metrics (untraced runs): name -> unit. Every workload
#: reports every one of them; ``perfbench/README.md`` defines each per
#: workload.
END_TO_END = {
    "setup_s": "s",
    "memory_mib": "MiB",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "qps": "q/s",
    "batch_p50_ms": "ms",
    "batch_p90_ms": "ms",
    "planted_recall_at_10": "ratio",
}

#: Per-layer metrics (traced runs): name -> unit. A layer a workload
#: does not touch reports 0.
PER_LAYER = {
    "server.http_ms": "ms",
    "server.self_ms": "ms",
    "server.wire_ms": "ms",
    "server.request_bytes": "bytes",
    "server.response_bytes": "bytes",
    "core.query_sketch_ms": "ms",
    "core.self_ms": "ms",
    "hashing.hash_ms": "ms",
    "table.csv_sketch_ms": "ms",
    "catalog.add_ms": "ms",
    "catalog.self_ms": "ms",
    "catalog.remove_ms": "ms",
    "catalog.compact_ms": "ms",
    "catalog.delta_size": "count",
    "catalog.tombstones": "count",
    "ingest_rows_per_s": "rows/s",
    "coalescer.submit_ms": "ms",
    "coalescer.self_ms": "ms",
    "coalescer.queue_wait_ms": "ms",
    "coalescer.batch_size_mean": "count",
    "session.self_ms": "ms",
    "workers.self_ms": "ms",
    "workers.pickle_ms": "ms",
    "workers.parallel_efficiency": "ratio",
    "router.self_ms": "ms",
    "router.shard_skew": "ratio",
    "engine.self_ms": "ms",
    "engine.retrieve_ms": "ms",
    "engine.assemble_ms": "ms",
    "scoring.score_ms": "ms",
    "bootstrap.ms": "ms",
    "ranker.rank_ms": "ms",
    "engine.candidates_per_query": "count",
    "engine.join_sample_rows": "count",
    "snapshot.save_ms": "ms",
    "snapshot.bytes": "bytes",
    "snapshot.load_ms": "ms",
    "engine.first_query_ms": "ms",
    "unaccounted_share": "ratio",
    "trace_overhead_share": "ratio",
    "generator_lag_ms": "ms",
    "ledger.void_rows": "count",
}


# -- percentiles ---------------------------------------------------------------


def samples_beyond(n: int, q: float) -> int:
    """Samples strictly above the nearest-rank ``q``-th percentile of
    ``n`` samples."""
    return n - math.ceil(q / 100.0 * n)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (an observed value, never interpolated)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_ok(values, q: float) -> bool:
    """True when the ``q``-th percentile has enough samples beyond it."""
    return samples_beyond(len(values), q) >= MIN_TAIL


#: Time segments a run is split into for its percentiles and rates.
SEGMENTS = 5


def _segment(times, values, segments: int) -> list[list[float]]:
    """``values`` split into ``segments`` equal spans of their ``times``."""
    start, end = min(times), max(times)
    width = (end - start) / segments or 1.0
    out: list[list[float]] = [[] for _ in range(segments)]
    for t, v in zip(times, values):
        out[min(segments - 1, int((t - start) / width))].append(v)
    return out


def segmented_percentile(times, values, q: float, segments: int = SEGMENTS) -> float:
    """The median over equal time segments of each segment's ``q``-th
    percentile, when every segment has :data:`MIN_TAIL` samples beyond
    it; otherwise the percentile of the whole run.

    A burst of host noise then moves one segment's figure instead of the
    run's, so runs of the same code agree more closely.
    """
    parts = _segment(times, values, segments)
    if all(tail_ok(part, q) for part in parts):
        return statistics.median(percentile(part, q) for part in parts)
    return percentile(values, q)


def segmented_rate(times, counts, start: float, end: float, segments: int = SEGMENTS) -> float:
    """Median over equal spans of ``[start, end]`` of the work completed
    per second in each (``counts[i]`` completes at ``times[i]``)."""
    width = (end - start) / segments
    done = [0.0] * segments
    for t, c in zip(times, counts):
        done[min(segments - 1, max(0, int((t - start) / width)))] += c
    return statistics.median(d / width for d in done)


# -- set-up --------------------------------------------------------------------


def set_up(build, repeats: int):
    """Run ``build()`` ``repeats`` times, closing every result but the
    last; returns the last one and the seconds each build took."""
    built = None
    seconds = []
    for _ in range(repeats):
        if built is not None:
            built.close()
        start = time.perf_counter()
        built = build()
        seconds.append(time.perf_counter() - start)
    return built, seconds


# -- open loop -----------------------------------------------------------------


def due_time(start: float, rate: float, index: int) -> float:
    """When request ``index`` of a fixed-rate schedule is due."""
    return start + index / rate


def open_loop_times(
    due: float, sent: float, done: float
) -> tuple[float, float]:
    """(latency, generator lag) of one open-loop request, in seconds.

    Latency runs from the due time, so a stall that delays later sends
    is charged to them; the lag is how late the send itself was.
    """
    return done - due, sent - due


# -- memory --------------------------------------------------------------------


def parse_pss_kib(smaps_rollup: str) -> int:
    """The ``Pss:`` field of a ``/proc/<pid>/smaps_rollup`` text, in KiB."""
    for line in smaps_rollup.splitlines():
        if line.startswith("Pss:"):
            return int(line.split()[1])
    raise ValueError("no Pss line in smaps_rollup")


def descendant_pids(pid: int) -> list[int]:
    """Every live descendant of ``pid`` (children of all its threads)."""
    found: list[int] = []
    frontier = [pid]
    while frontier:
        parent = frontier.pop()
        task_dir = Path(f"/proc/{parent}/task")
        try:
            tids = os.listdir(task_dir)
        except OSError:
            continue
        for tid in tids:
            try:
                text = (task_dir / tid / "children").read_text()
            except OSError:
                continue
            for child in text.split():
                child_pid = int(child)
                if child_pid not in found:
                    found.append(child_pid)
                    frontier.append(child_pid)
    return found


def trim_heap() -> None:
    """Hand this process's free heap back to the OS (glibc
    ``malloc_trim``), so a PSS reading counts live memory rather than
    what the allocator kept after a heap-churning loop; a no-op off
    glibc."""
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):
        pass


def pss_tree_mib(pid: int | None = None, exclude=()) -> float:
    """PSS of ``pid`` plus all its descendants, in MiB.

    PSS charges each shared page 1/N to each of the N processes mapping
    it, so the sum counts arena pages shared by forked workers once.
    Processes in ``exclude`` (and their descendants) are left out.
    """
    pid = os.getpid() if pid is None else pid
    skip = set(exclude)
    for excluded in exclude:
        skip.update(descendant_pids(excluded))
    total_kib = 0
    for member in [pid, *descendant_pids(pid)]:
        if member in skip:
            continue
        try:
            text = Path(f"/proc/{member}/smaps_rollup").read_text()
        except OSError:
            continue  # exited between listing and reading
        total_kib += parse_pss_kib(text)
    return total_kib / 1024.0


# -- spans and the per-layer ledger --------------------------------------------


class SpanLog:
    """In-memory spans recorded around calls into the program's layers.

    A span is ``(op, name, parent, start, end)``: spans of one operation
    share ``op``, and ``parent`` names the span whose entry point the
    measured call stands beneath. The log is written out with the run's
    record when the benchmark ends.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, str | None, float, float]] = []

    @contextmanager
    def span(self, op: int, name: str, parent: str | None = None):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.spans.append((op, name, parent, start, time.perf_counter()))

    def add(self, op: int, name: str, parent: str | None, seconds: float):
        """Record a duration measured elsewhere (e.g. summed sub-calls)."""
        self.spans.append((op, name, parent, 0.0, seconds))

    def ops(self) -> dict[int, dict[str, tuple[str | None, float]]]:
        """op -> {span name: (parent, total seconds)}."""
        out: dict[int, dict[str, tuple[str | None, float]]] = {}
        for op, name, parent, start, end in self.spans:
            row = out.setdefault(op, {})
            prior = row.get(name, (parent, 0.0))[1]
            row[name] = (parent, prior + (end - start))
        return out

    def to_list(self, limit: int = 2000) -> list[dict]:
        return [
            {
                "op": op,
                "name": name,
                "parent": parent,
                "ms": (end - start) * 1000.0,
            }
            for op, name, parent, start, end in self.spans[:limit]
        ]


def self_times(row: dict[str, tuple[str | None, float]]) -> dict[str, float]:
    """Self time of every span of one op: its duration minus the
    durations of the spans directly beneath it."""
    selfs = {name: seconds for name, (_, seconds) in row.items()}
    for name, (parent, seconds) in row.items():
        if parent is not None:
            selfs[parent] -= seconds
    return selfs


def ledger(
    rows: list[dict[str, tuple[str | None, float]]],
    layer_of: dict[str, str | None],
    root: str,
) -> tuple[dict[str, float], float]:
    """Mean per-op self time of each layer (ms) and the unaccounted share.

    ``layer_of`` maps span names to the layer metric their self time is
    charged to; a span mapped to None (or absent) is time inside some
    entry point that no named layer covers. The unaccounted share is one
    minus the summed layer self times over the root span (the operation
    as the workload timed it).
    """
    if not rows:
        return {}, 0.0
    totals: dict[str, float] = {}
    root_total = 0.0
    for row in rows:
        root_total += row[root][1]
        for name, seconds in self_times(row).items():
            layer = layer_of.get(name)
            if layer is not None:
                totals[layer] = totals.get(layer, 0.0) + seconds
    means = {layer: s * 1000.0 / len(rows) for layer, s in totals.items()}
    accounted = sum(totals.values())
    return means, 1.0 - accounted / root_total


def paired_overhead(calls) -> float:
    """Tracing overhead: each ``call(trace)`` runs untraced and traced,
    alternating which goes first; returns traced over untraced time,
    minus one."""
    spent = {False: 0.0, True: 0.0}
    for i, call in enumerate(calls):
        for trace in (False, True) if i % 2 == 0 else (True, False):
            start = time.perf_counter()
            call(trace)
            spent[trace] += time.perf_counter() - start
    return spent[True] / spent[False] - 1.0


# -- provenance and output -----------------------------------------------------


def git_revision(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git;
    ``"unknown"`` outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref:"):
            return head
        ref = head.split(None, 1)[1]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(root: Path, *, seed: int, smoke: bool) -> dict:
    import numpy

    return {
        "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_revision": git_revision(root),
        "seed": seed,
        "run": "smoke" if smoke else "full",
        "unix_time": time.time(),
    }


def record_path(out_dir: Path, *, smoke: bool, name: str) -> Path:
    """Where a run's record goes: smoke and full runs never share a
    directory."""
    return out_dir / ("smoke" if smoke else "full") / name


def write_record(path: Path, record: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1, sort_keys=True))


def result_line(
    *, correct: bool, attempted: int, failed: int, metrics: dict, units: dict
) -> str:
    """The JSON object printed as the last line of standard output."""
    missing = set(units) - set(metrics)
    if missing:
        raise KeyError(f"metrics not measured: {sorted(missing)}")
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": {
                name: {"value": float(metrics[name]), "unit": unit}
                for name, unit in units.items()
            },
        }
    )
