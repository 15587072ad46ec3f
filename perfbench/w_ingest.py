"""``ingest-mixed``: writes beside reads on one monolithic catalog.

The catalog is opened from an arena snapshot. Each cycle ingests a CSV
table with ``add_csv_streaming``, removes one base sketch (leaving a
tombstone) and answers a batch of queries; every ``COMPACT_EVERY``
writes (ingests and removes) it calls ``compact()``, as an operator's
``catalog compact`` would. At the end the live catalog is compacted, saved as an arena
snapshot and reopened, and the reopened catalog must answer as the live
one; the traced run reopens it repeatedly, timing load through the
first answer. The only workload that parses CSV, sketches at ingest,
probes delta and tombstones, compacts, and saves a mutated catalog.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.index.catalog import SketchCatalog
from repro.serving.session import QuerySession
from repro.table.streaming import stream_sketch_csv

from perfbench import corpus as gen
from perfbench import harness
from perfbench.harness import SpanLog
from perfbench.stages import answer_key, build_sketches, replay_stages, sketch_of

SETUP_REPEATS = 3
COLD_STARTS = 21
COMPACT_EVERY = 32
QUERIES_PER_CYCLE = 6


@dataclass(frozen=True)
class Sizes:
    domains: int = 128
    tables_per_domain: int = 8
    planted_per_domain: int = 2
    domain_keys: int = 600
    table_rows: int = 300
    queries: int = 64
    query_rows: int = 400
    csv_rows: int = 2000


SMOKE = Sizes(domains=16, queries=8, csv_rows=400)


class Live:
    """A catalog opened from an arena snapshot, ready for mixed writes."""

    def __init__(self, ctx, sizes: Sizes) -> None:
        rng = np.random.default_rng(ctx.seed)
        corpus, self.names, self.latent = gen.domain_corpus(
            rng,
            domains=sizes.domains,
            tables_per_domain=sizes.tables_per_domain,
            planted_per_domain=sizes.planted_per_domain,
            domain_keys=sizes.domain_keys,
            table_rows=sizes.table_rows,
            queries=sizes.queries,
            query_rows=sizes.query_rows,
        )
        catalog = SketchCatalog()
        catalog.add_sketches(build_sketches(corpus.tables, catalog))
        base = ctx.workdir / "ingest-base.arena"
        catalog.save(base)
        self.catalog = SketchCatalog.load(base)
        self.session = QuerySession.for_catalog(self.catalog)
        self.queries = [
            sketch_of(q.keys, q.values, self.catalog) for q in corpus.queries
        ]
        self.planted = [q.planted for q in corpus.queries]
        self.session.submit(self.queries[:1])
        # The stream's own inputs: which domain each CSV draws from and
        # which base sketch each cycle removes.
        self.rng = np.random.default_rng([ctx.seed, 1])
        self.removals = [str(t) for t in self.rng.permutation(corpus.background)]
        self.csv_rows = sizes.csv_rows
        self.workdir = ctx.workdir
        self.cycle = 0
        self.writes = 0
        self.removed: set[str] = set()
        self.ingested: list[str] = []

    def next_csv(self):
        """Write the next cycle's CSV file (input preparation, untimed)."""
        d = int(self.rng.integers(len(self.names)))
        path = self.workdir / f"w{self.cycle}.csv"
        path.write_text(
            gen.csv_text(self.rng, self.names[d], self.latent[d], self.csv_rows)
        )
        return path

    def next_queries(self) -> list[int]:
        start = self.cycle * QUERIES_PER_CYCLE
        return [
            (start + j) % len(self.queries) for j in range(QUERIES_PER_CYCLE)
        ]

    def close(self) -> None:
        self.session.close()


def _save_and_reopen(live: Live, cycles: int):
    """Save the live catalog, then reopen it ``cycles`` times, each cycle
    answering the next pool query.

    Returns (save seconds, path, open seconds, first-answer seconds, the
    last reopened session — left open for the answer check).
    """
    path = live.workdir / "ingest-final.arena"
    # Fold first, as an operator's compact-then-save would: the reopened
    # catalog then does not depend on where in a compaction window the
    # time-bound stream stopped.
    live.catalog.compact()
    start = time.perf_counter()
    live.catalog.save(path)
    save_s = time.perf_counter() - start
    opens, firsts = [], []
    session = None
    for i in range(cycles):
        if session is not None:
            session.close()
        sketch = live.queries[i % len(live.queries)]
        start = time.perf_counter()
        session = QuerySession.open(path)
        opened = time.perf_counter()
        session.submit([sketch])
        done = time.perf_counter()
        opens.append(opened - start)
        firsts.append(done - opened)
    return save_s, path, opens, firsts, session


def _reopen_mismatches(live: Live, reopened: QuerySession) -> int:
    """Pool queries the reopened snapshot answers differently from the
    live catalog."""
    mismatches = 0
    for sketch in live.queries:
        want = answer_key(live.session.submit([sketch])[0].ranked)
        got = answer_key(reopened.submit([sketch])[0].ranked)
        mismatches += want != got
    return mismatches


def run(ctx):
    sizes = SMOKE if ctx.smoke else Sizes()
    live, setup_times = harness.set_up(
        lambda: Live(ctx, sizes), 1 if ctx.trace else SETUP_REPEATS
    )
    try:
        if ctx.trace:
            return _traced(ctx, live)
        return _measure(ctx, live, setup_times)
    finally:
        live.close()


def _write(live: Live, path) -> tuple[float, float, float, bool]:
    """One write step: ingest, remove, and compact when due.

    Returns (add, remove, compact) seconds and whether it compacted.
    """
    catalog = live.catalog
    start = time.perf_counter()
    live.ingested.extend(catalog.add_csv_streaming(path))
    added = time.perf_counter()
    # Base sketches first (tombstones); once those run out, the oldest
    # ingested ones (erased from the delta, or tombstoned once folded).
    victim = live.removals.pop() if live.removals else live.ingested.pop(0)
    catalog.remove_sketch(victim)
    removed = time.perf_counter()
    live.removed.add(victim)
    live.writes += 2  # the ingest and the remove
    compacted = live.writes % COMPACT_EVERY == 0
    if compacted:
        catalog.compact()
    done = time.perf_counter()
    return added - start, removed - added, done - removed, compacted


def _measure(ctx, live: Live, setup_times):
    write_steps = []
    read_starts = []
    read_batches = []
    query_starts = []
    latencies = []
    found = planted = failed = attempted = 0
    rows = 0
    deadline = time.perf_counter() + ctx.seconds
    loop_start = time.perf_counter()
    while time.perf_counter() < deadline:
        path = live.next_csv()
        add_s, remove_s, compact_s, _ = _write(live, path)
        write_steps.append(add_s + remove_s + compact_s)
        rows += live.csv_rows
        attempted += 2
        read_starts.append(time.perf_counter())
        for q in live.next_queries():
            start = time.perf_counter()
            result = live.session.submit([live.queries[q]])[0]
            query_starts.append(start)
            latencies.append(time.perf_counter() - start)
            attempted += 1
            ids = [c.candidate_id for c in result.ranked]
            if live.removed.intersection(ids):
                failed += 1
            if len(latencies) <= len(live.queries):
                hit, total = gen.recall_at_10(ids, live.planted[q])
                found += hit
                planted += total
        read_batches.append(time.perf_counter() - read_starts[-1])
        live.cycle += 1
    loop_s = time.perf_counter() - loop_start
    if len(latencies) < len(live.queries):
        raise RuntimeError(
            f"only {len(latencies)} queries ran in {ctx.seconds} s; "
            "lengthen --seconds"
        )
    # The stream churns the heap (CSV rows, delta folds); what glibc
    # keeps of it afterwards varied by about 10% between runs.
    harness.trim_heap()
    memory = harness.pss_tree_mib()
    _, _, _, _, reopened = _save_and_reopen(live, 1)
    try:
        mismatches = _reopen_mismatches(live, reopened)
    finally:
        reopened.close()
    failed += mismatches
    attempted += len(live.queries)
    metrics = {
        "setup_s": float(np.median(setup_times)),
        "memory_mib": memory,
        "latency_p50_ms": harness.segmented_percentile(query_starts, latencies, 50) * 1000.0,
        "latency_p90_ms": harness.segmented_percentile(query_starts, latencies, 90) * 1000.0,
        "qps": harness.segmented_rate(
            np.add(query_starts, latencies), [1] * len(latencies),
            loop_start, loop_start + loop_s,
        ),
        "batch_p50_ms": harness.segmented_percentile(read_starts, read_batches, 50) * 1000.0,
        "batch_p90_ms": harness.segmented_percentile(read_starts, read_batches, 90) * 1000.0,
        "planted_recall_at_10": found / planted,
    }
    record = {
        "cycles": live.cycle,
        "queries": len(latencies),
        "csv_rows_per_s": rows / sum(write_steps),
        "reopen_mismatches": mismatches,
        "latency_p99_ms_whole_run": harness.percentile(latencies, 99) * 1000.0,
        "write_step_p50_ms": harness.percentile(write_steps, 50) * 1000.0,
        "batch_p90_tail_ok": harness.tail_ok(read_batches, 90),
        "setup_times_s": setup_times,
    }
    return failed == 0, attempted, failed, metrics, record


LAYER_OF = {
    "cycle": None,
    "add": "catalog.self_ms",
    "refresh": "catalog.self_ms",
    "csv": "table.csv_sketch_ms",
    "remove": "catalog.remove_ms",
    "compact": "catalog.compact_ms",
    "session": "session.self_ms",
    "engine": "engine.self_ms",
    "retrieve": "engine.retrieve_ms",
    "assemble": "engine.assemble_ms",
    "score": "scoring.score_ms",
    "bootstrap": "bootstrap.ms",
    "rank": "ranker.rank_ms",
}


def _traced(ctx, live: Live):
    session, catalog = live.session, live.catalog
    opts = session.options

    overhead = harness.paired_overhead(
        [
            lambda trace, sketch=sketch: session.submit([sketch], trace=trace)
            for sketch in live.queries * 2
        ]
    )

    log = SpanLog()
    void = failed = 0
    adds, removes, compactions = [], [], []
    deltas, tombstones, candidates, rows = [], [], [], []
    probe_keys = live.queries[0].columnar().key_hashes
    deadline = time.perf_counter() + ctx.seconds / 2
    cycles = 0
    while cycles < COMPACT_EVERY or time.perf_counter() < deadline:
        op = live.cycle
        path = live.next_csv()
        queries = [live.queries[q] for q in live.next_queries()]
        cycle_start = time.perf_counter()
        add_s, remove_s, compact_s, compacted = _write(live, path)
        # A write drops the delta's frozen view and the tombstone mask;
        # the next probe rebuilds them. Probe once here so that catalog
        # work is charged to the catalog, not to whichever query or
        # replay happens to run first.
        with log.span(op, "refresh", "cycle"):
            catalog.probe_top_overlap(probe_keys, 1)
        deltas.append(catalog.delta_size)
        tombstones.append(catalog.tombstone_count)
        results = []
        with log.span(op, "session", "cycle"):
            for sketch in queries:
                results.append(session.submit([sketch])[0])
        log.add(op, "cycle", None, time.perf_counter() - cycle_start)
        log.add(op, "add", "cycle", add_s)
        log.add(op, "remove", "cycle", remove_s)
        adds.append(add_s)
        removes.append(remove_s)
        if compacted:
            log.add(op, "compact", "cycle", compact_s)
            compactions.append(compact_s)
        # Replays on the same inputs, outside the cycle's window.
        with log.span(op, "csv", "add"):
            stream_sketch_csv(
                path,
                catalog.sketch_size,
                aggregate=catalog.aggregate,
                hasher=catalog.hasher,
            )
        cycle_void = False
        for sketch, result in zip(queries, results):
            if live.removed.intersection(c.candidate_id for c in result.ranked):
                failed += 1
            with log.span(op, "engine", "session"):
                session.backend.query_batch(
                    [sketch], k=opts.k, scorer=opts.scorer,
                    exclude_ids=[None], true_correlations=[None],
                )
            answers, facts = replay_stages(
                log, op, "engine", [catalog], [sketch],
                depth=opts.depth, k=opts.k, scorer=opts.scorer,
            )
            if answer_key(answers[0]) != answer_key(result.ranked):
                cycle_void = True
            candidates.append(facts["candidates"])
            rows.append(facts["sample_rows"])
        if cycle_void:
            void += 1
            log.spans = [s for s in log.spans if s[0] != op]
        live.cycle += 1
        cycles += 1
    rows_ok = list(log.ops().values())
    layers, unaccounted = harness.ledger(rows_ok, LAYER_OF, "cycle")
    save_s, path, opens, firsts, reopened = _save_and_reopen(live, COLD_STARTS)
    try:
        failed += _reopen_mismatches(live, reopened)
    finally:
        reopened.close()
    write_s = sum(adds) + sum(removes) + sum(compactions)
    metrics = dict.fromkeys(harness.PER_LAYER, 0.0)
    metrics.update(layers)
    metrics.update(
        {
            "catalog.add_ms": float(np.mean(adds)) * 1000.0,
            "catalog.remove_ms": float(np.mean(removes)) * 1000.0,
            "catalog.compact_ms": float(np.mean(compactions)) * 1000.0,
            "catalog.delta_size": float(np.mean(deltas)),
            "catalog.tombstones": float(np.mean(tombstones)),
            "ingest_rows_per_s": cycles * live.csv_rows / write_s,
            "engine.candidates_per_query": float(np.mean(candidates)),
            "engine.join_sample_rows": float(np.mean(rows)),
            "snapshot.save_ms": save_s * 1000.0,
            "snapshot.bytes": float(path.stat().st_size),
            "snapshot.load_ms": float(np.median(opens)) * 1000.0,
            "engine.first_query_ms": float(np.median(firsts)) * 1000.0,
            "unaccounted_share": unaccounted,
            "trace_overhead_share": overhead,
            "ledger.void_rows": float(void),
        }
    )
    record = {
        "spans": log.to_list(),
        "ledger_rows": len(rows_ok),
        "ledger_ms_per_cycle": layers,
        "cycles": cycles,
        "compactions": len(compactions),
    }
    attempted = cycles * (2 + QUERIES_PER_CYCLE) + len(live.queries)
    return failed == 0, attempted, failed, metrics, record
