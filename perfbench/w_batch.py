"""``batch-deep-sharded``: closed-loop query batches over forked workers.

An in-process ``QuerySession.open`` on a 4-shard arena manifest with
``query_workers=2``. Keys come from one Zipf-skewed universe, so every
query fills a full candidate page and candidates repeat across the
queries of a batch; one caller submits batches of pre-sketched queries
with the ``rb_cib`` scorer. No HTTP, JSON or query sketching: the time
goes to retrieval, assembly, scoring, bootstrap, ranking, the router's
merge and worker IPC.
"""

from __future__ import annotations

import pickle
import time
from dataclasses import dataclass

import numpy as np

from repro.index.catalog import SketchCatalog
from repro.index.engine import JoinCorrelationEngine
from repro.index.options import QueryOptions
from repro.serving.session import QuerySession
from repro.serving.shards import ShardedCatalog

from perfbench import corpus as gen
from perfbench import harness
from perfbench.harness import SpanLog
from perfbench.stages import answer_key, build_sketches, replay_stages, sketch_of

SHARDS = 4
QUERY_WORKERS = 2
BATCH = 12
SCORER = "rb_cib"
SETUP_REPEATS = 3
COLD_STARTS = 7
#: Pool queries checked against a monolithic engine each run.
CHECKED = 16


@dataclass(frozen=True)
class Sizes:
    universe: int = 20000
    exponent: float = 1.1
    background: int = 1024
    table_keys: int = 120
    queries: int = 144
    planted_overlaps: tuple = (0.25, 0.5, 0.75, 1.0)


SMOKE = Sizes(universe=4000, background=128, queries=32)


class Deployed:
    """A generated corpus behind a pooled sharded session."""

    def __init__(self, ctx, sizes: Sizes) -> None:
        rng = np.random.default_rng(ctx.seed)
        self.corpus = gen.zipf_corpus(
            rng,
            universe=sizes.universe,
            exponent=sizes.exponent,
            background=sizes.background,
            table_keys=sizes.table_keys,
            queries=sizes.queries,
            planted_overlaps=sizes.planted_overlaps,
        )
        catalog = ShardedCatalog(SHARDS)
        catalog.add_sketches(build_sketches(self.corpus.tables, catalog))
        # Only the queries and their planted ids outlive set-up: forked
        # workers would otherwise inherit the generated tables.
        self.corpus.tables.clear()
        self.path = ctx.workdir / "batch-manifest"
        start = time.perf_counter()
        catalog.save(self.path, layout="arena")
        self.save_s = time.perf_counter() - start
        del catalog
        self.options = QueryOptions(scorer=SCORER)
        self.session = self.open()
        self.queries = [
            sketch_of(q.keys, q.values, self.session.catalog)
            for q in self.corpus.queries
        ]
        self.batches = [
            self.queries[i : i + BATCH] for i in range(0, len(self.queries), BATCH)
        ]
        self.session.warm()
        self.session.submit(self.batches[0])

    def open(self) -> QuerySession:
        return QuerySession.open(
            self.path, self.options, query_workers=QUERY_WORKERS
        )

    def close(self) -> None:
        self.session.close()


def _cold_starts(deployed: Deployed) -> tuple[list[float], list[float]]:
    """Reopen the manifest and answer a batch (forking the workers),
    ``COLD_STARTS`` times, each cycle with the next pool batch."""
    opens, firsts = [], []
    for i in range(COLD_STARTS):
        start = time.perf_counter()
        session = deployed.open()
        opened = time.perf_counter()
        session.submit(deployed.batches[i % len(deployed.batches)])
        done = time.perf_counter()
        session.close()
        opens.append(opened - start)
        firsts.append(done - opened)
    return opens, firsts


def run(ctx):
    sizes = SMOKE if ctx.smoke else Sizes()
    deployed, setup_times = harness.set_up(
        lambda: Deployed(ctx, sizes), 1 if ctx.trace else SETUP_REPEATS
    )
    try:
        if ctx.trace:
            return _traced(ctx, deployed)
        return _measure(ctx, deployed, setup_times)
    finally:
        deployed.close()


def _monolithic_mismatches(deployed: Deployed, answers, seed: int) -> list[int]:
    """Pool queries (a seeded sample) whose pooled sharded answer differs
    from a monolithic engine over the same sketches."""
    sharded = deployed.session.catalog
    mono = SketchCatalog()
    for i in range(sharded.n_shards):
        shard = sharded.shard(i)
        mono.add_sketches((sid, shard.get(sid)) for sid in shard)
    engine = JoinCorrelationEngine(mono)
    rng = np.random.default_rng(seed)
    sample = sorted(
        rng.choice(len(deployed.queries), size=min(CHECKED, len(deployed.queries)), replace=False)
    )
    expected = engine.query_batch(
        [deployed.queries[i] for i in sample],
        k=deployed.options.k,
        scorer=deployed.options.scorer,
    )
    return [
        i
        for i, result in zip(sample, expected)
        if answer_key(result.ranked) != answers[i]
    ]


def _measure(ctx, deployed: Deployed, setup_times):
    session = deployed.session
    first_pass: list = [None] * len(deployed.queries)
    batch_starts = []
    batch_times = []
    failed = attempted = 0
    b = 0
    deadline = time.perf_counter() + ctx.seconds
    loop_start = time.perf_counter()
    while time.perf_counter() < deadline:
        index = b % len(deployed.batches)
        batch = deployed.batches[index]
        start = time.perf_counter()
        results = session.submit(batch)
        batch_starts.append(start)
        batch_times.append(time.perf_counter() - start)
        attempted += len(batch)
        for j, result in enumerate(results):
            q = index * BATCH + j
            key = answer_key(result.ranked)
            if first_pass[q] is None:
                first_pass[q] = key
            elif key != first_pass[q]:
                failed += 1
        b += 1
    loop_s = time.perf_counter() - loop_start
    memory = harness.pss_tree_mib()
    missing = [q for q, key in enumerate(first_pass) if key is None]
    if missing:
        raise RuntimeError(
            f"{len(missing)} pool queries never ran in {ctx.seconds} s; "
            "lengthen --seconds"
        )
    mismatched = _monolithic_mismatches(deployed, first_pass, ctx.seed)
    failed += len(mismatched)
    found = planted = 0
    for q, query in enumerate(deployed.corpus.queries):
        hit, total = gen.recall_at_10([cid for cid, _ in first_pass[q]], query.planted)
        found += hit
        planted += total
    # A query's latency is that of the batch carrying it.
    sizes = [len(deployed.batches[b % len(deployed.batches)]) for b in range(len(batch_times))]
    query_starts = [t for t, n in zip(batch_starts, sizes) for _ in range(n)]
    latencies = [t for t, n in zip(batch_times, sizes) for _ in range(n)]
    done = [s + t for s, t in zip(batch_starts, batch_times)]
    metrics = {
        "setup_s": float(np.median(setup_times)),
        "memory_mib": memory,
        "latency_p50_ms": harness.segmented_percentile(query_starts, latencies, 50) * 1000.0,
        "latency_p90_ms": harness.segmented_percentile(query_starts, latencies, 90) * 1000.0,
        "qps": harness.segmented_rate(done, sizes, loop_start, loop_start + loop_s),
        "batch_p50_ms": harness.segmented_percentile(batch_starts, batch_times, 50) * 1000.0,
        "batch_p90_ms": harness.segmented_percentile(batch_starts, batch_times, 90) * 1000.0,
        "planted_recall_at_10": found / planted,
    }
    record = {
        "batches": len(batch_times),
        "batch_size": BATCH,
        "batch_p90_tail_ok": harness.tail_ok(batch_times, 90),
        "monolithic_mismatches": mismatched,
        "setup_times_s": setup_times,
    }
    return failed == 0, attempted, failed, metrics, record


LAYER_OF = {
    "session": "session.self_ms",
    "pool": "workers.self_ms",
    "router": "router.self_ms",
    "retrieve": "engine.retrieve_ms",
    "assemble": "engine.assemble_ms",
    "score": "scoring.score_ms",
    "bootstrap": "bootstrap.ms",
    "rank": "ranker.rank_ms",
}


def _chunks(n: int, workers: int) -> list[tuple[int, int]]:
    """The pool's contiguous query slices for a batch of ``n``."""
    parts = min(workers, n)
    bounds = [round(i * n / parts) for i in range(parts + 1)]
    return list(zip(bounds, bounds[1:]))


def _traced(ctx, deployed: Deployed):
    session = deployed.session
    pool = session.backend
    router = pool.router
    catalog = router.catalog
    shards = [catalog.shard(i) for i in range(catalog.n_shards)]
    opts = session.options

    overhead = harness.paired_overhead(
        [
            lambda trace, batch=batch: session.submit(batch, trace=trace)
            for batch in deployed.batches * 2
        ]
    )

    log = SpanLog()
    void = 0
    failed = 0
    pickle_s = []
    efficiency = []
    skew = []
    candidates = []
    rows = []
    deadline = time.perf_counter() + ctx.seconds / 2
    op = -1
    while op + 1 < 2 * len(deployed.batches) or time.perf_counter() < deadline:
        op += 1
        batch = deployed.batches[op % len(deployed.batches)]
        n = len(batch)
        call = dict(k=opts.k, scorer=opts.scorer, exclude_ids=[None] * n,
                    true_correlations=[None] * n)
        # Alternate which entry point runs first, so neither gains from
        # always following the other.
        calls = [
            ("session", None, lambda: session.submit(batch)),
            ("pool", "session", lambda: pool.query_batch(batch, **call)),
        ]
        answered, seconds = {}, {}
        for name, parent, fn in calls if op % 2 == 0 else calls[::-1]:
            start = time.perf_counter()
            answered[name] = fn()
            seconds[name] = time.perf_counter() - start
            log.add(op, name, parent, seconds[name])
        pooled = answered["pool"]
        if [answer_key(r.ranked) for r in pooled] != [
            answer_key(r.ranked) for r in answered["session"]
        ]:
            failed += 1
        chunk_times = []
        for lo, hi in _chunks(n, QUERY_WORKERS):
            start = time.perf_counter()
            router.query_batch(
                batch[lo:hi], k=opts.k, scorer=opts.scorer,
                exclude_ids=[None] * (hi - lo),
                true_correlations=[None] * (hi - lo),
            )
            chunk_times.append((time.perf_counter() - start, lo, hi))
        slowest, lo, hi = max(chunk_times)
        log.add(op, "router", "pool", slowest)
        efficiency.append(
            sum(t for t, _, _ in chunk_times) / (QUERY_WORKERS * seconds["pool"])
        )
        answers, facts = replay_stages(
            log, op, "router", shards, batch[lo:hi],
            depth=opts.depth, k=opts.k, scorer=opts.scorer,
        )
        if [answer_key(a) for a in answers] != [
            answer_key(r.ranked) for r in pooled[lo:hi]
        ]:
            void += 1
            log.spans = [s for s in log.spans if s[0] != op]
            continue
        busy = facts["partition_seconds"]
        skew.append(max(busy) / (sum(busy) / len(busy)))
        candidates.append(facts["candidates"])
        rows.append(facts["sample_rows"])
        start = time.perf_counter()
        for a, b in _chunks(n, QUERY_WORKERS):
            task = (0, batch[a:b], opts.k, opts.scorer, [None] * (b - a),
                    [None] * (b - a), None, {})
            pickle.loads(pickle.dumps(task))
            pickle.loads(pickle.dumps((0, pooled[a:b])))
        pickle_s.append(time.perf_counter() - start)
    rows_ok = list(log.ops().values())
    layers, unaccounted = harness.ledger(rows_ok, LAYER_OF, "session")
    opens, firsts = _cold_starts(deployed)
    metrics = dict.fromkeys(harness.PER_LAYER, 0.0)
    metrics.update(layers)
    metrics.update(
        {
            "workers.pickle_ms": float(np.mean(pickle_s)) * 1000.0,
            "workers.parallel_efficiency": float(np.mean(efficiency)),
            "router.shard_skew": float(np.mean(skew)) if skew else 0.0,
            "engine.candidates_per_query": float(np.mean(candidates)) if candidates else 0.0,
            "engine.join_sample_rows": float(np.mean(rows)) if rows else 0.0,
            "snapshot.save_ms": deployed.save_s * 1000.0,
            "snapshot.bytes": float(
                sum(f.stat().st_size for f in deployed.path.iterdir())
            ),
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
        "batch_size": BATCH,
    }
    return failed == 0, op + 1, failed, metrics, record
