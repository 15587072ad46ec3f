"""``http-shallow``: served queries over HTTP at a fixed open-loop rate.

A :class:`~repro.serving.server.QueryService` (default coalescer
settings) serves an arena snapshot opened with ``QuerySession.open``.
Tables draw keys from disjoint domains, so a query joins only the few
tables of its domain: the front door (HTTP, JSON, query sketching,
coalescer) does most of the work and the engine stages little.
"""

from __future__ import annotations

import json
import multiprocessing
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.index.catalog import SketchCatalog
from repro.obs.trace import Trace
from repro.serving.server import QueryService
from repro.serving.session import QuerySession

from perfbench import corpus as gen
from perfbench import harness, loadgen
from perfbench.harness import SpanLog
from perfbench.stages import (
    answer_key,
    build_sketches,
    replay_stages,
    sketch_of,
    wire_answer_key,
)

#: Offered load, requests per second: a constant, a third of
#: CAPACITY_RPS. At half capacity (90 req/s, one request every 11 ms
#: against ~6 ms of service) the host's slow spells pushed service time
#: toward the arrival spacing, and p90 ranged 7-31 ms across seeds.
RATE_RPS = 60.0
#: Closed-loop capacity measured with 2 client connections on a 2-core
#: host (perfbench/README.md); RATE_RPS was derived from it once and is
#: not re-derived per run, so runs on one host stay comparable.
CAPACITY_RPS = 180.0
CONNECTIONS = 2
SETUP_REPEATS = 3
COLD_STARTS = 21
#: The checkout root: the client process imports ``perfbench`` from it.
ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Sizes:
    domains: int = 128
    tables_per_domain: int = 8
    planted_per_domain: int = 2
    domain_keys: int = 600
    table_rows: int = 300
    queries: int = 64
    query_rows: int = 400


SMOKE = Sizes(domains=16, queries=8)


class Served:
    """A generated corpus served over HTTP from an arena snapshot."""

    def __init__(self, ctx, sizes: Sizes) -> None:
        rng = np.random.default_rng(ctx.seed)
        self.corpus, _, _ = gen.domain_corpus(
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
        catalog.add_sketches(build_sketches(self.corpus.tables, catalog))
        self.corpus.tables.clear()
        self.path = ctx.workdir / "http.arena"
        start = time.perf_counter()
        catalog.save(self.path)
        self.save_s = time.perf_counter() - start
        del catalog
        self.session = QuerySession.open(self.path)
        self.service = QueryService(self.session).start()
        self.payloads = [
            {"keys": q.keys, "values": q.values.tolist()}
            for q in self.corpus.queries
        ]
        self.bodies = [json.dumps(p).encode() for p in self.payloads]
        self.traced_bodies = [
            json.dumps({**p, "trace": True}).encode() for p in self.payloads
        ]
        status, _ = loadgen.post(*self.service.address, self.bodies[0])
        if status != 200:
            raise RuntimeError(f"warm-up request failed with HTTP {status}")

    def direct_answers(self) -> list[list[tuple[str, str]]]:
        """Each pool query answered by ``QuerySession.submit`` directly."""
        return [
            answer_key(
                self.session.submit(
                    [self.session.query_sketch(q.keys, q.values)]
                )[0].ranked
            )
            for q in self.corpus.queries
        ]

    def close(self) -> None:
        self.service.stop()


class LoadGenerator:
    """The client process (see :mod:`perfbench.loadgen`).

    A plain child interpreter that inherits one end of a pipe, rather
    than a ``multiprocessing`` process: the ``spawn`` start method also
    starts a resource tracker that nothing waits for and that outlives
    the benchmark.
    """

    def __init__(self) -> None:
        self._conn, child = multiprocessing.Pipe()
        try:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "perfbench.loadgen", str(child.fileno())],
                cwd=ROOT,
                pass_fds=(child.fileno(),),
            )
        finally:
            child.close()

    def call(self, mode: str, **kwargs):
        self._conn.send((mode, kwargs))
        return self._conn.recv()

    def close(self) -> None:
        try:
            self._conn.send(None)
        except OSError:
            pass  # the child is gone already
        self._conn.close()
        try:
            self.process.wait(30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()


def _cold_starts(served: Served) -> tuple[list[float], list[float]]:
    """Reopen the snapshot and answer one query, ``COLD_STARTS`` times,
    each cycle with the next pool query: (open seconds, first-answer
    seconds) per cycle."""
    queries = served.corpus.queries
    opens, firsts = [], []
    for i in range(COLD_STARTS):
        q = queries[i % len(queries)]
        sketch = sketch_of(q.keys, q.values, served.session.catalog)
        start = time.perf_counter()
        session = QuerySession.open(served.path)
        opened = time.perf_counter()
        session.submit([sketch])
        done = time.perf_counter()
        session.close()
        opens.append(opened - start)
        firsts.append(done - opened)
    return opens, firsts


def run(ctx):
    sizes = SMOKE if ctx.smoke else Sizes()
    served, setup_times = harness.set_up(
        lambda: Served(ctx, sizes), 1 if ctx.trace else SETUP_REPEATS
    )
    client = LoadGenerator()
    try:
        if ctx.trace:
            return _traced(ctx, served, client)
        return _measure(ctx, served, client, setup_times)
    finally:
        client.close()
        served.close()


def _check(responses, direct, pool: int):
    """Failed request indices: non-200, unparsable, or an answer that is
    not bit-identical to the direct session's."""
    failed = []
    bodies = {}
    for i, status, body in responses:
        if status != 200:
            failed.append(i)
            continue
        try:
            payload = json.loads(body)
            same = wire_answer_key(payload) == direct[i % pool]
        except (ValueError, KeyError, TypeError):
            same = False
        if not same:
            failed.append(i)
        else:
            bodies[i] = payload
    return failed, bodies


def _measure(ctx, served: Served, client: LoadGenerator, setup_times):
    count = int(RATE_RPS * ctx.seconds)
    host, port = served.service.address
    results = client.call(
        "open",
        host=host,
        port=port,
        bodies=served.bodies,
        rate=RATE_RPS,
        count=count,
        connections=CONNECTIONS,
    )
    memory = harness.pss_tree_mib(exclude=[client.process.pid])
    pool = len(served.bodies)
    failed, payloads = _check(
        [(r[0], r[4], r[5]) for r in results], served.direct_answers(), pool
    )
    due = [r[1] for r in results]
    sent = [r[2] for r in results]
    latencies, lags = zip(*(harness.open_loop_times(*r[1:4]) for r in results))
    round_trips = [r[3] - r[2] for r in results]
    span = max(r[3] for r in results) - min(due)
    found = planted = 0
    for i, q in enumerate(served.corpus.queries):
        ids = [e["candidate_id"] for e in payloads[i]["ranked"]] if i in payloads else []
        hit, total = gen.recall_at_10(ids, q.planted)
        found += hit
        planted += total
    metrics = {
        "setup_s": float(np.median(setup_times)),
        "memory_mib": memory,
        "latency_p50_ms": harness.segmented_percentile(due, latencies, 50) * 1000.0,
        "latency_p90_ms": harness.segmented_percentile(due, latencies, 90) * 1000.0,
        "qps": (count - len(failed)) / span,
        "batch_p50_ms": harness.segmented_percentile(sent, round_trips, 50) * 1000.0,
        "batch_p90_ms": harness.segmented_percentile(sent, round_trips, 90) * 1000.0,
        "planted_recall_at_10": found / planted,
    }
    record = {
        "requests": count,
        "rate_rps": RATE_RPS,
        "capacity_rps": CAPACITY_RPS,
        "connections": CONNECTIONS,
        "latency_p99_ms_whole_run": harness.percentile(latencies, 99) * 1000.0,
        "failed_requests": failed[:50],
        "setup_times_s": setup_times,
        "generator_lag_p99_ms": harness.percentile(lags, 99) * 1000.0,
    }
    return not failed, count, len(failed), metrics, record


#: Span name -> the layer metric its self time is charged to. ``handle``
#: (``QueryService.handle_query`` minus the layers it calls) is not a
#: layer of its own, so it lands in the unaccounted share.
LAYER_OF = {
    "http": "server.self_ms",
    "handle": None,
    "sketch": "core.self_ms",
    "hash": "hashing.hash_ms",
    "coalescer": "coalescer.self_ms",
    "session": "session.self_ms",
    "engine": "engine.self_ms",
    "retrieve": "engine.retrieve_ms",
    "assemble": "engine.assemble_ms",
    "score": "scoring.score_ms",
    "bootstrap": "bootstrap.ms",
    "rank": "ranker.rank_ms",
}


def _traced(ctx, served: Served, client: LoadGenerator):
    service, session = served.service, served.session
    host, port = service.address
    pool = len(served.bodies)
    direct = served.direct_answers()

    # Under load: queue wait from the traced responses, coalescer
    # window sizes from its counters, generator lag from the schedule.
    before = service.coalescer.stats_snapshot()
    count = max(pool, int(RATE_RPS * ctx.seconds / 2))
    loaded = client.call(
        "open",
        host=host,
        port=port,
        bodies=served.traced_bodies,
        rate=RATE_RPS,
        count=count,
        connections=CONNECTIONS,
    )
    after = service.coalescer.stats_snapshot()
    executions = (after["fast_path"] - before["fast_path"]) + (
        after["batches"] - before["batches"]
    )
    failed, loaded_payloads = _check(
        [(r[0], r[4], r[5]) for r in loaded], direct, pool
    )
    waits = [
        sum(
            s["duration_ms"]
            for s in p["trace"]["spans"]
            if s["name"] == "queue_wait"
        )
        for p in loaded_payloads.values()
    ]

    # Sequential round trips, untraced and traced, paired per query and
    # alternating which goes first.
    order = [(False, True) if i % 2 == 0 else (True, False) for i in range(pool)]
    seq = client.call(
        "seq",
        host=host,
        port=port,
        bodies=[
            served.traced_bodies[i] if trace else served.bodies[i]
            for i, pair in enumerate(order)
            for trace in pair
        ],
    )
    untraced = [seq[2 * i + pair.index(False)] for i, pair in enumerate(order)]
    traced = [seq[2 * i + pair.index(True)] for i, pair in enumerate(order)]
    seq_failed, _ = _check(
        [(i, status, body) for i, (_, status, body) in enumerate(untraced)],
        direct,
        pool,
    )
    failed += [count + i for i in seq_failed]

    # Replay every layer's entry point on each pool query.
    log = SpanLog()
    wire = []
    request_bytes = []
    response_bytes = []
    candidates = []
    rows = []
    void = 0
    catalog = session.catalog
    backend = session.backend
    opts = session.options
    for i, (q, payload) in enumerate(zip(served.corpus.queries, served.payloads)):
        log.add(i, "http", None, untraced[i][0])
        body, reply = served.bodies[i], untraced[i][2]
        request_bytes.append(len(body))
        response_bytes.append(len(reply))
        start = time.perf_counter()
        json.loads(body)
        json.dumps(json.loads(reply), allow_nan=False)
        wire.append(time.perf_counter() - start)
        with log.span(i, "handle", "http"):
            service.handle_query(payload)
        with log.span(i, "sketch", "handle"):
            session.query_sketch(q.keys, q.values)
        keys = np.asarray(q.keys)
        with log.span(i, "hash", "sketch"):
            catalog.hasher.hash_batch(keys)
        sketch = session.query_sketch(q.keys, q.values)
        with log.span(i, "coalescer", "handle"):
            service.coalescer.submit(
                sketch, trace=True, arrived=time.perf_counter()
            )
        sketch = session.query_sketch(q.keys, q.values)
        with log.span(i, "session", "coalescer"):
            session.submit([sketch], trace=True, arrivals=[time.perf_counter()])
        sketch = session.query_sketch(q.keys, q.values)
        with log.span(i, "engine", "session"):
            real = backend.query_batch(
                [sketch],
                k=opts.k,
                scorer=opts.scorer,
                exclude_ids=[None],
                true_correlations=[None],
                traces=[Trace()],
            )
        sketch = session.query_sketch(q.keys, q.values)
        answers, facts = replay_stages(
            log, i, "engine", [catalog], [sketch],
            depth=opts.depth, k=opts.k, scorer=opts.scorer,
        )
        if answer_key(answers[0]) != answer_key(real[0].ranked):
            void += 1
            log.spans = [s for s in log.spans if s[0] != i]
            continue
        candidates.append(facts["candidates"])
        rows.append(facts["sample_rows"])
    rows_ok = list(log.ops().values())
    layers, unaccounted = harness.ledger(rows_ok, LAYER_OF, "http")

    def mean_ms(name):
        return float(np.mean([r[name][1] for r in rows_ok])) * 1000.0

    opens, firsts = _cold_starts(served)
    metrics = dict.fromkeys(harness.PER_LAYER, 0.0)
    metrics.update(layers)
    metrics.update(
        {
            "server.http_ms": mean_ms("http"),
            "server.wire_ms": float(np.mean(wire)) * 1000.0,
            "server.request_bytes": float(np.mean(request_bytes)),
            "server.response_bytes": float(np.mean(response_bytes)),
            "core.query_sketch_ms": mean_ms("sketch"),
            "coalescer.submit_ms": mean_ms("coalescer"),
            "coalescer.queue_wait_ms": float(np.mean(waits)) if waits else 0.0,
            "coalescer.batch_size_mean": (
                (after["submitted"] - before["submitted"]) / executions
                if executions
                else 0.0
            ),
            "engine.candidates_per_query": float(np.mean(candidates)),
            "engine.join_sample_rows": float(np.mean(rows)),
            "snapshot.save_ms": served.save_s * 1000.0,
            "snapshot.bytes": float(served.path.stat().st_size),
            "snapshot.load_ms": float(np.median(opens)) * 1000.0,
            "engine.first_query_ms": float(np.median(firsts)) * 1000.0,
            "unaccounted_share": unaccounted,
            "trace_overhead_share": (
                sum(t[0] for t in traced) / sum(u[0] for u in untraced) - 1.0
            ),
            "generator_lag_ms": harness.percentile(
                [harness.open_loop_times(*r[1:4])[1] for r in loaded], 99
            )
            * 1000.0,
            "ledger.void_rows": float(void),
        }
    )
    record = {
        "spans": log.to_list(),
        "ledger_rows": len(rows_ok),
        "loaded_requests": count,
        "rate_rps": RATE_RPS,
        "failed_requests": failed[:50],
    }
    attempted = count + pool
    return not failed, attempted, len(failed), metrics, record
