"""Calls into the program shared by the workloads: building sketches,
comparing answers, and replaying the query pipeline stage by stage.

The replay drives the engine's public stage functions in the order
``query_batch`` runs them — retrieve, assemble, score, bootstrap, rank —
timing each as a span, so a layer's self time is its entry point's time
minus the stages beneath it. The replay's answers are returned so the
caller can check them against the real pipeline's; a row whose replay
disagrees is void.
"""

from __future__ import annotations

import math
import time
from dataclasses import replace

import numpy as np

from repro.core.sketch import CorrelationSketch
from repro.correlation.bootstrap import pm1_interval_batch
from repro.index.engine import CandidatePage, retrieve_candidates_batch
from repro.ranking.ranker import rank_candidates
from repro.ranking.scoring import candidate_scores_batch, cib_factor, unjson_float
from repro.serving.router import merge_shard_hits

from perfbench.harness import SpanLog

#: The engine's per-query generator when the caller pins no seed.
QUERY_RNG_SEED = 7


def sketch_of(keys, values, catalog, name: str | None = None) -> CorrelationSketch:
    """One column pair sketched under the catalog's configuration."""
    sketch = CorrelationSketch(
        catalog.sketch_size,
        aggregate=catalog.aggregate,
        hasher=catalog.hasher,
        name=name,
    )
    sketch.update_array(keys, values)
    return sketch


def build_sketches(tables, catalog) -> list[tuple[str, CorrelationSketch]]:
    """Sketch each table under the catalog's configuration."""
    return [
        (t.table_id, sketch_of(t.keys, t.values, catalog, t.table_id))
        for t in tables
    ]


def answer_key(ranked) -> list[tuple[str, str]]:
    """A ranked list as (id, exact score) pairs; ``float.hex`` keeps
    every bit and compares NaN equal to NaN."""
    return [(c.candidate_id, float(c.score).hex()) for c in ranked]


def wire_answer_key(payload: dict) -> list[tuple[str, str]]:
    """:func:`answer_key` of a ``QueryResult.to_dict()`` body."""
    return [
        (entry["candidate_id"], float(unjson_float(entry["score"])).hex())
        for entry in payload["ranked"]
    ]


def replay_stages(
    log: SpanLog,
    op: int,
    parent: str,
    partitions: list,
    sketches: list[CorrelationSketch],
    *,
    depth: int,
    k: int,
    scorer: str,
) -> tuple[list[list], dict]:
    """Run retrieve → assemble → score → bootstrap → rank over
    ``partitions`` (one catalog, or the shards of a sharded catalog) as
    spans beneath ``parent``.

    Returns the ranked lists and per-op facts: per-partition busy time
    (retrieve + assemble), candidates per query and joined sample rows
    per query.
    """
    cols = [sketch.columnar() for sketch in sketches]
    busy = [0.0] * len(partitions)
    per_part_hits = []
    with log.span(op, "retrieve", parent):
        for p, catalog in enumerate(partitions):
            start = time.perf_counter()
            per_part_hits.append(retrieve_candidates_batch(catalog, cols, depth=depth))
            busy[p] += time.perf_counter() - start
    merged = [
        merge_shard_hits([hits[q] for hits in per_part_hits], depth)
        for q in range(len(sketches))
    ]
    with log.span(op, "assemble", parent):
        owner = [
            {sid: p for p, hits in enumerate(per_part_hits) for sid, _ in hits[q]}
            for q in range(len(sketches))
        ]
        parts_out = [[None] * len(partitions) for _ in sketches]
        for p, catalog in enumerate(partitions):
            start = time.perf_counter()
            for q, hits in enumerate(merged):
                owned = [h for h in hits if owner[q][h[0]] == p]
                parts_out[q][p] = CandidatePage.assemble(catalog, cols[q], owned)
            busy[p] += time.perf_counter() - start
        pages = [_interleave(hits, parts_out[q]) for q, hits in enumerate(merged)]
    spans = []
    samples = []
    containments = []
    with log.span(op, "score", parent):
        for sketch, page in zip(sketches, pages):
            start = len(samples)
            samples.extend(page.samples)
            containments.extend(page.containments(sketch.distinct_keys()))
            spans.append((start, len(samples)))
        base = candidate_scores_batch(
            samples, containment_ests=containments, with_bootstrap=False
        )
    stats_per_query = []
    rngs = []
    with log.span(op, "bootstrap", parent):
        for start, end in spans:
            rng = np.random.default_rng(QUERY_RNG_SEED)
            stats = base[start:end]
            if scorer == "rb_cib":
                stats = _bootstrap(samples[start:end], stats, rng)
            stats_per_query.append(stats)
            rngs.append(rng)
    answers = []
    with log.span(op, "rank", parent):
        for page, stats, rng in zip(pages, stats_per_query, rngs):
            answers.append(rank_candidates(page.ids, stats, scorer, rng=rng)[:k])
    facts = {
        "partition_seconds": busy,
        "candidates": sum(len(h) for h in merged) / len(sketches),
        "sample_rows": sum(s.size for s in samples) / len(sketches),
    }
    return answers, facts


def _interleave(hits, parts) -> CandidatePage:
    """One page in global hit order from per-partition pages (every
    per-candidate field depends only on the query and that candidate)."""
    by_id = {}
    for page in parts:
        for i, sid in enumerate(page.ids):
            by_id[sid] = (page.samples[i], page.union_stats[i])
    return CandidatePage(
        ids=[sid for sid, _ in hits],
        overlaps=[overlap for _, overlap in hits],
        samples=[by_id[sid][0] for sid, _ in hits],
        union_stats=[by_id[sid][1] for sid, _ in hits],
    )


def _bootstrap(samples, stats, rng):
    """PM1 intervals for the eligible candidates of one page, one
    cross-candidate engine run (the engine's batched rng mode)."""
    eligible = [
        s.size >= 2 and not math.isnan(st.r_pearson)
        for s, st in zip(samples, stats)
    ]
    boots = pm1_interval_batch(
        [s.x for s in samples], [s.y for s in samples], rng=rng, active=eligible
    )
    return [
        replace(st, r_bootstrap=b.estimate, cib_factor=cib_factor(b.low, b.high))
        if ok
        else st
        for st, b, ok in zip(stats, boots, eligible)
    ]
