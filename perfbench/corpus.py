"""Seeded input generation: the program only ever sees what this makes.

Two key layouts, because the workloads stress different layers:

* **domains** — every table draws its string keys from one of many
  disjoint key domains, so a query joins only the handful of tables of
  its own domain (shallow candidate pages; the front door dominates);
* **zipf** — every table draws from one shared universe with Zipf-skewed
  key popularity, so every query overlaps almost every table, fills a
  full candidate page, and posting lengths are uneven (deep pages; the
  engine dominates).

Both plant, for every query, tables whose values are correlated with
the query's, so top-10 recall of planted tables has a known answer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Correlation of planted tables with their query: y = R*x + sqrt(1-R^2)*e.
PLANTED_R = 0.8


def correlated(x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    noise = rng.standard_normal(x.shape[0])
    return PLANTED_R * x + np.sqrt(1.0 - PLANTED_R**2) * noise


@dataclass
class Table:
    """One ⟨key, value⟩ column pair headed for the catalog."""

    table_id: str
    keys: list[str]
    values: np.ndarray


@dataclass
class Query:
    """One query column pair and the ids of its planted tables."""

    keys: list[str]
    values: np.ndarray
    planted: list[str]


@dataclass
class Corpus:
    tables: list[Table]
    queries: list[Query]
    #: Tables whose removal cannot change any query's planted set.
    background: list[str]


def domain_corpus(
    rng: np.random.Generator,
    *,
    domains: int,
    tables_per_domain: int,
    planted_per_domain: int,
    domain_keys: int,
    table_rows: int,
    queries: int,
    query_rows: int,
) -> tuple[Corpus, list[list[str]], np.ndarray]:
    """Disjoint-domain corpus.

    Each domain has a latent value per key; planted tables carry a
    noisy copy of it, background tables carry noise, and a query on a
    domain carries the latent values of ``query_rows`` of its keys.
    Returns the corpus, each domain's key names and the latent values
    (``[domain, key]``) so later writes can draw from the same domains.
    """
    names = [[f"d{d}-{i}" for i in range(domain_keys)] for d in range(domains)]
    latent = rng.standard_normal((domains, domain_keys))
    tables: list[Table] = []
    background: list[str] = []
    planted: dict[int, list[str]] = {}
    for d in range(domains):
        for t in range(tables_per_domain):
            idx = rng.choice(domain_keys, size=table_rows, replace=False)
            table_id = f"d{d}t{t}"
            if t < planted_per_domain:
                values = correlated(latent[d, idx], rng)
                planted.setdefault(d, []).append(table_id)
            else:
                values = rng.standard_normal(table_rows)
                background.append(table_id)
            tables.append(Table(table_id, [names[d][i] for i in idx], values))
    out: list[Query] = []
    for d in rng.choice(domains, size=queries, replace=queries > domains):
        idx = rng.choice(domain_keys, size=query_rows, replace=False)
        out.append(
            Query(
                [names[d][i] for i in idx],
                latent[d, idx].copy(),
                planted.get(int(d), []),
            )
        )
    return Corpus(tables, out, background), names, latent


def _zipf_sample(
    rng: np.random.Generator, log_weights: np.ndarray, size: int
) -> np.ndarray:
    """``size`` distinct indices, drawn without replacement with
    probability proportional to ``exp(log_weights)`` (Gumbel top-k)."""
    keyed = log_weights + rng.gumbel(size=log_weights.shape[0])
    return np.argpartition(keyed, -size)[-size:]


def zipf_corpus(
    rng: np.random.Generator,
    *,
    universe: int,
    exponent: float,
    background: int,
    table_keys: int,
    queries: int,
    planted_overlaps: tuple[float, ...],
) -> Corpus:
    """Shared-universe corpus with Zipf key popularity.

    Each query plants one table per entry of ``planted_overlaps``: it
    shares that fraction of the query's keys (with correlated values)
    and fills the rest with Zipf-drawn keys (noise values), so planted
    tables span easy and hard retrieval cases.
    """
    names = [f"u{i}" for i in range(universe)]
    log_w = -exponent * np.log(np.arange(1, universe + 1))
    tables: list[Table] = []
    for t in range(background):
        idx = _zipf_sample(rng, log_w, table_keys)
        tables.append(
            Table(f"bg{t}", [names[i] for i in idx], rng.standard_normal(table_keys))
        )
    background_ids = [t.table_id for t in tables]
    out: list[Query] = []
    for q in range(queries):
        idx = _zipf_sample(rng, log_w, table_keys)
        x = rng.standard_normal(table_keys)
        planted: list[str] = []
        for p, share in enumerate(planted_overlaps):
            shared = rng.choice(table_keys, size=int(share * table_keys), replace=False)
            pool = np.setdiff1d(
                _zipf_sample(rng, log_w, 2 * table_keys), idx, assume_unique=True
            )
            extra = pool[: table_keys - shared.shape[0]]
            keys = [names[i] for i in idx[shared]] + [names[i] for i in extra]
            values = np.concatenate(
                [correlated(x[shared], rng), rng.standard_normal(extra.shape[0])]
            )
            table_id = f"q{q}p{p}"
            tables.append(Table(table_id, keys, values))
            planted.append(table_id)
        out.append(Query([names[i] for i in idx], x, planted))
    return Corpus(tables, out, background_ids)


def csv_text(
    rng: np.random.Generator,
    names: list[str],
    latent: np.ndarray,
    rows: int,
) -> str:
    """A CSV table over one domain: a string key column, one numeric
    column correlated with the domain's latent values, one of noise.
    Keys repeat, so the sketches aggregate."""
    idx = rng.integers(0, len(names), size=rows)
    a = correlated(latent[idx], rng)
    b = rng.standard_normal(rows)
    lines = ["key,a,b"]
    lines.extend(
        f"{names[i]},{x!r},{y!r}" for i, x, y in zip(idx, a.tolist(), b.tolist())
    )
    return "\n".join(lines) + "\n"


def recall_at_10(ranked_ids: list[str], planted: list[str]) -> tuple[int, int]:
    """(planted tables found in the top 10, planted tables)."""
    top = set(ranked_ids[:10])
    return sum(1 for p in planted if p in top), len(planted)
