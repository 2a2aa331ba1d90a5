"""Seeded input generators for the study benchmark.

Each generator writes one study's inputs into a directory: the record file,
seeds, queries, TREC qrels and two score tables (the reference scorer's
table, used by qoracle, and a noisy second "model" table for the
distribution statistics). The same seed always writes the same bytes.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from qcrawl import quality, synth

RECORDS = "records.jsonl"
SEEDS = "seeds.txt"
QUERIES = "queries.tsv"
QRELS = "qrels.txt"
TABLES = ("reference.tsv", "model_b.tsv")

# Spread of the second table around the reference scores.
MODEL_B_NOISE = 0.05


def _write_lines(path: Path, lines) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for line in lines:
            fh.write(line + "\n")


def write_inputs(out_dir: Path, rows, queries, qrels, seeds, rng) -> None:
    """Write one study's inputs; score tables derive from the row texts."""
    _write_lines(out_dir / RECORDS, (json.dumps(row) for row in rows))
    _write_lines(out_dir / SEEDS, seeds)
    _write_lines(out_dir / QUERIES, (f"{qid}\t{text}" for qid, text in queries.items()))
    _write_lines(
        out_dir / QRELS,
        (
            f"{qid} 0 {doc_id} {grade}"
            for qid, judged in qrels.items()
            for doc_id, grade in judged.items()
        ),
    )
    reference = {row["doc_id"]: quality.score_text_reference(row["text"]) for row in rows}
    noise = rng.normal(0.0, MODEL_B_NOISE, size=len(reference))
    model_b = {doc_id: score + float(e) for (doc_id, score), e in zip(reference.items(), noise)}
    for name, table in zip(TABLES, (reference, model_b)):
        _write_lines(out_dir / name, (f"{doc_id}\t{score!r}" for doc_id, score in table.items()))


def synthetic(out_dir: Path, seed: int, n_nodes: int, n_queries: int, n_seeds: int) -> None:
    """The paper's quality-structured graph from ``qcrawl.synth``."""
    rows, queries, qrels, seeds = synth.synthetic_corpus(
        n_nodes=n_nodes, n_queries=n_queries, n_seeds=n_seeds, rng_seed=seed
    )
    write_inputs(out_dir, rows, queries, qrels, seeds, np.random.default_rng([seed, 1]))


def zipf_corpus(
    out_dir: Path,
    seed: int,
    n_nodes: int,
    n_queries: int,
    vocab: int,
    doc_len: int,
    band: tuple[int, int],
    rel_per_query: int = 3,
    out_degree: int = 6,
    n_seeds: int = 100,
) -> None:
    """Pages drawing words from one shared Zipf vocabulary.

    Queries are three distinct words whose frequency rank lies in ``band``,
    so every query term has a long posting list. Each query's relevant pages
    are drawn from the pages holding its first term. Links are a ring
    successor (the graph stays strongly connected, so a crawl with
    budget = n reaches every page) plus uniform random targets.
    """
    rng = np.random.default_rng([seed, 2])
    weights = 1.0 / np.arange(1, vocab + 1)
    words = rng.choice(vocab, size=(n_nodes, doc_len), p=weights / weights.sum())
    width = len(str(n_nodes - 1))
    ids = [f"p{i:0{width}d}" for i in range(n_nodes)]
    targets = rng.integers(0, n_nodes, size=(n_nodes, out_degree - 1))
    rows = [
        {
            "doc_id": ids[i],
            "url": None,
            "text": " ".join(f"w{w}" for w in words[i]),
            "outlinks": [ids[(i + 1) % n_nodes]] + [ids[t] for t in targets[i]],
        }
        for i in range(n_nodes)
    ]

    lo, hi = band
    in_band = (words >= lo) & (words < hi)
    pages, slots = np.nonzero(in_band)
    holds = np.zeros((hi - lo, n_nodes), dtype=bool)
    holds[words[pages, slots] - lo, pages] = True
    queries: dict[str, str] = {}
    qrels: dict[str, dict[str, int]] = {}
    for q in range(n_queries):
        terms = rng.choice(np.arange(lo, hi), size=3, replace=False)
        qid = f"q{q:04d}"
        queries[qid] = " ".join(f"w{t}" for t in terms)
        holders = np.flatnonzero(holds[terms[0] - lo])
        picked = rng.choice(holders, size=min(rel_per_query, holders.size), replace=False)
        qrels[qid] = {ids[i]: 1 for i in sorted(picked)}
    seeds = [ids[i] for i in rng.choice(n_nodes, size=n_seeds, replace=False)]
    write_inputs(out_dir, rows, queries, qrels, seeds, rng)
