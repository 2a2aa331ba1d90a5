"""
Quality scoring: reference scorer, score tables, outlink means
==============================================================

Quality scores carry log-probability semantics: higher (closer to 0) is
better. A page's score is its entry in a precomputed table (the shape
published neural-scorer caches come in) when a table is given, and
otherwise the deterministic reference scorer
ln(distinct_tokens / total_tokens), handy for reproducible experiments
without any model.
"""

import tempfile
from pathlib import Path

from qcrawl import (
    DocumentRecord,
    build_corpus,
    load_score_table,
    mean_outlink_quality,
    score_batch,
    score_text_reference,
    write_score_table,
)

# -- the reference scorer rewards lexical variety ------------------------
samples = {
    "all distinct": "the quick brown fox jumps over lazy dogs",
    "some repeats": "buy cheap buy cheap buy cheap watches online",
    "pure spam": "win win win win win win win win",
}
for label, text in samples.items():
    print(f"{label:13s} -> {score_text_reference(text):+.4f}")
print()

# -- batch scoring keeps input order -------------------------------------
records = [
    DocumentRecord("a", None, "unique words everywhere here"),
    DocumentRecord("b", None, "spam spam spam"),
]
scored = score_batch(records)
print("batch:", scored)

# -- tables round-trip through tab-separated files -----------------------
workdir = Path(tempfile.mkdtemp(prefix="qcrawl-demo-"))
table_path = workdir / "scores.tsv"
write_score_table(dict(scored), str(table_path))
table = load_score_table(str(table_path))
print("reloaded:", table)
# a given table is the scorer: each record gets its table entry
print("from the table:", score_batch(records, {"a": -0.5, "b": -2.0}))
print()

# -- mean outlink quality: the homophily signal --------------------------
rows = [
    {"doc_id": "hub", "url": None, "text": "x", "outlinks": ["a", "b", "c"]},
    {"doc_id": "a", "url": None, "text": "x", "outlinks": []},
    {"doc_id": "b", "url": None, "text": "x", "outlinks": []},
    {"doc_id": "c", "url": None, "text": "x", "outlinks": []},
]
_, graph, _ = build_corpus(rows)
neighbour_scores = {"a": -0.5, "b": -1.5, "c": -2.5}
print("mean outlink quality of 'hub':", mean_outlink_quality(graph, neighbour_scores, "hub"))
