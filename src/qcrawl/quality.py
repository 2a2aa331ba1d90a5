"""Quality scoring: score tables and the model-free reference scorer.

Scores carry log-probability semantics (typically <= 0, not enforced).
A page's score is its entry in a score table (``doc_id<TAB>score``, the
shape precomputed model scores come in) when a table is given; otherwise
the deterministic reference scorer scores its text by
ln(distinct_tokens / total_tokens), so 0 means all tokens are distinct and
repetitive texts score below 0.
"""

from __future__ import annotations

import math

from .corpus import DocumentRecord, WebGraph, atomic_write, read_lines, split_fields
from .errors import CorpusFormatError, EmptyText, MissingScore, NoOutlinks, UnknownDoc
from .retrieval import tokenize

# Defaults of analytics.histogram and analytics.hexbin, kept here so that the
# CLI can build its parser without importing analytics (and numpy).
DEFAULT_BINS = 15
DEFAULT_GRIDSIZE = 25
DEFAULT_MIN_COUNT = 1000


def score_text_reference(text: str) -> float:
    """ln(distinct/total) over the retrieval tokenization of the text."""
    tokens = tokenize(text)
    if not tokens:
        raise EmptyText("text has zero tokens")
    return math.log(len(set(tokens)) / len(tokens))


def load_score_table(path: str) -> dict[str, float]:
    """Load a ``doc_id<TAB>score`` table; scores must be finite, ids unique."""
    table: dict[str, float] = {}
    for lineno, line in read_lines(path):
        doc_id, score_s = split_fields(path, lineno, line, 2, "doc_id<TAB>score")
        try:
            score = float(score_s)
        except ValueError:
            raise CorpusFormatError(f"{path}:{lineno}: unparseable score {score_s!r}") from None
        if not math.isfinite(score):
            raise CorpusFormatError(f"{path}:{lineno}: non-finite score for {doc_id!r}")
        if doc_id in table:
            raise CorpusFormatError(f"{path}:{lineno}: duplicate doc_id {doc_id!r}")
        table[doc_id] = score
    return table


def write_score_table(table: dict[str, float], path: str) -> None:
    with atomic_write(path) as fh:
        for doc_id, score in table.items():
            fh.write(f"{doc_id}\t{score!r}\n")


def score_record(table: dict[str, float] | None, doc_id: str, text: str) -> float:
    """Score one record: its table entry, or the reference score of its
    text when table is None. Errors name the doc_id."""
    if table is not None:
        if doc_id not in table:
            raise MissingScore(f"no table entry for {doc_id!r}")
        return table[doc_id]
    try:
        return score_text_reference(text)
    except EmptyText:
        raise EmptyText(f"record {doc_id!r} has zero tokens") from None


def score_batch(
    records: list[DocumentRecord], table: dict[str, float] | None = None
) -> list[tuple[str, float]]:
    """Score records through score_record, preserving input order (one
    output pair per record)."""
    return [(r.doc_id, score_record(table, r.doc_id, r.text)) for r in records]


def mean_outlink_quality(graph: WebGraph, scores: dict[str, float], doc_id: str) -> float:
    """Arithmetic mean score over the deduplicated outlink set of a page.

    Summation order is fixed (sorted ids) so permuting the adjacency list
    cannot change the result, not even in the last float bit.
    """
    if doc_id not in graph.adjacency:
        raise UnknownDoc(f"unknown doc_id: {doc_id!r}")
    targets = sorted(set(graph.adjacency[doc_id]))
    if not targets:
        raise NoOutlinks(f"page {doc_id!r} has no outlinks")
    total = 0.0
    for target in targets:
        if target not in scores:
            raise MissingScore(f"no quality score for outlink {target!r}")
        total += scores[target]
    return total / len(targets)
