"""Quality scoring behind a pluggable interface.

Scores carry log-probability semantics (typically <= 0, not enforced).
Two scorer kinds exist: ``table`` reads precomputed scores from a
tab-separated file, ``reference`` is a deterministic model-free stand-in
that scores a text by ln(distinct_tokens / total_tokens), so 0 means all
tokens are distinct and repetitive texts score below 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .corpus import DocumentRecord, WebGraph, atomic_write, read_lines, split_fields
from .errors import CorpusFormatError, EmptyText, MissingScore, NoOutlinks, UnknownDoc
from .retrieval import tokenize

SCORER_KINDS = ("table", "reference")


@dataclass(frozen=True)
class ScorerConfig:
    kind: str
    table_path: str | None = None

    def __post_init__(self):
        if self.kind not in SCORER_KINDS:
            raise ValueError(f"unknown scorer kind {self.kind!r}; expected one of {SCORER_KINDS}")
        if self.kind == "table" and not self.table_path:
            raise ValueError("table scorer requires a table_path")


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
    scorer: ScorerConfig, records: list[DocumentRecord]
) -> list[tuple[str, float]]:
    """Score records, preserving input order (one output pair per record)."""
    table = load_score_table(scorer.table_path) if scorer.kind == "table" else None
    return [(r.doc_id, score_record(table, r.doc_id, r.text)) for r in records]


def mean_outlink_quality(graph: WebGraph, scores: dict[str, float], doc_id: str) -> float:
    """Arithmetic mean score over the deduplicated outlink set of a page.

    Summation order is fixed (sorted ids) so permuting the adjacency list
    cannot change the result, not even in the last float bit.
    """
    if doc_id not in graph.nodes:
        raise UnknownDoc(f"unknown doc_id: {doc_id!r}")
    targets = sorted(set(graph.adjacency.get(doc_id, [])))
    if not targets:
        raise NoOutlinks(f"page {doc_id!r} has no outlinks")
    total = 0.0
    for target in targets:
        if target not in scores:
            raise MissingScore(f"no quality score for outlink {target!r}")
        total += scores[target]
    return total / len(targets)
