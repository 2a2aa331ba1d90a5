"""BM25 retrieval over crawl prefixes and checkpointed recall evaluation.

The index is a plain in-memory inverted file. Scoring follows the
Lucene-style BM25 with k1=1.2, b=0.75 and idf(t) = ln(1 + (N-df+0.5)/(df+0.5)),
which keeps idf strictly positive for every indexed term. Recall@k counts
all judged-relevant documents in the denominator, crawled or not, so the
metric measures crawl coverage rather than pure ranking quality.

Checkpoint evaluation follows each trace once. Checkpoint prefixes are
nested, so one index per strategy grows by one ``build_index`` step per
checkpoint, which adds the pages since the last one, holding postings only
for query terms and the length of every page; each page is tokenised once
per evaluation. N, df, dl and avgdl all come from integer counts, so every
score equals the one an index built from scratch over the prefix would give.
Ranking runs on numpy arrays: the postings are weighed once per index state,
and a search sums each doc's weights in query-term order. Evaluation runs in
two steps that share only the recall rows, so the index, the tokenise cache
and, in ``qcrawl eval``, the pages and traces are freed before scipy loads.
"""

from __future__ import annotations

import functools
import json
import math
import re
from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate, chain, combinations, count
from operator import itemgetter

from .corpus import DocumentRecord, _are_tokens, read_lines, split_fields
from .crawler import CrawlTrace, check_rank
from .errors import CorpusFormatError, SkippedQuery, UnknownDoc

K1 = 1.2
B = 0.75

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
# byte -> itself for a-z and 0-9, its lower case for A-Z, a space for all else
_ASCII_TOKENS = bytes(
    ord(ch.lower()) if ch.isascii() and ch.isalnum() else ord(" ") for ch in map(chr, range(256))
)


def tokenize(text: str) -> list[str]:
    """Lower-case, then return the maximal runs of Unicode letters and digits:
    ``_``, punctuation and whitespace all split tokens. ASCII text takes a
    C-level path (one byte translation, then ``split``) with identical tokens."""
    if text.isascii():
        return text.encode("ascii").translate(_ASCII_TOKENS).decode("ascii").split()
    return _TOKEN_RE.findall(text.lower())


@dataclass
class InvertedIndex:
    postings: dict[str, dict[str, int]] = field(default_factory=dict)
    doc_lengths: dict[str, int] = field(default_factory=dict)
    doc_count: int = 0
    avgdl: float = 0.0
    # ranking arrays of this index state, made by the first search after a build_index step
    _ranking: tuple | None = field(default=None, init=False, compare=False, repr=False)


def _term_counts(
    corpus: dict[str, DocumentRecord], doc_id: str, vocabulary: set[str] | None = None
) -> tuple[int, dict[str, int]]:
    """Token count and term frequencies of one corpus document; only the
    terms in ``vocabulary`` are counted when it is given."""
    if doc_id not in corpus:
        raise UnknownDoc(f"doc_id not in corpus: {doc_id!r}")
    tokens = tokenize(corpus[doc_id].text)
    counted = tokens if vocabulary is None else filter(vocabulary.__contains__, tokens)
    return len(tokens), dict(Counter(counted))  # eval caches one per page: a dict is smaller


def build_index(
    corpus: dict[str, DocumentRecord], doc_ids, index=None, term_counts=None
) -> InvertedIndex:
    """Add exactly the given doc_ids, in sorted order, to ``index`` (a new one
    without it), then set N and avgdl. ``term_counts(doc_id)`` gives a page's
    (length, tf); by default every term is posted. A zero-token doc counts in N."""
    ids = sorted(doc_ids)
    if not ids:
        raise ValueError("cannot build an index over an empty doc_id set")
    index = InvertedIndex() if index is None else index
    index._ranking = None  # N, avgdl and postings change, even if this step fails
    if term_counts is None:
        term_counts = functools.partial(_term_counts, corpus)
    for doc_id in ids:
        length, tf = term_counts(doc_id)
        index.doc_lengths[doc_id] = length
        for term, count in tf.items():
            index.postings.setdefault(term, {})[doc_id] = count
    total_tokens = sum(index.doc_lengths.values())
    if total_tokens == 0:
        raise ValueError("every document in the index has zero tokens")
    index.doc_count = len(index.doc_lengths)
    index.avgdl = total_tokens / index.doc_count
    return index


def _term_weight(idf: float, tf: int, dl: int, avgdl: float) -> float:
    """BM25 weight of tf occurrences in a document of length dl; elementwise on arrays."""
    norm = K1 * (1.0 - B + B * dl / avgdl)
    return idf * tf * (K1 + 1.0) / (tf + norm)


def _weigh_postings(index: InvertedIndex) -> tuple:
    """Number the posted docs 0.. in order of first posting and weigh every posting
    of the index state in one pass over float64 arrays. Returns (doc_id by number,
    posting doc numbers, posting weights, term -> slice of both)."""
    import numpy as np

    postings, lists = index.postings, index.postings.values()
    dfs = list(map(len, lists))
    doc_ids = list(dict.fromkeys(chain.from_iterable(lists)))
    number = dict(zip(doc_ids, count()))
    docs = np.fromiter(map(number.__getitem__, chain.from_iterable(lists)), np.intp, sum(dfs))
    tf = np.fromiter(chain.from_iterable(map(dict.values, lists)), np.float64, sum(dfs))
    lengths = np.fromiter(map(index.doc_lengths.__getitem__, doc_ids), np.float64, len(doc_ids))
    idf = [math.log(1.0 + (index.doc_count - df + 0.5) / (df + 0.5)) for df in dfs]
    weights = _term_weight(np.repeat(idf, dfs), tf, lengths[docs], index.avgdl)
    spans = {term: slice(end - df, end) for term, df, end in zip(postings, dfs, accumulate(dfs))}
    return doc_ids, docs, weights, spans


def search_topk(index: InvertedIndex, query_terms, k: int) -> list[tuple[str, float]]:
    """Top-k matching documents, score descending, ties by doc_id ascending."""
    import numpy as np

    if k < 1:
        raise ValueError("k must be >= 1")
    if index._ranking is None:
        index._ranking = _weigh_postings(index)
    doc_ids, docs, weights, spans = index._ranking
    hits = [spans[t] for t in dict.fromkeys(query_terms) if t in spans]
    if not hits:
        return []
    # each doc's weights are added from 0.0 in query-term order
    docs = np.concatenate([docs[hit] for hit in hits])
    summed = np.bincount(docs, np.concatenate([weights[hit] for hit in hits]))
    if len(docs) > k:  # a doc matched by several terms is in docs once per term: keep one
        docs = np.sort(docs)
        docs = docs[np.concatenate(([True], docs[1:] != docs[:-1]))]
    scores, tail = summed[docs], []
    if len(docs) > k:  # cut at the k-th best score; its ties go to the smallest doc_ids
        kth = np.partition(scores, len(docs) - k)[len(docs) - k]
        tied = sorted(map(doc_ids.__getitem__, docs[scores == kth].tolist()))
        above = scores > kth
        docs, scores = docs[above], scores[above]
        tail = [(doc_id, float(kth)) for doc_id in tied[: k - len(docs)]]
    head = dict(zip(map(doc_ids.__getitem__, docs.tolist()), scores.tolist()))  # a doc once
    return sorted(sorted(head.items()), key=itemgetter(1), reverse=True) + tail


def load_queries(path: str) -> dict[str, str]:
    """Load a tab-separated ``query_id<TAB>text`` file; the text may hold tabs."""
    queries: dict[str, str] = {}
    for lineno, line in read_lines(path):
        qid, tab, text = line.partition("\t")
        if not qid or not tab:
            raise CorpusFormatError(f"{path}:{lineno}: expected 'query_id<TAB>text'")
        if not _are_tokens([qid]):  # qrels ids are whitespace-split: they could never match
            raise CorpusFormatError(f"{path}:{lineno}: query_id {qid!r} holds whitespace")
        if qid in queries:
            raise CorpusFormatError(f"{path}:{lineno}: duplicate query_id {qid!r}")
        queries[qid] = text
    return queries


def load_qrels(path: str) -> dict[str, dict[str, int]]:
    """Load TREC-layout qrels: whitespace-separated ``query_id 0 doc_id grade``."""
    qrels: dict[str, dict[str, int]] = {}
    for lineno, line in read_lines(path):
        fields = split_fields(path, lineno, line, 4, "query_id 0 doc_id grade", sep=None)
        qid, _, doc_id, grade_s = fields
        try:
            grade = int(grade_s)
        except ValueError:
            raise CorpusFormatError(f"{path}:{lineno}: grade must be an integer") from None
        if grade < 0:
            raise CorpusFormatError(f"{path}:{lineno}: grade must be >= 0")
        per_query = qrels.setdefault(qid, {})
        if doc_id in per_query:
            raise CorpusFormatError(
                f"{path}:{lineno}: duplicate judgment for ({qid!r}, {doc_id!r})"
            )
        per_query[doc_id] = grade
    return qrels


def relevant_docs(qrels: dict[str, dict[str, int]], query_id: str) -> set[str]:
    return {d for d, g in qrels.get(query_id, {}).items() if g >= 1}


def recall_at_k(ranked, qrels: dict[str, dict[str, int]], query_id: str, k: int) -> float:
    """Fraction of ALL judged-relevant docs of the query found in the top k."""
    return _recall(ranked, relevant_docs(qrels, query_id), query_id, k)


def _recall(ranked, relevant: set[str], query_id: str, k: int) -> float:
    if not relevant:
        raise SkippedQuery(f"query {query_id!r} has no judged-relevant documents")
    return len(relevant.intersection(doc_id for doc_id, _ in ranked[:k])) / len(relevant)


def t_p_value(t_stat: float, df: int) -> float:
    """Two-sided Student-t p-value via the regularized incomplete beta."""
    # Imported here, not at module top: only eval runs a t-test, and loading
    # scipy.special would dominate the start-up of every other subcommand.
    from scipy.special import betainc

    if df < 1:
        raise ValueError("degrees of freedom must be >= 1")
    if math.isinf(t_stat):
        return 0.0
    x = df / (df + t_stat * t_stat)
    return float(betainc(df / 2.0, 0.5, x))


@dataclass(frozen=True)
class TTestResult:
    t_stat: float
    p_raw: float
    p_corrected: float
    significant: bool


def paired_t_test_bonferroni(
    per_query_scores: dict[str, list[float]], alpha: float = 0.01
) -> dict[tuple[str, str], TTestResult]:
    """Two-sided paired t-tests over all strategy pairs, Bonferroni-corrected.

    Degenerate conventions: all-zero differences give t=0, p=1; constant
    nonzero differences give t=+/-inf, p=0.
    """
    names = sorted(per_query_scores)
    if len(names) < 2:
        raise ValueError("need at least two strategies")
    n = len(per_query_scores[names[0]])
    if n < 2:
        raise ValueError("need at least two aligned scores per strategy")
    for name in names:
        if len(per_query_scores[name]) != n:
            raise ValueError(f"score list length mismatch for {name!r}")
    pairs = list(combinations(names, 2))
    results: dict[tuple[str, str], TTestResult] = {}
    for a, b in pairs:
        diffs = [x - y for x, y in zip(per_query_scores[a], per_query_scores[b])]
        mean = sum(diffs) / n
        var = sum((d - mean) ** 2 for d in diffs) / (n - 1)
        if var == 0.0:
            if mean == 0.0:
                t_stat, p = 0.0, 1.0
            else:
                t_stat, p = math.copysign(math.inf, mean), 0.0
        else:
            t_stat = mean / math.sqrt(var / n)
            p = t_p_value(t_stat, n - 1)
        corrected = min(1.0, p * len(pairs))
        results[(a, b)] = TTestResult(t_stat, p, corrected, corrected <= alpha)
    return results


@dataclass
class RecallRow:
    strategy: str
    checkpoint: int
    per_query: dict[str, float]
    mean_recall: float


@dataclass
class SignificanceRow:
    checkpoint: int
    pair: tuple[str, str]
    t_stat: float
    p_raw: float
    p_corrected: float
    significant: bool


@dataclass
class EvalReport:
    k: int
    alpha: float
    query_ids: list[str]
    recall_rows: list[RecallRow]
    significance_rows: list[SignificanceRow]

    def to_jsonl(self) -> str:
        """One JSON object per (strategy, checkpoint) plus one per pair."""
        lines = []
        for row in self.recall_rows:
            lines.append(
                json.dumps(
                    {
                        "type": "recall",
                        "strategy": row.strategy,
                        "checkpoint": row.checkpoint,
                        "k": self.k,
                        "mean_recall": row.mean_recall,
                        "per_query": row.per_query,
                    },
                    sort_keys=True,
                )
            )
        for row in self.significance_rows:
            t_out = None if math.isinf(row.t_stat) else row.t_stat
            lines.append(
                json.dumps(
                    {
                        "type": "significance",
                        "checkpoint": row.checkpoint,
                        "pair": list(row.pair),
                        "t_stat": t_out,
                        "t_infinite": math.isinf(row.t_stat),
                        "p_raw": row.p_raw,
                        "p_corrected": row.p_corrected,
                        "alpha": self.alpha,
                        "significant": row.significant,
                    },
                    sort_keys=True,
                )
            )
        return "\n".join(lines) + "\n"


def evaluate_recall(corpus, traces, queries, qrels, k: int = 100) -> list[RecallRow]:
    """The recall step of ``evaluate_checkpoints``: check the inputs, then one
    row per (strategy, checkpoint). The index and tokenise cache die with it."""
    if not traces:
        raise ValueError("need at least one trace")
    for strategy in sorted(traces):
        doc_ids = traces[strategy].doc_ids()
        if len(set(doc_ids)) != len(doc_ids):
            repeated = next(d for d, n in Counter(doc_ids).items() if n > 1)
            raise ValueError(f"trace {strategy!r} lists doc_id {repeated!r} twice")
    checkpoints = sorted(set.intersection(*(set(t.checkpoint_ranks) for t in traces.values())))
    if not checkpoints:
        raise ValueError("traces have no common checkpoints")
    relevant = {qid: relevant_docs(qrels, qid) for qid in queries}
    eval_qids = sorted(qid for qid in queries if relevant[qid])
    if not eval_qids:
        raise ValueError("no query has judged-relevant documents")
    if k < 1:
        raise ValueError("k must be >= 1")
    query_terms = {qid: tokenize(queries[qid]) for qid in eval_qids}
    vocabulary = {term for terms in query_terms.values() for term in terms}
    # shared across traces: each page is tokenised once
    query_term_counts = functools.cache(
        functools.partial(_term_counts, corpus, vocabulary=vocabulary)
    )
    recall_rows: list[RecallRow] = []
    for strategy in sorted(traces):
        trace, index = traces[strategy], None
        for indexed, checkpoint in zip([0] + checkpoints, checkpoints):
            check_rank(trace, checkpoint)
            segment = [d for _, d, _ in trace.entries[indexed:checkpoint]]
            index = build_index(corpus, segment, index, query_term_counts)
            per_query = {
                qid: _recall(search_topk(index, query_terms[qid], k), relevant[qid], qid, k)
                for qid in eval_qids
            }
            mean = sum(per_query.values()) / len(eval_qids)
            recall_rows.append(RecallRow(strategy, checkpoint, per_query, mean))
    return recall_rows


def evaluate_significance(recall_rows, k: int = 100, alpha: float = 0.01) -> EvalReport:
    """The significance step of ``evaluate_checkpoints``: paired t-tests
    across strategies at each checkpoint, from ``evaluate_recall``'s rows alone."""
    # each per_query dict is in eval_qids order, so the score lists align
    query_ids = list(recall_rows[0].per_query)
    scores: dict[int, dict[str, list[float]]] = {}
    for row in recall_rows:
        scores.setdefault(row.checkpoint, {})[row.strategy] = list(row.per_query.values())
    significance_rows: list[SignificanceRow] = []
    for checkpoint, per_strategy in scores.items():
        if len(per_strategy) >= 2 and len(query_ids) >= 2:
            for pair, res in sorted(paired_t_test_bonferroni(per_strategy, alpha).items()):
                significance_rows.append(SignificanceRow(checkpoint, pair, **vars(res)))
    return EvalReport(k, alpha, query_ids, recall_rows, significance_rows)


def evaluate_checkpoints(
    corpus: dict[str, DocumentRecord],
    traces: dict[str, CrawlTrace],
    queries: dict[str, str],
    qrels: dict[str, dict[str, int]],
    k: int = 100,
    alpha: float = 0.01,
) -> EvalReport:
    """Index every common checkpoint prefix, run all evaluable queries, and
    test pairwise significance across strategies per checkpoint. The report
    and errors are those of a full index rebuilt over every prefix; a trace
    listing a doc_id twice, or k < 1, fails before any page is tokenised."""
    return evaluate_significance(evaluate_recall(corpus, traces, queries, qrels, k), k, alpha)
