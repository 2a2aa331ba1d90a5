"""BM25 retrieval over crawl prefixes and checkpointed recall evaluation.

The index is a plain in-memory inverted file. Scoring follows the
Lucene-style BM25 with k1=1.2, b=0.75 and idf(t) = ln(1 + (N-df+0.5)/(df+0.5)),
which keeps idf strictly positive for every indexed term. Recall@k counts
all judged-relevant documents in the denominator, crawled or not, so the
metric measures crawl coverage rather than pure ranking quality.

Checkpoint evaluation tokenises each page a trace reaches once, in doc_id order, and counts
its query-term postings with one np.unique, by term and then page. Each index state (a
strategy's prefix at a checkpoint) fails as a full index build would and is weighed in one
pass from its share of those postings; its queries are scored in blocks, each doc's weights
summed in query-term order. search_topk and the recall count rank from one order, score
descending with ties to the smaller doc_id: a relevant doc counts iff its score is > 0 and
its rank is below k. A state that recurs is scored once.
Only the recall rows reach the t-tests: in ``qcrawl eval`` the pages and traces
are freed, numpy loaded first and garbage collected, before scipy loads.
"""

from __future__ import annotations

import json
import math
import re
from array import array
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, combinations, count

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


def build_index(corpus: dict[str, DocumentRecord], doc_ids) -> InvertedIndex:
    """A new index of exactly the given doc_ids, added in sorted order with
    every term posted, then N and avgdl. A zero-token doc counts in N."""
    ids = sorted(doc_ids)
    if not ids:
        raise ValueError("cannot build an index over an empty doc_id set")
    index = InvertedIndex()
    for doc_id in ids:
        if doc_id not in corpus:
            raise UnknownDoc(f"doc_id not in corpus: {doc_id!r}")
        tokens = tokenize(corpus[doc_id].text)
        index.doc_lengths[doc_id] = len(tokens)
        for term, count in Counter(tokens).items():
            index.postings.setdefault(term, {})[doc_id] = count
    total_tokens = sum(index.doc_lengths.values())
    if total_tokens == 0:
        raise ValueError("every document in the index has zero tokens")
    index.doc_count = len(index.doc_lengths)
    index.avgdl = total_tokens / index.doc_count
    return index


def _weigh(docs, terms, tf, lengths, n_terms: int, n_docs: int, avgdl: float) -> tuple:
    """Weigh an index state's postings, given as doc, term and tf arrays sorted by term,
    all at once: (docs, BM25 weights, each term's first posting, dfs)."""
    import numpy as np

    dfs = np.bincount(terms, minlength=n_terms)
    idf = np.array([math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5)) for df in dfs.tolist()])
    norm = K1 * (1.0 - B + B * lengths[docs] / avgdl)  # BM25, over every posting at once
    return docs, idf[terms] * tf * (K1 + 1.0) / (tf + norm), np.cumsum(dfs) - dfs, dfs


def _ranges(starts, lens):
    """Positions starts[i] .. starts[i] + lens[i] - 1 of every i, concatenated."""
    import numpy as np

    return np.arange(lens.sum()) + np.repeat(starts - np.cumsum(lens) + lens, lens)


def _sums(rows, terms, state, n: int) -> tuple:
    """Keys row * n + doc, ascending, of the docs that a block of queries matches, their
    BM25 scores, and the rank order: by row, then score descending, then doc number, that
    is doc_id. Row rows[i] reads term terms[i]'s postings in query-term order, kept by the
    stable sort, so a doc's weights add from 0.0 in that order; matched iff the sum is > 0."""
    import numpy as np

    docs, weights, firsts, dfs = state
    at = _ranges(firsts[terms], dfs[terms])
    keys = np.repeat(rows, dfs[terms]) * n + docs[at]
    order = np.argsort(keys, kind="stable")  # merges runs: each term's docs ascend
    keys, first = keys[order], np.ones(len(keys), bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])  # a pair's first posting
    keys, scores = keys[first], np.bincount(np.cumsum(first) - 1, weights[at][order])
    return keys, scores, np.lexsort((keys, -scores, keys // n))


def search_topk(index: InvertedIndex, query_terms, k: int) -> list[tuple[str, float]]:
    """Top-k matching documents, score descending, ties by doc_id ascending."""
    import numpy as np

    if k < 1:
        raise ValueError("k must be >= 1")
    lists = [index.postings[t] for t in dict.fromkeys(query_terms) if t in index.postings]
    doc_ids = sorted(set().union(*lists))  # only the matched docs, numbered in doc_id order
    number = dict(zip(doc_ids, count()))
    hits = np.arange(len(lists))  # the query's terms, numbered in query-term order
    docs = np.fromiter(map(number.__getitem__, chain.from_iterable(lists)), np.intp)
    tf = np.fromiter(chain.from_iterable(map(dict.values, lists)), np.intp)
    terms = np.repeat(hits, list(map(len, lists)))  # postings term by term: sorted by term
    lengths = np.array([index.doc_lengths[d] for d in doc_ids], np.float64)
    state = _weigh(docs, terms, tf, lengths, len(lists), index.doc_count, index.avgdl)
    keys, scores, order = _sums(0 * hits, hits, state, len(doc_ids))
    top = order[:k]
    return list(zip(map(doc_ids.__getitem__, keys[top].tolist()), scores[top].tolist()))


BLOCK = 1 << 14  # postings that one block of eval's queries reads: arrays near 128 KiB


def _found_counts(state, queries, relevant, shape: tuple[int, int], k: int):
    """Per query, how many relevant docs are in its top k at one index state of ``shape``
    (queries, docs); ``queries`` and ``relevant`` are (row, term) and (row, doc) number
    pairs, sorted by row. Doc r is in iff s_r > 0 and its rank, its place in ``_sums``'
    rank order less its row's start, is below k: fewer than k docs rank ahead of it."""
    import numpy as np

    (q_rows, q_terms), (r_rows, r_docs), (n_rows, n) = queries, relevant, shape
    through = np.cumsum(np.bincount(q_rows, state[3][q_terms], n_rows))  # postings to a row
    edges = [0, *(np.flatnonzero(np.diff(through // BLOCK)) + 1).tolist(), n_rows]
    found = np.zeros(n_rows, np.intp)
    for a, b in zip(edges, edges[1:]):
        pairs, rel = (slice(*np.searchsorted(x, [a, b])) for x in (q_rows, r_rows))
        keys, scores, order = _sums(q_rows[pairs], q_terms[pairs], state, n)
        if not len(keys):
            continue  # no query of the block matches a doc
        rows, rel_keys = r_rows[rel] - a, r_rows[rel] * n + r_docs[rel]
        at = np.searchsorted(keys, rel_keys, "right") - 1  # the last key <= each
        s_r = np.where(keys[at] == rel_keys, scores[at], 0.0)
        place = np.empty_like(order)
        place[order] = np.arange(len(order))  # each key's place in the rank order
        rank = place[at] - np.searchsorted(keys, r_rows[rel] * n)  # less its row's first key
        found[a:b] = np.bincount(rows[(s_r > 0) & (rank < k)], minlength=b - a)
    return found


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
    relevant = relevant_docs(qrels, query_id)
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
    x = df / (df + t_stat * t_stat)  # 0.0 at t = +/-inf, where betainc is exactly 0.0
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
        """One JSON object per (strategy, checkpoint) plus one per pair, each
        holding its row's fields; an infinite t is written as a null t_stat."""
        lines = [
            json.dumps({"type": "recall", "k": self.k, **vars(row)}, sort_keys=True)
            for row in self.recall_rows
        ]
        for row in self.significance_rows:
            infinite = math.isinf(row.t_stat)  # JSON has no infinity
            extra = {"type": "significance", "alpha": self.alpha, "t_infinite": infinite}
            if infinite:
                extra["t_stat"] = None
            lines.append(json.dumps({**vars(row), **extra}, sort_keys=True))
        return "\n".join(lines) + "\n"


def evaluate_recall(corpus, traces, queries, qrels, k: int = 100) -> list[RecallRow]:
    """The recall step of ``evaluate_checkpoints``: check the inputs, tokenise the
    reached pages, then one row per (strategy, checkpoint). The arrays die with it."""
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
    import numpy as np

    query_terms = {qid: list(dict.fromkeys(tokenize(queries[qid]))) for qid in eval_qids}
    vocabulary = dict(zip(dict.fromkeys(chain.from_iterable(query_terms.values())), count()))
    # every page a trace reaches, numbered in doc_id order: ties then go to the smaller number
    reached = sorted({d for t in traces.values() for _, d, _ in t.entries[: checkpoints[-1]]})
    number = dict(zip(reached, count()))
    hits = [(j, vocabulary[t]) for j, q in enumerate(eval_qids) for t in query_terms[q]]
    rel = [(j, number[d]) for j, q in enumerate(eval_qids) for d in relevant[q] if d in number]
    pairs = [np.array(x, np.intp).reshape(-1, 2).T for x in (hits, rel)]
    n = len(number)
    lengths = array("i")  # each page's token count
    postings = array("q")  # term * n + page, once per query-term token
    for i, doc_id in enumerate(reached):  # an unknown page fails at its index state, below
        tokens = tokenize(corpus[doc_id].text) if doc_id in corpus else []
        lengths.append(len(tokens))
        postings.extend([vocabulary[t] * n + i for t in tokens if t in vocabulary])
    postings, tf = np.unique(postings, return_counts=True)  # rebound: frees the per-token keys
    (terms, docs), dl = np.divmod(postings, n), np.frombuffer(lengths, np.int32)  # term, page
    recall_rows: list[RecallRow] = []
    done = {}  # index state -> its per-query recall: a state that recurs is scored once
    for strategy in sorted(traces):
        trace, member = traces[strategy], np.zeros(n, bool)
        for indexed, checkpoint in zip([0] + checkpoints, checkpoints):
            check_rank(trace, checkpoint)
            added = [d for _, d, _ in trace.entries[indexed:checkpoint]]
            unknown = min((d for d in added if d not in corpus), default=None)
            if unknown is not None:  # a full build adds pages in doc_id order: this one fails
                raise UnknownDoc(f"doc_id not in corpus: {unknown!r}")
            member[list(map(number.__getitem__, added))] = True
            total = int(dl[member].sum())
            if total == 0:
                raise ValueError("every document in the index has zero tokens")
            key = np.packbits(member).tobytes()  # n/8 bytes
            if key not in done:
                keep = member[docs]
                state = _weigh(docs[keep], terms[keep], tf[keep], dl, len(vocabulary),
                               checkpoint, total / checkpoint)
                found = _found_counts(state, *pairs, (len(eval_qids), n), k).tolist()
                done[key] = [f / len(relevant[qid]) for qid, f in zip(eval_qids, found)]
            per_query = dict(zip(eval_qids, done[key]))
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
