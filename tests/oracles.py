"""Independent reference implementations used to cross-check the library.

Almost everything here deliberately avoids the library's own code paths:
textbook queue/stack crawls, an O(n^2) frontier scan, Simpson integration of
the Student-t density, a full-scan hexagonal assigner, a from-scratch BM25
recomputation, the tokenisation rule as one regex, a from-scratch index
builder, a per-query BM25 ranking, a per-target corpus builder, and a
JSON-lines record reader with one json.loads per line.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np


def textbook_bfs(adjacency, seeds, budget):
    from collections import deque

    queue = deque()
    discovered = set()
    for s in seeds:
        if s not in discovered:
            discovered.add(s)
            queue.append(s)
    order = []
    while queue and len(order) < budget:
        doc = queue.popleft()
        order.append(doc)
        for target in adjacency.get(doc, []):
            if target not in discovered:
                discovered.add(target)
                queue.append(target)
    return order


def textbook_dfs(adjacency, seeds, budget):
    stack = []
    discovered = set()
    for s in seeds:
        if s not in discovered:
            discovered.add(s)
            stack.append(s)
    order = []
    while stack and len(order) < budget:
        doc = stack.pop()
        order.append(doc)
        for target in reversed(adjacency.get(doc, [])):
            if target not in discovered:
                discovered.add(target)
                stack.append(target)
    return order


def scan_qoracle(adjacency, seeds, scores, budget):
    """Greedy max-score crawl with an O(n) linear frontier scan per step."""
    frontier = []  # (doc_id, discovery_seq) in discovery order
    discovered = set()
    seq = 0
    for s in seeds:
        if s not in discovered:
            discovered.add(s)
            frontier.append((s, seq))
            seq += 1
    order = []
    while frontier and len(order) < budget:
        best_idx = 0
        best_key = (-scores[frontier[0][0]], frontier[0][1], frontier[0][0])
        for i in range(1, len(frontier)):
            doc, s_i = frontier[i]
            key = (-scores[doc], s_i, doc)
            if key < best_key:
                best_key = key
                best_idx = i
        doc, _ = frontier.pop(best_idx)
        order.append(doc)
        for target in adjacency.get(doc, []):
            if target not in discovered:
                discovered.add(target)
                frontier.append((target, seq))
                seq += 1
    return order


def trace_file_bytes(order, interval, scores=None):
    """Expected on-disk trace for a crawl order under the checkpoint rule."""
    checkpoints = list(range(interval, len(order) + 1, interval))
    if order and (not checkpoints or checkpoints[-1] != len(order)):
        checkpoints.append(len(order))
    lines = ["#checkpoints\t" + "\t".join(str(c) for c in checkpoints)]
    for rank, doc in enumerate(order, start=1):
        cell = "-" if scores is None else repr(scores[doc])
        lines.append(f"{rank}\t{doc}\t{cell}")
    return ("\n".join(lines) + "\n").encode("utf-8")


def student_t_two_sided_p(t_stat, df, n_steps=200_000):
    """Two-sided p-value by Simpson integration of the t density.

    The tail integral over [|t|, inf) is mapped onto u in [0, 1) through
    x = |t| + u/(1-u); the integrand limit at u=1 is 1/pi for df=1 and 0
    otherwise.
    """
    t_abs = abs(float(t_stat))
    log_c = math.lgamma((df + 1) / 2.0) - math.lgamma(df / 2.0) - 0.5 * math.log(df * math.pi)
    c = math.exp(log_c)

    u = np.linspace(0.0, 1.0, n_steps + 1)
    g = np.empty_like(u)
    core = u[:-1]
    x = t_abs + core / (1.0 - core)
    g[:-1] = c * (1.0 + x * x / df) ** (-(df + 1) / 2.0) / (1.0 - core) ** 2
    g[-1] = 1.0 / math.pi if df == 1 else 0.0

    h = 1.0 / n_steps
    simpson = g[0] + g[-1] + 4.0 * g[1:-1:2].sum() + 2.0 * g[2:-1:2].sum()
    tail = simpson * h / 3.0
    return min(1.0, 2.0 * tail)


def hexbin_full_scan(points, gridsize, min_count=1):
    """Assign every point to its nearest center by scanning ALL candidate
    centers of both lattices over the padded bounding box.

    Centers are ordered by (lattice flag, cx, cy); np.argmin keeps the first
    minimum, so ties resolve exactly like the library's comparison key
    (squared distance, flag, cx, cy).
    """
    xs = np.asarray([p[0] for p in points], dtype=float)
    ys = np.asarray([p[1] for p in points], dtype=float)
    xmin, xmax = xs.min(), xs.max()
    ymin, ymax = ys.min(), ys.max()
    sx = gridsize / (xmax - xmin)
    sy = (gridsize / math.sqrt(3.0)) / (ymax - ymin)
    px = (xs - xmin) * sx
    py = (ys - ymin) * sy

    centers = []
    keys = []
    for flag, off in ((0, 0.0), (1, 0.5)):
        i_lo = math.floor(px.min() - off) - 2
        i_hi = math.ceil(px.max() - off) + 2
        j_lo = math.floor(py.min() - off) - 2
        j_hi = math.ceil(py.max() - off) + 2
        for i in range(i_lo, i_hi + 1):
            for j in range(j_lo, j_hi + 1):
                centers.append((i + off, j + off))
                keys.append((flag, i, j))
    centers_arr = np.asarray(centers)

    counts = {}
    chunk = 512
    for start in range(0, len(px), chunk):
        cx = px[start : start + chunk, None] - centers_arr[None, :, 0]
        cy = py[start : start + chunk, None] - centers_arr[None, :, 1]
        d2 = cx * cx + cy * cy
        for best in np.argmin(d2, axis=1):
            key = keys[best]
            counts[key] = counts.get(key, 0) + 1

    cells = []
    for (flag, i, j), count in sorted(counts.items()):
        if count < min_count:
            continue
        off = 0.5 * flag
        cells.append((xmin + (i + off) / sx, ymin + (j + off) / sy, count))
    return cells


def bm25_from_scratch(texts, query_terms, doc_id, tokenizer):
    """Recompute one BM25 score from raw texts, no index structures."""
    tokens = {d: tokenizer(t) for d, t in sorted(texts.items())}
    n_docs = len(tokens)
    avgdl = sum(len(v) for v in tokens.values()) / n_docs
    doc_tokens = tokens[doc_id]
    seen = set()
    score = 0.0
    for term in query_terms:
        if term in seen:
            continue
        seen.add(term)
        tf = doc_tokens.count(term)
        if tf == 0:
            continue
        df = sum(1 for v in tokens.values() if term in v)
        idf = math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))
        norm = 1.2 * (1.0 - 0.75 + 0.75 * len(doc_tokens) / avgdl)
        score += idf * tf * (1.2 + 1.0) / (tf + norm)
    return score


def reference_tokenize(text):
    """Lower-case, then every maximal run of Unicode letters and digits."""
    return re.findall(r"[^\W_]+", text.lower())


def reference_build_index(corpus, doc_ids):
    """Index built from scratch over exactly the given doc_ids, every term
    posted; raises the library's errors with the library's messages."""
    from collections import Counter

    from qcrawl.errors import UnknownDoc
    from qcrawl.retrieval import InvertedIndex

    ids = sorted(doc_ids)
    if not ids:
        raise ValueError("cannot build an index over an empty doc_id set")
    index = InvertedIndex()
    for doc_id in ids:
        if doc_id not in corpus:
            raise UnknownDoc(f"doc_id not in corpus: {doc_id!r}")
        tokens = reference_tokenize(corpus[doc_id].text)
        index.doc_lengths[doc_id] = len(tokens)
        for term, count in Counter(tokens).items():
            index.postings.setdefault(term, {})[doc_id] = count
    total_tokens = sum(index.doc_lengths.values())
    if total_tokens == 0:
        raise ValueError("every document in the index has zero tokens")
    index.doc_count = len(index.doc_lengths)
    index.avgdl = total_tokens / index.doc_count
    return index


def reference_search_topk(index, query_terms, k):
    """Top-k by scoring every posted doc per query with its own BM25, in the
    library's operation order, then sorting by (-score, doc_id)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    n_docs, avgdl = index.doc_count, index.avgdl
    scores = {}
    for term in dict.fromkeys(query_terms):
        posting = index.postings.get(term)
        if not posting:
            continue
        df = len(posting)
        idf = math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))
        for doc_id, tf in posting.items():
            norm = 1.2 * (1.0 - 0.75 + 0.75 * index.doc_lengths[doc_id] / avgdl)
            scores[doc_id] = scores.get(doc_id, 0.0) + idf * tf * (1.2 + 1.0) / (tf + norm)
    return sorted(scores.items(), key=lambda item: (-item[1], item[0]))[:k]


def reference_evaluate_checkpoints(corpus, traces, queries, qrels, k=100, alpha=0.01):
    """Checkpoint evaluation that rebuilds the whole index for every
    (strategy, checkpoint) prefix with ``reference_build_index`` and ranks it
    with ``reference_search_topk``."""
    from qcrawl.retrieval import (
        EvalReport,
        RecallRow,
        SignificanceRow,
        paired_t_test_bonferroni,
        recall_at_k,
        relevant_docs,
    )

    if not traces:
        raise ValueError("need at least one trace")
    common = set.intersection(*(set(t.checkpoint_ranks) for t in traces.values()))
    if not common:
        raise ValueError("traces have no common checkpoints")
    checkpoints = sorted(common)
    eval_qids = sorted(q for q in queries if relevant_docs(qrels, q))
    if not eval_qids:
        raise ValueError("no query has judged-relevant documents")
    query_terms = {qid: reference_tokenize(queries[qid]) for qid in eval_qids}

    strategies = sorted(traces)
    recall_rows = []
    per_checkpoint_scores = {c: {} for c in checkpoints}
    for strategy in strategies:
        entries = traces[strategy].entries
        for checkpoint in checkpoints:
            if not 1 <= checkpoint <= len(entries):
                raise ValueError(f"rank {checkpoint} out of range 1..{len(entries)}")
            index = reference_build_index(corpus, {d for _, d, _ in entries[:checkpoint]})
            per_query = {}
            for qid in eval_qids:
                ranked = reference_search_topk(index, query_terms[qid], k)
                per_query[qid] = recall_at_k(ranked, qrels, qid, k)
            mean = sum(per_query.values()) / len(eval_qids)
            recall_rows.append(RecallRow(strategy, checkpoint, per_query, mean))
            per_checkpoint_scores[checkpoint][strategy] = [per_query[q] for q in eval_qids]

    significance_rows = []
    if len(strategies) >= 2 and len(eval_qids) >= 2:
        for checkpoint in checkpoints:
            tests = paired_t_test_bonferroni(per_checkpoint_scores[checkpoint], alpha)
            for pair in sorted(tests):
                res = tests[pair]
                significance_rows.append(
                    SignificanceRow(
                        checkpoint, pair, res.t_stat, res.p_raw, res.p_corrected, res.significant
                    )
                )
    return EvalReport(k, alpha, eval_qids, recall_rows, significance_rows)


def reference_build_corpus(rows, edges=None):
    """Corpus assembly one outlink at a time, with a seen-set per source.

    Returns (records, adjacency, stats): records maps doc_id to its
    (doc_id, url, text), adjacency is the graph's, and stats a LoadStats.
    """
    from qcrawl.corpus import CorpusFormatError, LoadStats

    stats = LoadStats()
    doc_ids = set()
    raw_order = []
    for row in rows:
        if row["doc_id"] in doc_ids:
            raise CorpusFormatError(f"duplicate doc_id: {row['doc_id']!r}")
        doc_ids.add(row["doc_id"])
        raw_order.append(row["doc_id"])
    stats.records = len(rows)

    # An edge list replaces the records' outlinks entirely.
    if edges is not None:
        raw_outlinks = {d: [] for d in raw_order}
        for src, dst in edges:
            stats.edges_loaded += 1
            if src not in doc_ids:
                stats.dangling_dropped += 1
                continue
            raw_outlinks[src].append(dst)
    else:
        raw_outlinks = {row["doc_id"]: list(row.get("outlinks", [])) for row in rows}
        stats.edges_loaded = sum(len(v) for v in raw_outlinks.values())

    records = {}
    adjacency = {}
    for row in rows:
        doc_id = row["doc_id"]
        seen = set()
        deduped = []
        for target in raw_outlinks[doc_id]:
            if target in seen:
                stats.duplicate_dropped += 1
                continue
            seen.add(target)
            deduped.append(target)
        kept = [t for t in deduped if t in doc_ids]
        stats.dangling_dropped += len(deduped) - len(kept)
        stats.edges_kept += len(kept)
        records[doc_id] = (doc_id, row.get("url"), row["text"])
        adjacency[doc_id] = kept
    return records, adjacency, stats


def reference_parse_jsonl(path):
    """A JSON-lines record file read whole and decoded one json.loads per
    line: the rows, or the CorpusFormatError naming the first bad line."""
    from qcrawl.corpus import CorpusFormatError

    def is_doc_id(value):
        return isinstance(value, str) and value != "" and not any(c.isspace() for c in value)

    rows, seen = [], set()
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        where = f"{path}:{lineno}:"
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise CorpusFormatError(f"{where} invalid JSON ({exc.msg})") from None
        if not isinstance(obj, dict):
            raise CorpusFormatError(f"{where} expected a JSON object")
        doc_id = obj.get("doc_id")
        if not is_doc_id(doc_id):
            raise CorpusFormatError(f"{where} doc_id must be a non-empty token without whitespace")
        if doc_id in seen:
            raise CorpusFormatError(f"{where} duplicate doc_id {doc_id!r}")
        seen.add(doc_id)
        if not isinstance(obj.get("text"), str):
            raise CorpusFormatError(f"{where} missing or non-string 'text'")
        if obj.get("url") is not None and not isinstance(obj["url"], str):
            raise CorpusFormatError(f"{where} 'url' must be a string or null")
        outlinks = obj.get("outlinks", [])
        if not (isinstance(outlinks, list) and all(map(is_doc_id, outlinks))):
            raise CorpusFormatError(f"{where} 'outlinks' must be a list of doc_ids")
        rows.append(obj)
    return rows
