"""
Crawl strategies over one graph: bfs, dfs, qoracle
==================================================

All three strategies share one frontier discipline: a page is discovered
at most once and its priority is fixed at discovery. bfs pops the oldest
discovery, dfs the newest (following the first-listed link next), and
qoracle always pops the highest quality score in the frontier.
"""

from qcrawl import build_corpus, run_crawl, score_batch, synthetic_corpus

rows, _, _, seeds = synthetic_corpus(
    n_nodes=60, n_queries=5, rel_per_query=2, n_seeds=4, rng_seed=42
)
corpus, graph, _ = build_corpus(rows)
scores = dict(score_batch(list(corpus.values())))

for strategy in ("bfs", "dfs", "qoracle"):
    trace = run_crawl(
        graph, seeds, strategy, budget=60, checkpoint_interval=15,
        scores=scores if strategy == "qoracle" else None,
    )
    first = trace.doc_ids()[:8]
    mean_q_first10 = sum(scores[d] for d in trace.doc_ids()[:10]) / 10
    print(f"{strategy:8s} first crawled: {first}")
    print(f"{'':8s} mean quality of first 10 pages: {mean_q_first10:+.3f}")
    print(f"{'':8s} checkpoints: {trace.checkpoint_ranks}")
    print()

# qoracle crawls pages in (nearly) descending score order: the frontier
# can only offer what has been discovered so far, so occasional dips occur
trace = run_crawl(graph, seeds, "qoracle", budget=60, checkpoint_interval=15, scores=scores)
qs = [scores[d] for d in trace.doc_ids()]
print("qoracle quality along the crawl (first 12):", [f"{q:+.2f}" for q in qs[:12]])
