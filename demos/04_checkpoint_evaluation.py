"""
Checkpointed retrieval evaluation of crawl strategies
=====================================================

The question the toolkit answers: if we stop each crawler after N pages
and build a BM25 index over what it has, which crawl found the relevant
content first? Recall@100 counts ALL judged-relevant documents in the
denominator, so pages the crawler never reached count as misses.
"""

from qcrawl import (
    build_corpus,
    evaluate_checkpoints,
    run_crawl,
    score_batch,
    synthetic_corpus,
)

# a homophilic graph: pages link to pages of similar quality, and the
# relevant pages hold the top reference-scorer quality
rows, queries, qrels, seeds = synthetic_corpus(
    n_nodes=1200, n_queries=30, rel_per_query=3, n_seeds=50, rng_seed=7
)
corpus, graph, _ = build_corpus(rows)
scores = dict(score_batch(list(corpus.values())))

traces = {}
for strategy in ("bfs", "dfs", "qoracle"):
    traces[strategy] = run_crawl(
        graph, seeds, strategy, budget=1200, checkpoint_interval=120,
        scores=scores if strategy == "qoracle" else None,
    )

report = evaluate_checkpoints(corpus, traces, queries, qrels, k=100, alpha=0.01)

means = {}
for row in report.recall_rows:
    means.setdefault(row.checkpoint, {})[row.strategy] = row.mean_recall

print(f"{'pages':>7s} {'bfs':>8s} {'dfs':>8s} {'qoracle':>8s}")
for checkpoint in sorted(means):
    m = means[checkpoint]
    print(f"{checkpoint:7d} {m['bfs']:8.3f} {m['dfs']:8.3f} {m['qoracle']:8.3f}")

print("\npairwise Bonferroni-corrected t-tests at the first checkpoint:")
first = min(means)
for row in report.significance_rows:
    if row.checkpoint == first:
        marker = "SIGNIFICANT" if row.significant else "not significant"
        print(f"  {row.pair[0]:8s} vs {row.pair[1]:8s}  p={row.p_corrected:.2e}  {marker}")
