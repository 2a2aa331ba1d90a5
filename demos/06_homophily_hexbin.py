"""
Quality homophily: correlation study and hexagonal binning
==========================================================

Do pages link to pages of similar quality? For every page with at least
one outlink we pair its quality with the mean quality of its link
targets, then measure Pearson correlation, fit the regression line, and
aggregate the point cloud into hexagonal cells (plot-ready CSV shape).
"""

from qcrawl import (
    build_corpus,
    correlation_study,
    hexbin,
    score_batch,
    synthetic_corpus,
)


def study(anti):
    rows, _, _, _ = synthetic_corpus(
        n_nodes=1500, n_queries=20, rel_per_query=2, n_seeds=50,
        rng_seed=5, anti_homophilic=anti,
    )
    corpus, graph, _ = build_corpus(rows)
    scores = dict(score_batch(list(corpus.values())))
    return correlation_study(graph, scores)


report, points = study(anti=False)
print("homophilic graph:")
print(f"  pearson r = {report.pearson_r:+.3f} over n = {report.n} pages")
print(f"  regression line: mean_outlink_q = {report.ols_slope:.3f} * q + {report.ols_intercept:.3f}")

grid = hexbin(points, gridsize=25, min_count=10)
print(f"  hexbin: {len(grid.cells)} cells with >= 10 pages (of {grid.n_points} points)")
densest = max(grid.cells, key=lambda c: c[2])
print(f"  densest cell: center=({densest[0]:.3f}, {densest[1]:.3f}) count={densest[2]}")
print()

anti_report, _ = study(anti=True)
print("anti-homophilic graph (links prefer opposite quality):")
print(f"  pearson r = {anti_report.pearson_r:+.3f} over n = {anti_report.n} pages")
