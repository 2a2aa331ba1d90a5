"""Acceptance suite: one test per release criterion, at its stated tolerance.

Each test prints a PASS line when its criterion holds (visible with -s);
a failing criterion fails the corresponding test.
"""

import json
import math
import time

import numpy as np
import pytest

from qcrawl import (
    CrawlTrace,
    build_corpus,
    build_index,
    correlation_study,
    evaluate_checkpoints,
    hexbin,
    histogram,
    js_distance,
    ols_regression,
    paired_t_test_bonferroni,
    pearson,
    run_crawl,
    score_batch,
    search_topk,
    synthetic_corpus,
    t_p_value,
    write_trace,
)
from qcrawl.cli import main

from oracles import (
    hexbin_full_scan,
    scan_qoracle,
    student_t_two_sided_p,
    textbook_bfs,
    textbook_dfs,
    trace_file_bytes,
)


def _ok(name):
    print(f"ACCEPTANCE PASS: {name}")


def test_bm25_hand_case():
    start = time.perf_counter()
    rows = [{"doc_id": "d", "url": None, "text": "a b", "outlinks": []}]
    corpus, _, _ = build_corpus(rows)
    index = build_index(corpus, {"d"})
    [(doc_id, score)] = search_topk(index, ["a"], 100)
    assert doc_id == "d" and score == pytest.approx(math.log(4 / 3), abs=1e-6)
    assert time.perf_counter() - start < 1.0
    _ok("BM25 hand case: single-doc 'a b', query 'a' -> ln(4/3) +- 1e-6")


def test_js_distance_hand_cases():
    start = time.perf_counter()
    h_qq = histogram([0.1, 0.9], bins=2, value_range=(0.0, 1.0))   # counts [1, 1]
    h_p0 = histogram([0.1], bins=2, value_range=(0.0, 1.0))        # counts [1, 0]
    h_0p = histogram([0.9], bins=2, value_range=(0.0, 1.0))        # counts [0, 1]

    assert js_distance(h_p0, h_p0) == 0.0
    assert js_distance(h_qq, h_qq) == 0.0
    assert js_distance(h_p0, h_0p) == pytest.approx(1.0, abs=1e-12)
    # hand-derived: sqrt(0.5*(0.5*log2(0.5/0.75)+0.5*log2(0.5/0.25)) + 0.5*log2(1/0.75))
    derived = math.sqrt(
        0.5 * (0.5 * math.log2(0.5 / 0.75) + 0.5 * math.log2(0.5 / 0.25))
        + 0.5 * math.log2(1 / 0.75)
    )
    assert derived == pytest.approx(0.5579230452841438, abs=1e-12)
    assert js_distance(h_qq, h_p0) == pytest.approx(derived, abs=1e-6)
    assert time.perf_counter() - start < 1.0
    _ok("JS distance: identity 0, disjoint 1.0 +- 1e-12, hand case +- 1e-6")


def test_pearson_ols_exactness_and_affine_invariance():
    assert pearson([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0, abs=1e-12)
    assert pearson([1, 2, 3], [-1, -2, -3]) == pytest.approx(-1.0, abs=1e-12)
    slope, intercept = ols_regression([0.0, 1.0, 2.0], [1.0, 3.0, 5.0])
    assert slope == pytest.approx(2.0, abs=1e-12)
    assert intercept == pytest.approx(1.0, abs=1e-12)

    rng = np.random.default_rng(99)
    for _ in range(1000):
        n = int(rng.integers(3, 40))
        x = rng.normal(size=n)
        y = rng.normal(size=n)
        a = float(rng.uniform(1e-3, 1e3))
        b = float(rng.normal(scale=10))
        assert pearson(x, a * y + b) == pytest.approx(pearson(x, y), abs=1e-12)
    _ok("Pearson/OLS: perfect lines exact to 1e-12; affine invariance x1000")


def test_crawler_matches_reference_simulations(tmp_path):
    start = time.perf_counter()
    rng = np.random.default_rng(123)
    for trial in range(100):
        n = int(rng.integers(2, 201))
        ids = [f"n{i:03d}" for i in range(n)]
        adjacency = {
            d: [ids[int(rng.integers(0, n))] for _ in range(int(rng.integers(0, 6)))]
            for d in ids
        }
        rows = [
            {"doc_id": d, "url": None, "text": "t", "outlinks": adjacency[d]} for d in ids
        ]
        _, graph, _ = build_corpus(rows)
        n_seeds = int(rng.integers(1, min(5, n) + 1))
        seeds = [ids[i] for i in rng.choice(n, size=n_seeds, replace=False)]
        scores = {d: float(rng.normal()) for d in ids}
        budget = int(rng.integers(1, n + 10))
        interval = int(rng.integers(1, 20))

        references = {
            "bfs": textbook_bfs(graph.adjacency, seeds, budget),
            "dfs": textbook_dfs(graph.adjacency, seeds, budget),
            "qoracle": scan_qoracle(graph.adjacency, seeds, scores, budget),
        }
        for strategy, expected_order in references.items():
            trace = run_crawl(
                graph, seeds, strategy, budget=budget, checkpoint_interval=interval,
                scores=scores if strategy == "qoracle" else None,
            )
            path = tmp_path / f"{trial}-{strategy}.tsv"
            write_trace(trace, str(path))
            expected = trace_file_bytes(
                expected_order, interval, scores if strategy == "qoracle" else None
            )
            assert path.read_bytes() == expected, f"trial {trial} {strategy}"
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _ok(f"crawler equivalence: 100 random graphs byte-match references ({elapsed:.1f}s)")


def test_every_subcommand_is_deterministic(tmp_path):
    rows, queries, qrels, seeds = synthetic_corpus(
        n_nodes=120, n_queries=6, rel_per_query=2, n_seeds=8, rng_seed=77
    )
    corpus_path = tmp_path / "corpus.jsonl"
    with open(corpus_path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")
    seeds_path = tmp_path / "seeds.txt"
    seeds_path.write_text("".join(s + "\n" for s in seeds))
    queries_path = tmp_path / "queries.tsv"
    queries_path.write_text("".join(f"{q}\t{t}\n" for q, t in queries.items()))
    qrels_path = tmp_path / "qrels.txt"
    qrels_path.write_text(
        "".join(f"{q} 0 {d} {g}\n" for q, js in qrels.items() for d, g in js.items())
    )

    def run_all(tag):
        out = tmp_path / tag
        out.mkdir()
        scored = out / "scored.jsonl"
        assert main(["score", "--input", str(corpus_path), "--output", str(scored)]) == 0
        scored_csv = out / "scored.csv"
        assert main(
            ["score", "--input", str(corpus_path), "--output", str(scored_csv),
             "--format", "jsonl:csv"]
        ) == 0
        table = out / "scores.tsv"
        with open(scored, encoding="utf-8") as fh, open(table, "w", encoding="utf-8") as oh:
            for line in fh:
                obj = json.loads(line)
                oh.write(f"{obj['doc_id']}\t{obj['quality_score']!r}\n")
        traces = {}
        for strategy in ("bfs", "dfs", "qoracle"):
            trace_path = out / f"{strategy}.tsv"
            args = [
                "crawl", "--input", str(corpus_path), "--seeds", str(seeds_path),
                "--strategy", strategy, "--budget", "120", "--checkpoint-interval", "12",
                "--output", str(trace_path),
            ]
            if strategy == "qoracle":
                args += ["--scores", str(table)]
            assert main(args) == 0
            traces[strategy] = trace_path
        index_stats = out / "index.json"
        assert main(
            ["index", "--input", str(corpus_path), "--trace", str(traces["bfs"]),
             "--output", str(index_stats)]
        ) == 0
        report = out / "report.jsonl"
        assert main(
            ["eval", "--input", str(corpus_path),
             "--trace", f"bfs={traces['bfs']}", "--trace", f"dfs={traces['dfs']}",
             "--trace", f"qoracle={traces['qoracle']}",
             "--queries", str(queries_path), "--qrels", str(qrels_path),
             "--k", "100", "--alpha", "0.01", "--output", str(report)]
        ) == 0
        stats_dir = out / "stats"
        assert main(
            ["stats", "--scores", str(table), "--input", str(corpus_path),
             "--qrels", str(qrels_path), "--undersample", "--rng-seed", "17",
             "--min-count", "1", "--output", str(stats_dir)]
        ) == 0
        blobs = {}
        for path in sorted(out.rglob("*")):
            if path.is_file():
                blobs[str(path.relative_to(out))] = path.read_bytes()
        return blobs

    first = run_all("run1")
    second = run_all("run2")
    assert set(first) == set(second)
    for name in first:
        assert first[name] == second[name], f"output differs: {name}"
    _ok("determinism: every subcommand rerun -> byte-identical outputs")


@pytest.fixture(scope="module")
def homophilic_bundle():
    start = time.perf_counter()
    budget = 2400
    rows, queries, qrels, seeds = synthetic_corpus(
        n_nodes=budget, n_queries=60, rel_per_query=3, n_seeds=100, rng_seed=7
    )
    corpus, graph, _ = build_corpus(rows)
    scores = dict(score_batch(list(corpus.values())))
    marks = [budget // 10, budget // 4, budget // 2, budget]  # 10/25/50/100%
    traces = {}
    for strategy in ("bfs", "dfs", "qoracle"):
        trace = run_crawl(
            graph, seeds, strategy, budget=budget, checkpoint_interval=budget // 20,
            scores=scores if strategy == "qoracle" else None,
        )
        assert len(trace) == budget  # ring edge keeps the graph fully reachable
        kept = [r for r in trace.checkpoint_ranks if r in marks]
        assert kept == marks
        traces[strategy] = CrawlTrace(entries=trace.entries, checkpoint_ranks=kept)
    report = evaluate_checkpoints(corpus, traces, queries, qrels, k=100, alpha=0.01)
    elapsed = time.perf_counter() - start
    return {
        "graph": graph,
        "scores": scores,
        "report": report,
        "marks": marks,
        "n_queries": len(report.query_ids),
        "elapsed": elapsed,
    }


def test_recall_curve_shape_on_homophilic_graph(homophilic_bundle):
    start = time.perf_counter()
    report = homophilic_bundle["report"]
    marks = homophilic_bundle["marks"]
    assert homophilic_bundle["n_queries"] >= 50

    means = {}
    for row in report.recall_rows:
        means.setdefault(row.checkpoint, {})[row.strategy] = row.mean_recall
    for checkpoint in marks[:2]:  # 10% and 25% of budget
        assert means[checkpoint]["qoracle"] >= means[checkpoint]["bfs"]
        assert means[checkpoint]["qoracle"] >= means[checkpoint]["dfs"]
    final = means[marks[-1]]
    assert final["qoracle"] == final["bfs"] == final["dfs"]  # exhaustion converges

    significant = {
        (row.checkpoint, row.pair): row.significant for row in report.significance_rows
    }
    for checkpoint in marks[:2]:
        assert significant[(checkpoint, ("dfs", "qoracle"))]
    elapsed = homophilic_bundle["elapsed"] + (time.perf_counter() - start)
    assert elapsed < 120.0
    _ok(
        "recall curve: qoracle >= bfs/dfs at 10%/25%, converges at exhaustion, "
        f"qoracle-vs-dfs significant at alpha=0.01 on {homophilic_bundle['n_queries']} "
        f"queries ({elapsed:.1f}s)"
    )


def test_homophily_correlation_signs(homophilic_bundle):
    report, _ = correlation_study(homophilic_bundle["graph"], homophilic_bundle["scores"])
    assert report.pearson_r > 0

    rows, _, _, _ = synthetic_corpus(
        n_nodes=800, n_queries=20, rel_per_query=2, n_seeds=40, rng_seed=19,
        anti_homophilic=True,
    )
    corpus, graph, _ = build_corpus(rows)
    scores = dict(score_batch(list(corpus.values())))
    anti_report, _ = correlation_study(graph, scores)
    assert anti_report.pearson_r < 0
    _ok(
        f"homophily correlation: r={report.pearson_r:.3f} > 0 on homophilic graph, "
        f"r={anti_report.pearson_r:.3f} < 0 on anti-homophilic graph"
    )


def test_hexbin_matches_bruteforce_oracle():
    rng = np.random.default_rng(2025)
    pts = [(float(x), float(y)) for x, y in rng.uniform(-3.0, 3.0, size=(10_000, 2))]
    grid = hexbin(pts, gridsize=25, min_count=1)
    assert grid.cells == hexbin_full_scan(pts, 25)
    assert grid.kept_count == 10_000
    _ok("hexbin: 10,000 random points, gridsize 25, exact oracle match")


def test_t_test_p_values_match_integration_oracle():
    rng = np.random.default_rng(31415)
    worst = 0.0
    for n in range(2, 51):
        df = n - 1
        # p-values produced by the paired test itself
        for _ in range(2):
            a = rng.normal(size=n).tolist()
            b = (np.asarray(a) + rng.normal(scale=0.7, size=n)).tolist()
            res = paired_t_test_bonferroni({"a": a, "b": b}, alpha=0.01)[("a", "b")]
            if math.isinf(res.t_stat):
                continue
            oracle = student_t_two_sided_p(res.t_stat, df)
            worst = max(worst, abs(res.p_raw - oracle))
        # plus a fixed grid straight through the p-value function
        for t in (0.0, 0.25, 1.0, 2.5, 6.0):
            worst = max(worst, abs(t_p_value(t, df) - student_t_two_sided_p(t, df)))
    assert worst <= 1e-9
    _ok(f"t-test p-values match Simpson-integration oracle (worst |diff|={worst:.2e})")
