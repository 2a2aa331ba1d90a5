import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qcrawl import (
    CorpusFormatError,
    CrawlTrace,
    MissingScore,
    UnknownDoc,
    build_corpus,
    read_trace,
    run_crawl,
    trace_prefix,
    write_trace,
)

from oracles import scan_qoracle, textbook_bfs, textbook_dfs, trace_file_bytes


def _graph(adjacency):
    ids = set(adjacency)
    for targets in adjacency.values():
        ids.update(targets)
    rows = [
        {"doc_id": d, "url": None, "text": "t", "outlinks": adjacency.get(d, [])}
        for d in sorted(ids)
    ]
    _, graph, _ = build_corpus(rows)
    return graph


def random_graph(rng, max_nodes=200):
    n = int(rng.integers(2, max_nodes + 1))
    ids = [f"n{i:03d}" for i in range(n)]
    adjacency = {}
    for d in ids:
        n_out = int(rng.integers(0, 6))
        adjacency[d] = [ids[int(rng.integers(0, n))] for _ in range(n_out)]
    n_seeds = int(rng.integers(1, min(5, n) + 1))
    seeds = [ids[i] for i in rng.choice(n, size=n_seeds, replace=False)]
    scores = {d: float(rng.normal()) for d in ids}
    return adjacency, seeds, scores


class TestHandCases:
    def test_bfs_line_graph(self):
        graph = _graph({"a": ["b"], "b": ["c"], "c": []})
        trace = run_crawl(graph, ["a"], "bfs", budget=3, checkpoint_interval=10)
        assert trace.doc_ids() == ["a", "b", "c"]

    def test_dfs_follows_first_listed_link(self):
        graph = _graph({"a": ["b", "c"], "c": ["d"]})
        trace = run_crawl(graph, ["a"], "dfs", budget=4, checkpoint_interval=10)
        assert trace.doc_ids() == ["a", "b", "c", "d"]

    def test_qoracle_picks_max_score(self):
        graph = _graph({"a": ["b", "c"]})
        scores = {"a": -1.0, "b": -5.0, "c": -2.0}
        trace = run_crawl(graph, ["a"], "qoracle", budget=3, checkpoint_interval=10, scores=scores)
        assert trace.doc_ids() == ["a", "c", "b"]


class TestContracts:
    def test_no_revisit_and_reachability(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            adjacency, seeds, scores = random_graph(rng, max_nodes=60)
            graph = _graph(adjacency)
            reachable = set(textbook_bfs(graph.adjacency, seeds, 10**9))
            for strategy in ("bfs", "dfs", "qoracle"):
                trace = run_crawl(
                    graph, seeds, strategy, budget=10**6, checkpoint_interval=7,
                    scores=scores if strategy == "qoracle" else None,
                )
                ids = trace.doc_ids()
                assert len(ids) == len(set(ids))
                assert set(ids) == reachable  # budget >= |reachable| exhausts it

    def test_strategies_are_permutations_when_exhausted(self):
        graph = _graph({"a": ["b", "c"], "b": ["d"], "c": ["d", "e"], "e": ["a"]})
        scores = {d: -float(i) for i, d in enumerate(sorted(graph.adjacency))}
        orders = {}
        for strategy in ("bfs", "dfs", "qoracle"):
            trace = run_crawl(
                graph, ["a"], strategy, budget=100, checkpoint_interval=2,
                scores=scores if strategy == "qoracle" else None,
            )
            orders[strategy] = trace.doc_ids()
        assert set(orders["bfs"]) == set(orders["dfs"]) == set(orders["qoracle"])

    def test_budget_cuts_trace(self):
        graph = _graph({"a": ["b"], "b": ["c"], "c": ["d"]})
        trace = run_crawl(graph, ["a"], "bfs", budget=2, checkpoint_interval=1)
        assert trace.doc_ids() == ["a", "b"]

    def test_checkpoint_ranks(self):
        graph = _graph({f"n{i}": [f"n{i+1}"] for i in range(9)})
        trace = run_crawl(graph, ["n0"], "bfs", budget=10, checkpoint_interval=4)
        assert trace.checkpoint_ranks == [4, 8, 10]
        trace = run_crawl(graph, ["n0"], "bfs", budget=8, checkpoint_interval=4)
        assert trace.checkpoint_ranks == [4, 8]
        trace = run_crawl(graph, ["n0"], "bfs", budget=3, checkpoint_interval=10)
        assert trace.checkpoint_ranks == [3]

    def test_qoracle_greedy_against_scan_oracle(self):
        rng = np.random.default_rng(17)
        # Scores from three values tie often, so discovery order decides.
        tie_rng = np.random.default_rng(18)
        for _ in range(10):
            adjacency, seeds, scores = random_graph(rng, max_nodes=100)
            tied = {d: float(tie_rng.choice([-2.0, -1.0, 0.0])) for d in sorted(scores)}
            graph = _graph(adjacency)
            budget = int(rng.integers(1, 120))
            for table in (scores, tied):
                trace = run_crawl(
                    graph, seeds, "qoracle", budget=budget, checkpoint_interval=5, scores=table
                )
                assert trace.doc_ids() == scan_qoracle(graph.adjacency, seeds, table, budget)

    def test_multi_seed_dfs_starts_from_last_seed(self):
        graph = _graph({"a": [], "b": [], "c": []})
        trace = run_crawl(graph, ["a", "b", "c"], "dfs", budget=3, checkpoint_interval=5)
        assert trace.doc_ids() == ["c", "b", "a"]


class TestTraceIO:
    def test_write_read_roundtrip(self, tmp_path):
        graph = _graph({"a": ["b", "c"], "b": []})
        scores = {"a": -1.5, "b": -2.25, "c": -0.125}
        trace = run_crawl(graph, ["a"], "qoracle", budget=3, checkpoint_interval=2, scores=scores)
        path = tmp_path / "trace.tsv"
        write_trace(trace, str(path))
        loaded = read_trace(str(path))
        assert loaded.entries == trace.entries
        assert loaded.checkpoint_ranks == trace.checkpoint_ranks

    def test_bfs_priority_sentinel(self, tmp_path):
        graph = _graph({"a": ["b"]})
        trace = run_crawl(graph, ["a"], "bfs", budget=2, checkpoint_interval=1)
        path = tmp_path / "trace.tsv"
        write_trace(trace, str(path))
        lines = path.read_text().splitlines()
        assert lines[0].startswith("#checkpoints\t")
        assert lines[1] == "1\ta\t-"

    def test_single_page_trace(self, tmp_path):
        graph = _graph({"a": []})
        trace = run_crawl(graph, ["a"], "bfs", budget=5, checkpoint_interval=3)
        path = tmp_path / "trace.tsv"
        write_trace(trace, str(path))
        assert path.read_text() == "#checkpoints\t1\n1\ta\t-\n"

    def test_rewrite_byte_identical(self, tmp_path):
        graph = _graph({"a": ["b", "c"], "c": ["d"]})
        scores = {d: -float(ord(d[0])) for d in graph.adjacency}
        trace = run_crawl(graph, ["a"], "qoracle", budget=9, checkpoint_interval=2, scores=scores)
        p1, p2 = tmp_path / "t1.tsv", tmp_path / "t2.tsv"
        write_trace(trace, str(p1))
        write_trace(trace, str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_determinism_across_runs(self, tmp_path):
        rng = np.random.default_rng(23)
        adjacency, seeds, scores = random_graph(rng, max_nodes=80)
        graph = _graph(adjacency)
        blobs = []
        for i in range(2):
            trace = run_crawl(graph, seeds, "qoracle", budget=50, checkpoint_interval=6, scores=scores)
            path = tmp_path / f"run{i}.tsv"
            write_trace(trace, str(path))
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]

    def test_expected_bytes_against_reference(self, tmp_path):
        graph = _graph({"a": ["b", "c"], "b": ["d"]})
        trace = run_crawl(graph, ["a"], "bfs", budget=10, checkpoint_interval=3)
        path = tmp_path / "trace.tsv"
        write_trace(trace, str(path))
        order = textbook_bfs(graph.adjacency, ["a"], 10)
        assert path.read_bytes() == trace_file_bytes(order, 3)


class TestTraceValidation:
    def _write(self, tmp_path, text):
        path = tmp_path / "trace.tsv"
        path.write_text(text)
        return str(path)

    def test_duplicate_doc_id_names_second_line(self, tmp_path):
        path = self._write(tmp_path, "#checkpoints\t2\t3\n1\ta\t-\n2\tb\t-\n3\ta\t-\n")
        expected = rf"^{re.escape(path)}:4: duplicate doc_id 'a'"
        with pytest.raises(CorpusFormatError, match=expected):
            read_trace(path)

    @pytest.mark.parametrize(
        "rank, message",
        [("x", "non-integer rank"), ("3", "ranks must increase by 1")],
        ids=["non_integer", "gap"],
    )
    def test_bad_rank_names_its_line(self, tmp_path, rank, message):
        path = self._write(tmp_path, f"#checkpoints\t2\n1\ta\t-\n{rank}\tb\t-\n")
        with pytest.raises(CorpusFormatError, match=rf"^{re.escape(path)}:3: {message}$"):
            read_trace(path)

    @pytest.mark.parametrize(
        "header, message",
        [
            ("#checkpoints2\t2", "missing '#checkpoints' header"),
            ("#checkpoints\t1\t\t2", "non-integer checkpoint rank"),
            ("#checkpoints\t2\t", "non-integer checkpoint rank"),
        ],
        ids=["longer_tag", "empty_cell", "trailing_tab"],
    )
    def test_bad_header_names_line_one(self, tmp_path, header, message):
        path = self._write(tmp_path, f"{header}\n1\ta\t-\n2\tb\t-\n")
        with pytest.raises(CorpusFormatError, match=rf"^{re.escape(path)}:1: {message}$"):
            read_trace(path)

    def test_empty_trace_round_trips(self, tmp_path):
        path = tmp_path / "trace.tsv"
        write_trace(CrawlTrace(entries=[], checkpoint_ranks=[]), str(path))
        assert path.read_text() == "#checkpoints\t\n"
        trace = read_trace(str(path))
        assert (trace.entries, trace.checkpoint_ranks) == ([], [])

    def test_non_float_priority(self, tmp_path):
        path = self._write(tmp_path, "#checkpoints\t2\n1\ta\t-1.5\n2\tb\tbad\n")
        with pytest.raises(CorpusFormatError, match=rf"^{re.escape(path)}:3: "):
            read_trace(path)

    @pytest.mark.parametrize(
        "rows", ["1\ta\tnan\n2\tb\t-inf\n", "1\ta\t-\n2\tb\tinf\n"], ids=["nan", "inf"]
    )
    def test_non_finite_priority(self, tmp_path, rows):
        path = self._write(tmp_path, "#checkpoints\t2\n" + rows)
        bad_line = 2 if "nan" in rows else 3
        expected = rf"^{re.escape(path)}:{bad_line}: non-finite priority$"
        with pytest.raises(CorpusFormatError, match=expected):
            read_trace(path)

    @pytest.mark.parametrize(
        "ranks",
        ["0\t2", "3", "1\t3", "2\t1", "1\t1"],
        ids=["zero", "past_end", "one_past_end", "decreasing", "repeated"],
    )
    def test_bad_checkpoint_ranks(self, tmp_path, ranks):
        path = self._write(tmp_path, f"#checkpoints\t{ranks}\n1\ta\t-\n2\tb\t-\n")
        with pytest.raises(CorpusFormatError, match=rf"^{re.escape(path)}:1: "):
            read_trace(path)

    def test_valid_ranks_accepted(self, tmp_path):
        path = self._write(tmp_path, "#checkpoints\t1\t2\n1\ta\t-\n2\tb\t0.5\n")
        trace = read_trace(path)
        assert trace.checkpoint_ranks == [1, 2]
        assert trace.entries == [(1, "a", None), (2, "b", 0.5)]


class TestPrefix:
    def test_prefix_contents_and_nesting(self):
        graph = _graph({"a": ["b"], "b": ["c"], "c": ["d"]})
        trace = run_crawl(graph, ["a"], "bfs", budget=4, checkpoint_interval=2)
        assert trace_prefix(trace, 1) == {"a"}
        assert trace_prefix(trace, 4) == {"a", "b", "c", "d"}
        for k in range(1, 4):
            assert trace_prefix(trace, k) < trace_prefix(trace, k + 1)

    def test_prefix_out_of_range(self):
        graph = _graph({"a": []})
        trace = run_crawl(graph, ["a"], "bfs", budget=1, checkpoint_interval=1)
        with pytest.raises(ValueError):
            trace_prefix(trace, 0)
        with pytest.raises(ValueError):
            trace_prefix(trace, 2)


class TestErrors:
    def test_empty_seed_list(self):
        graph = _graph({"a": []})
        with pytest.raises(ValueError):
            run_crawl(graph, [], "bfs", budget=1, checkpoint_interval=1)

    def test_unknown_seed(self):
        graph = _graph({"a": []})
        with pytest.raises(UnknownDoc):
            run_crawl(graph, ["zz"], "bfs", budget=1, checkpoint_interval=1)

    def test_qoracle_without_table(self):
        graph = _graph({"a": []})
        with pytest.raises(MissingScore):
            run_crawl(graph, ["a"], "qoracle", budget=1, checkpoint_interval=1)

    def test_qoracle_unscored_reachable_node(self):
        graph = _graph({"a": ["b"]})
        with pytest.raises(MissingScore, match="'b'"):
            run_crawl(graph, ["a"], "qoracle", budget=5, checkpoint_interval=1, scores={"a": 0.0})

    def test_qoracle_non_finite_score(self):
        graph = _graph({"a": ["b"]})
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="non-finite quality score for 'b'"):
                run_crawl(
                    graph, ["a"], "qoracle", budget=5, checkpoint_interval=1,
                    scores={"a": 0.0, "b": bad},
                )

    def test_bad_strategy_and_bounds(self):
        graph = _graph({"a": []})
        with pytest.raises(ValueError):
            run_crawl(graph, ["a"], "random-walk", budget=1, checkpoint_interval=1)
        with pytest.raises(ValueError):
            run_crawl(graph, ["a"], "bfs", budget=0, checkpoint_interval=1)
        with pytest.raises(ValueError):
            run_crawl(graph, ["a"], "bfs", budget=1, checkpoint_interval=0)


# Tokens as the corpus allows them for doc_ids: no whitespace or control chars.
_DOC_IDS = st.text(
    st.characters(blacklist_categories=("Cc", "Cs", "Z")), min_size=1, max_size=6
)


@st.composite
def _traces(draw):
    doc_ids = draw(st.lists(_DOC_IDS, unique=True, max_size=12))
    priorities = st.none() | st.floats(allow_nan=False, allow_infinity=False)
    entries = [(rank, d, draw(priorities)) for rank, d in enumerate(doc_ids, start=1)]
    ranks = draw(st.sets(st.integers(1, len(doc_ids)))) if doc_ids else set()
    return CrawlTrace(entries=entries, checkpoint_ranks=sorted(ranks))


@settings(
    max_examples=100, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(trace=_traces())
def test_write_read_trace_round_trip(tmp_path, trace):
    path = tmp_path / "trace.tsv"
    write_trace(trace, str(path))
    assert read_trace(str(path)) == trace
