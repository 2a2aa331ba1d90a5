import csv
import gc
import json
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qcrawl import CrawlTrace, DocumentRecord, quality, retrieval
from qcrawl import corpus as corpus_module
from qcrawl.cli import main


@pytest.fixture
def corpus_files(tmp_path, five_node_rows, jsonl_writer):
    corpus = jsonl_writer(five_node_rows, tmp_path / "corpus.jsonl")
    seeds = tmp_path / "seeds.txt"
    seeds.write_text("a\n")
    scores = tmp_path / "scores.tsv"
    scores.write_text("a\t-1.0\nb\t-0.5\nc\t-2.0\nd\t-0.25\ne\t-3.0\n")
    queries = tmp_path / "queries.tsv"
    queries.write_text("q1\tbeta\nq2\tepsilon\nq3\tmissingterm\n")
    qrels = tmp_path / "qrels.txt"
    qrels.write_text("q1 0 a 1\nq1 0 b 1\nq2 0 d 1\nq2 0 e 1\n")
    return {
        "corpus": corpus,
        "seeds": str(seeds),
        "scores": str(scores),
        "queries": str(queries),
        "qrels": str(qrels),
        "dir": tmp_path,
    }


def _summary_argv(files, command):
    d = files["dir"]
    return {
        "score": ["score", "--input", files["corpus"], "--output", str(d / "scored.jsonl")],
        "crawl": ["crawl", "--input", files["corpus"], "--seeds", files["seeds"],
                  "--strategy", "bfs", "--budget", "10", "--checkpoint-interval", "2",
                  "--output", str(d / "bfs.tsv")],
        "index": ["index", "--input", files["corpus"], "--output", str(d / "index.json")],
        "eval": ["eval", "--input", files["corpus"], "--trace", f"bfs={d / 'bfs.tsv'}",
                 "--queries", files["queries"], "--qrels", files["qrels"],
                 "--output", str(d / "report.jsonl")],
        "stats": ["stats", "--scores", files["scores"], "--input", files["corpus"],
                  "--qrels", files["qrels"], "--output", str(d / "stats")],
    }[command]


@pytest.mark.parametrize("command", ["score", "crawl", "index", "eval", "stats"])
def test_stdout_is_one_sorted_key_json_line_or_nothing(corpus_files, capsys, command):
    """A run prints its summary as one sorted-key JSON line (index --output
    writes the same bytes); a failing run prints nothing and exits 1."""
    if command == "eval":
        assert main(_summary_argv(corpus_files, "crawl")) == 0
        capsys.readouterr()
    argv = _summary_argv(corpus_files, command)
    assert main(argv) == 0
    out = capsys.readouterr().out
    summary = json.loads(out)
    assert isinstance(summary, dict)
    assert out == json.dumps(summary, sort_keys=True) + "\n"
    if command == "index":
        assert (corpus_files["dir"] / "index.json").read_bytes() == out.encode()
    argv[argv.index(corpus_files["corpus"])] = str(corpus_files["dir"] / "missing.jsonl")
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


class TestScore:
    def test_jsonl_to_jsonl_adds_field(self, corpus_files, capsys):
        out = corpus_files["dir"] / "scored.jsonl"
        rc = main(["score", "--input", corpus_files["corpus"], "--output", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 5
        for line in lines:
            obj = json.loads(line)
            assert "quality_score" in obj
        summary = json.loads(capsys.readouterr().out)
        assert summary["records_scored"] == 5

    def test_jsonl_to_csv_header(self, corpus_files):
        out = corpus_files["dir"] / "scored.csv"
        rc = main(
            ["score", "--input", corpus_files["corpus"], "--output", str(out),
             "--format", "jsonl:csv"]
        )
        assert rc == 0
        header = out.read_text().splitlines()[0]
        assert header == "doc_id,url,text,outlinks,quality_score"

    def test_table_scorer(self, corpus_files):
        out = corpus_files["dir"] / "scored.jsonl"
        rc = main(
            ["score", "--input", corpus_files["corpus"], "--output", str(out),
             "--scores", corpus_files["scores"]]
        )
        assert rc == 0
        scored = {
            obj["doc_id"]: obj["quality_score"]
            for obj in map(json.loads, out.read_text().splitlines())
        }
        assert scored == {"a": -1.0, "b": -0.5, "c": -2.0, "d": -0.25, "e": -3.0}

    def test_scorer_flag_is_a_usage_error(self, corpus_files, capsys):
        out = corpus_files["dir"] / "scored.jsonl"
        with pytest.raises(SystemExit) as exc:
            main(
                ["score", "--input", corpus_files["corpus"], "--output", str(out),
                 "--scorer", "table", "--scores", corpus_files["scores"]]
            )
        assert exc.value.code == 2
        assert "unrecognized arguments: --scorer" in capsys.readouterr().err
        assert not out.exists()

    def test_existing_quality_score_rejected(self, tmp_path, jsonl_writer, capsys):
        rows = [{"doc_id": "a", "url": None, "text": "x", "outlinks": [],
                 "quality_score": 0.5}]
        path = jsonl_writer(rows, tmp_path / "pre.jsonl")
        rc = main(["score", "--input", path, "--output", str(tmp_path / "out.jsonl")])
        assert rc == 1
        assert "quality_score" in capsys.readouterr().err

    def test_unscorable_record_names_id(self, tmp_path, jsonl_writer, capsys):
        rows = [{"doc_id": "empty", "url": None, "text": "...", "outlinks": []}]
        path = jsonl_writer(rows, tmp_path / "empty.jsonl")
        rc = main(["score", "--input", path, "--output", str(tmp_path / "out.jsonl")])
        assert rc == 1
        assert "empty" in capsys.readouterr().err

    def test_table_missing_record_names_id(self, corpus_files, capsys):
        table = corpus_files["dir"] / "partial.tsv"
        table.write_text("a\t-1.0\nb\t-0.5\nc\t-2.0\ne\t-3.0\n")
        out = corpus_files["dir"] / "scored.jsonl"
        rc = main(
            ["score", "--input", corpus_files["corpus"], "--output", str(out),
             "--scores", str(table)]
        )
        assert rc == 1
        assert capsys.readouterr().err == f"error: {table}: no table entry for 'd'\n"
        assert not out.exists()

    def test_rerun_byte_identical(self, corpus_files):
        out1 = corpus_files["dir"] / "s1.jsonl"
        out2 = corpus_files["dir"] / "s2.jsonl"
        main(["score", "--input", corpus_files["corpus"], "--output", str(out1)])
        main(["score", "--input", corpus_files["corpus"], "--output", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_malformed_table_is_reported_before_a_bad_record_line(self, corpus_files, capsys):
        records = corpus_files["dir"] / "records.jsonl"
        records.write_text('{"doc_id": "a", "text": \n')
        table = corpus_files["dir"] / "bad.tsv"
        table.write_text("a\t-1.0\nb -0.5\n")
        out = corpus_files["dir"] / "scored.jsonl"
        argv = ["score", "--input", str(records), "--output", str(out), "--scores", str(table)]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {table}:2: expected 'doc_id<TAB>score'\n"
        table.write_text("a\t-1.0\n")
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(f"error: {records}:1: invalid JSON")
        assert not out.exists()

    def test_missing_table_entry_is_reported_before_a_later_bad_line(self, corpus_files, capsys):
        records = corpus_files["dir"] / "records.jsonl"
        records.write_text(
            '{"doc_id": "zz", "text": "x"}\n{"doc_id": "a", "text": "y"}\n{"doc_id": "b",\n'
        )
        out = corpus_files["dir"] / "scored.jsonl"
        argv = ["score", "--input", str(records), "--output", str(out),
                "--scores", corpus_files["scores"]]
        assert main(argv) == 1
        table = corpus_files["scores"]
        assert capsys.readouterr().err == f"error: {table}: no table entry for 'zz'\n"
        records.write_text(records.read_text().replace('"zz"', '"c"'))
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(f"error: {records}:3: invalid JSON")
        assert not out.exists()

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_one_row_is_parsed_then_scored_at_a_time(
        self, tmp_path, monkeypatch, two_records, fmt
    ):
        records = tmp_path / f"records.{fmt}"
        records.write_text(two_records[fmt])
        steps = []

        def noting(step, fn):
            def noted(*args, **kwargs):
                steps.append(step)
                return fn(*args, **kwargs)

            return noted

        monkeypatch.setattr(corpus_module, "_check_doc_id",
                            noting("parse", corpus_module._check_doc_id))
        monkeypatch.setattr(quality, "score_record", noting("score", quality.score_record))
        out = tmp_path / "scored.jsonl"
        assert main(["score", "--input", str(records), "--output", str(out),
                     "--format", f"{fmt}:jsonl"]) == 0
        assert steps == ["parse", "score", "parse", "score"]
        assert [json.loads(line)["doc_id"] for line in out.read_text().splitlines()] == ["a", "b"]

    def test_failure_on_the_last_row_leaves_every_file_as_it_was(self, tmp_path, jsonl_writer):
        rows = [{"doc_id": d, "text": t} for d, t in (("a", "some text"), ("b", "..."))]
        records = jsonl_writer(rows, tmp_path / "records.jsonl")
        out = tmp_path / "scored.jsonl"
        argv = ["score", "--input", records, "--output", str(out)]
        assert main(argv) == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["records.jsonl"]
        out.write_bytes(b"earlier output\r\n")
        assert main(argv) == 1
        assert out.read_bytes() == b"earlier output\r\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["records.jsonl", "scored.jsonl"]

    def test_csv_failing_partway_restores_the_field_limit_and_closes_the_input(
        self, corpus_files, two_records, capsys
    ):
        records = corpus_files["dir"] / "records.csv"
        records.write_text(two_records["csv"].replace("\nb,", "\nzz,"))
        out = corpus_files["dir"] / "scored.csv"
        limit = csv.field_size_limit()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            rc = main(["score", "--input", str(records), "--output", str(out),
                       "--format", "csv", "--scores", corpus_files["scores"]])
            gc.collect()
        assert rc == 1
        table = corpus_files["scores"]
        assert capsys.readouterr().err == f"error: {table}: no table entry for 'zz'\n"
        assert csv.field_size_limit() == limit
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
        assert not out.exists()

    @pytest.mark.parametrize("fmt", ["jsonl", "csv"])
    def test_scoring_a_file_over_itself(self, corpus_files, two_records, fmt):
        records = corpus_files["dir"] / f"records.{fmt}"
        records.write_text(two_records[fmt])
        apart = corpus_files["dir"] / f"apart.{fmt}"
        for out in (apart, records):
            assert main(["score", "--input", str(records), "--output", str(out),
                         "--format", fmt, "--scores", corpus_files["scores"]]) == 0
        assert records.read_bytes() == apart.read_bytes()


class TestCrawl:
    def test_budget_exhausts_graph(self, corpus_files, capsys):
        out = corpus_files["dir"] / "trace.tsv"
        rc = main(
            ["crawl", "--input", corpus_files["corpus"], "--seeds", corpus_files["seeds"],
             "--strategy", "bfs", "--budget", "10", "--checkpoint-interval", "2",
             "--output", str(out)]
        )
        assert rc == 0
        data_lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert len(data_lines) == 5
        summary = json.loads(capsys.readouterr().out)
        assert summary["pages_crawled"] == 5
        assert summary["checkpoints"] == [2, 4, 5]
        assert summary["dangling_edges"] == 0

    def test_rerun_byte_identical(self, corpus_files):
        outs = []
        for name in ("t1.tsv", "t2.tsv"):
            out = corpus_files["dir"] / name
            main(
                ["crawl", "--input", corpus_files["corpus"], "--seeds", corpus_files["seeds"],
                 "--strategy", "qoracle", "--scores", corpus_files["scores"],
                 "--budget", "10", "--checkpoint-interval", "2", "--output", str(out)]
            )
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_qoracle_requires_scores(self, corpus_files, capsys):
        out = corpus_files["dir"] / "x.tsv"
        rc = main(
            ["crawl", "--input", corpus_files["corpus"], "--seeds", corpus_files["seeds"],
             "--strategy", "qoracle", "--budget", "10", "--checkpoint-interval", "2",
             "--output", str(out)]
        )
        assert rc == 1
        assert capsys.readouterr().err == "error: qoracle requires a score table\n"
        assert not out.exists()

    def test_qoracle_table_missing_a_reached_page_is_named(self, corpus_files, capsys):
        table = corpus_files["dir"] / "partial.tsv"
        table.write_text("a\t-1.0\nc\t-2.0\nd\t-0.25\ne\t-3.0\n")
        out = corpus_files["dir"] / "x.tsv"
        argv = ["crawl", "--input", corpus_files["corpus"], "--seeds", corpus_files["seeds"],
                "--strategy", "qoracle", "--scores", str(table), "--budget", "10",
                "--checkpoint-interval", "2", "--output", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {table}: no quality score for 'b'\n"
        assert not out.exists()
        # a page that the crawl never discovers may be missing: crawling only a finds b and c
        table.write_text("a\t-1.0\nb\t-0.5\nc\t-2.0\n")
        assert main(argv[:-5] + ["1", "--checkpoint-interval", "1", "--output", str(out)]) == 0

    @pytest.mark.parametrize("strategy", ["bfs", "dfs"])
    def test_given_scores_are_read_for_any_strategy(self, corpus_files, capsys, strategy):
        bad = corpus_files["dir"] / "bad.tsv"
        bad.write_text("a\tnan\n")
        for table, message in (
            (corpus_files["dir"] / "missing.tsv", "No such file"),
            (bad, f"{bad}:1: non-finite score for 'a'"),
        ):
            out = corpus_files["dir"] / "x.tsv"
            rc = main(
                ["crawl", "--input", corpus_files["corpus"], "--seeds", corpus_files["seeds"],
                 "--strategy", strategy, "--scores", str(table), "--budget", "10",
                 "--checkpoint-interval", "2", "--output", str(out)]
            )
            assert rc == 1
            assert message in capsys.readouterr().err
            assert not out.exists()


class TestIndex:
    def test_stats_output(self, corpus_files, capsys):
        rc = main(["index", "--input", corpus_files["corpus"]])
        assert rc == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["documents"] == 5
        assert stats["terms"] > 0

    def test_trace_prefix_indexing(self, corpus_files, capsys):
        trace = corpus_files["dir"] / "trace.tsv"
        main(
            ["crawl", "--input", corpus_files["corpus"], "--seeds", corpus_files["seeds"],
             "--strategy", "bfs", "--budget", "10", "--checkpoint-interval", "2",
             "--output", str(trace)]
        )
        capsys.readouterr()
        rc = main(["index", "--input", corpus_files["corpus"], "--trace", str(trace), "--rank", "2"])
        assert rc == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["documents"] == 2

    def test_rank_zero_is_an_error(self, corpus_files, capsys):
        trace = corpus_files["dir"] / "trace.tsv"
        main(
            ["crawl", "--input", corpus_files["corpus"], "--seeds", corpus_files["seeds"],
             "--strategy", "bfs", "--budget", "10", "--checkpoint-interval", "2",
             "--output", str(trace)]
        )
        capsys.readouterr()
        rc = main(
            ["index", "--input", corpus_files["corpus"], "--trace", str(trace), "--rank", "0"]
        )
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "rank 0 out of range 1..5" in captured.err

    def test_rank_without_trace_is_an_error(self, corpus_files, capsys):
        out = corpus_files["dir"] / "index.json"
        rc = main(
            ["index", "--input", corpus_files["corpus"], "--rank", "2", "--output", str(out)]
        )
        assert rc == 1
        assert capsys.readouterr() == ("", "error: --rank requires --trace\n")
        assert not out.exists()


class TestEval:
    def _crawl(self, corpus_files, strategy, out):
        args = [
            "crawl", "--input", corpus_files["corpus"], "--seeds", corpus_files["seeds"],
            "--strategy", strategy, "--budget", "10", "--checkpoint-interval", "2",
            "--output", str(out),
        ]
        if strategy == "qoracle":
            args += ["--scores", corpus_files["scores"]]
        assert main(args) == 0

    def test_single_trace_no_significance(self, corpus_files, capsys):
        trace = corpus_files["dir"] / "bfs.tsv"
        self._crawl(corpus_files, "bfs", trace)
        out = corpus_files["dir"] / "report.jsonl"
        rc = main(
            ["eval", "--input", corpus_files["corpus"], "--trace", f"bfs={trace}",
             "--queries", corpus_files["queries"], "--qrels", corpus_files["qrels"],
             "--output", str(out)]
        )
        assert rc == 0
        objs = [json.loads(l) for l in out.read_text().splitlines()]
        assert all(o["type"] == "recall" for o in objs)

    def test_identical_traces_p_equals_one(self, corpus_files):
        trace = corpus_files["dir"] / "bfs.tsv"
        self._crawl(corpus_files, "bfs", trace)
        out = corpus_files["dir"] / "report.jsonl"
        rc = main(
            ["eval", "--input", corpus_files["corpus"],
             "--trace", f"one={trace}", "--trace", f"two={trace}",
             "--queries", corpus_files["queries"], "--qrels", corpus_files["qrels"],
             "--output", str(out)]
        )
        assert rc == 0
        sig = [json.loads(l) for l in out.read_text().splitlines()
               if json.loads(l)["type"] == "significance"]
        assert sig
        assert all(o["p_corrected"] == 1.0 and not o["significant"] for o in sig)

    def test_checkpoint_mismatch_fails(self, corpus_files, capsys):
        t1 = corpus_files["dir"] / "t1.tsv"
        self._crawl(corpus_files, "bfs", t1)
        t2 = corpus_files["dir"] / "t2.tsv"
        # same graph but checkpoints at interval 3: {3, 5} vs {2, 4, 5} share 5,
        # so force disjoint sets by truncating the budget
        main(
            ["crawl", "--input", corpus_files["corpus"], "--seeds", corpus_files["seeds"],
             "--strategy", "bfs", "--budget", "3", "--checkpoint-interval", "3",
             "--output", str(t2)]
        )
        capsys.readouterr()
        rc = main(
            ["eval", "--input", corpus_files["corpus"],
             "--trace", f"a={t1}", "--trace", f"b={t2}",
             "--queries", corpus_files["queries"], "--qrels", corpus_files["qrels"],
             "--output", str(corpus_files["dir"] / "r.jsonl")]
        )
        assert rc == 1
        assert "common" in capsys.readouterr().err

    def test_planted_graph_qoracle_beats_dfs_early(self, tmp_path, jsonl_writer, capsys):
        from qcrawl import synthetic_corpus

        rows, queries, qrels, seeds = synthetic_corpus(
            n_nodes=240, n_queries=8, rel_per_query=2, n_seeds=12, rng_seed=21
        )
        corpus = jsonl_writer(rows, tmp_path / "corpus.jsonl")
        (tmp_path / "seeds.txt").write_text("".join(s + "\n" for s in seeds))
        (tmp_path / "queries.tsv").write_text(
            "".join(f"{q}\t{t}\n" for q, t in queries.items())
        )
        (tmp_path / "qrels.txt").write_text(
            "".join(f"{q} 0 {d} {g}\n" for q, js in qrels.items() for d, g in js.items())
        )
        scored = tmp_path / "scored.jsonl"
        main(["score", "--input", corpus, "--output", str(scored)])
        with open(tmp_path / "scores.tsv", "w") as fh:
            for line in scored.read_text().splitlines():
                obj = json.loads(line)
                fh.write(f"{obj['doc_id']}\t{obj['quality_score']!r}\n")
        for strategy in ("dfs", "qoracle"):
            args = ["crawl", "--input", corpus, "--seeds", str(tmp_path / "seeds.txt"),
                    "--strategy", strategy, "--budget", "240",
                    "--checkpoint-interval", "24",
                    "--output", str(tmp_path / f"{strategy}.tsv")]
            if strategy == "qoracle":
                args += ["--scores", str(tmp_path / "scores.tsv")]
            assert main(args) == 0
        report = tmp_path / "report.jsonl"
        rc = main(
            ["eval", "--input", corpus,
             "--trace", f"dfs={tmp_path / 'dfs.tsv'}",
             "--trace", f"qoracle={tmp_path / 'qoracle.tsv'}",
             "--queries", str(tmp_path / "queries.tsv"),
             "--qrels", str(tmp_path / "qrels.txt"), "--output", str(report)]
        )
        assert rc == 0
        objs = [json.loads(l) for l in report.read_text().splitlines()]
        recalls = [o for o in objs if o["type"] == "recall"]
        first = min(o["checkpoint"] for o in recalls)
        at_first = {o["strategy"]: o["mean_recall"] for o in recalls if o["checkpoint"] == first}
        assert at_first["qoracle"] > at_first["dfs"]

    def test_bad_trace_flag(self, corpus_files, capsys):
        rc = main(
            ["eval", "--input", corpus_files["corpus"], "--trace", "nopath",
             "--queries", corpus_files["queries"], "--qrels", corpus_files["qrels"],
             "--output", str(corpus_files["dir"] / "r.jsonl")]
        )
        assert rc == 1

    def _eval(self, corpus_files, traces, *extra):
        """Run eval over the fixture's corpus, queries and qrels with ``traces``
        (name -> path) and the ``extra`` flags; returns the exit code."""
        argv = ["eval", "--input", corpus_files["corpus"], "--queries", corpus_files["queries"],
                "--qrels", corpus_files["qrels"],
                "--output", str(corpus_files["dir"] / "r.jsonl")]
        argv += [arg for name, path in traces.items() for arg in ("--trace", f"{name}={path}")]
        return main(argv + list(extra))

    def test_repeated_trace_name_fails(self, corpus_files, capsys):
        trace = corpus_files["dir"] / "bfs.tsv"
        self._crawl(corpus_files, "bfs", trace)
        assert self._eval(corpus_files, {"bfs": trace}, "--trace", f"bfs={trace}") == 1
        assert capsys.readouterr().err == "error: duplicate trace name 'bfs'\n"
        assert not (corpus_files["dir"] / "r.jsonl").exists()

    def test_pages_and_traces_are_freed_before_the_t_tests(self, corpus_files, monkeypatch):
        # eval loads its inputs inside the recall step's caller, so scipy loads into freed memory
        traces = {s: corpus_files["dir"] / f"{s}.tsv" for s in ("bfs", "dfs")}
        for strategy, path in traces.items():
            self._crawl(corpus_files, strategy, path)
        t_test, live_at_call = retrieval.paired_t_test_bonferroni, []

        def live():
            return sum(isinstance(o, (DocumentRecord, CrawlTrace)) for o in gc.get_objects())

        def checked(*args, **kwargs):
            live_at_call.append(live())
            return t_test(*args, **kwargs)

        gc.collect()
        alive = live()  # held by earlier tests, if any
        monkeypatch.setattr(retrieval, "paired_t_test_bonferroni", checked)
        assert self._eval(corpus_files, traces) == 0
        assert live_at_call and live_at_call[0] <= alive

    def test_bad_k_and_alpha_come_before_the_corpus_and_traces(
        self, corpus_files, capsys, monkeypatch
    ):
        trace = corpus_files["dir"] / "bad.tsv"
        trace.write_text("#checkpoints\t2\n1\ta\t-\n2\tzz\t-\n")
        loads = []
        load_corpus = corpus_module.load_corpus
        monkeypatch.setattr(
            corpus_module, "load_corpus", lambda *a: loads.append(a) or load_corpus(*a)
        )
        for flags, message in (
            (["--k", "0", "--alpha", "2"], "--k must be >= 1"),
            (["--alpha", "2"], "--alpha must be in (0, 1]"),
            (["--alpha", "0"], "--alpha must be in (0, 1]"),
        ):
            assert self._eval(corpus_files, {"bfs": trace}, *flags) == 1
            assert capsys.readouterr().err == f"error: {message}\n"
        assert loads == []
        assert self._eval(corpus_files, {"bfs": trace}, "--k", "1") == 1
        assert capsys.readouterr().err == f"error: {trace}:3: doc_id 'zz' not in corpus\n"
        assert len(loads) == 1

    def test_bad_alpha_comes_before_a_bad_queries_file(self, corpus_files, capsys):
        trace = corpus_files["dir"] / "bfs.tsv"
        self._crawl(corpus_files, "bfs", trace)
        Path(corpus_files["queries"]).write_text("q1 without a tab\n")
        assert self._eval(corpus_files, {"bfs": trace}, "--alpha", "0") == 1
        assert capsys.readouterr().err == "error: --alpha must be in (0, 1]\n"
        assert self._eval(corpus_files, {"bfs": trace}) == 1
        queries = corpus_files["queries"]
        assert capsys.readouterr().err == f"error: {queries}:1: expected 'query_id<TAB>text'\n"

    def test_no_common_checkpoints_comes_before_no_judged_query(self, corpus_files, capsys):
        traces = {"a": corpus_files["dir"] / "a.tsv", "b": corpus_files["dir"] / "b.tsv"}
        traces["a"].write_text("#checkpoints\t1\n1\ta\t-\n2\tb\t-\n")
        traces["b"].write_text("#checkpoints\t2\n1\ta\t-\n2\tb\t-\n")
        Path(corpus_files["qrels"]).write_text("q1 0 a 0\n")
        assert self._eval(corpus_files, traces) == 1
        assert capsys.readouterr().err == "error: traces have no common checkpoints\n"
        assert self._eval(corpus_files, {"a": traces["b"], "b": traces["b"]}) == 1
        assert capsys.readouterr().err == "error: no query has judged-relevant documents\n"


class TestStats:
    def test_identical_tables_zero_js(self, corpus_files, capsys):
        out = corpus_files["dir"] / "stats1"
        table2 = corpus_files["dir"] / "copy.tsv"
        table2.write_text(Path(corpus_files["scores"]).read_text())
        rc = main(
            ["stats", "--scores", corpus_files["scores"], "--scores", str(table2),
             "--output", str(out)]
        )
        assert rc == 0
        matrix = json.loads((out / "js_matrix.json").read_text())["distance"]
        assert matrix["scores"]["copy"] == 0.0
        assert matrix["scores"]["scores"] == 0.0

    def test_qrels_omitted_noted(self, corpus_files, capsys):
        out = corpus_files["dir"] / "stats2"
        rc = main(["stats", "--scores", corpus_files["scores"], "--output", str(out)])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert "relevance_split" in summary["skipped"]
        assert not (out / "relevance_split.json").exists()

    def test_full_outputs_and_rerun_identical(self, corpus_files, capsys):
        blobs = []
        for name in ("stats3", "stats4"):
            out = corpus_files["dir"] / name
            rc = main(
                ["stats", "--scores", corpus_files["scores"],
                 "--input", corpus_files["corpus"], "--qrels", corpus_files["qrels"],
                 "--undersample", "--rng-seed", "5",
                 "--bins", "4", "--gridsize", "3", "--min-count", "1",
                 "--output", str(out)]
            )
            assert rc == 0
            blobs.append(
                {p.name: p.read_bytes() for p in sorted(out.iterdir())}
            )
        assert blobs[0] == blobs[1]
        assert set(blobs[0]) == {
            "correlation.json", "hexbin.csv", "histograms.json", "relevance_split.json",
        }

    def test_bad_qrels_then_a_negative_seed_come_before_a_bad_corpus(self, corpus_files, capsys):
        # the relevance split is built after the graph load, but its inputs are checked before it
        records = corpus_files["dir"] / "records.jsonl"
        records.write_text('{"doc_id": "a", "text": \n')
        qrels = corpus_files["dir"] / "bad.qrels"
        qrels.write_text("q1 0 a\n")
        out = corpus_files["dir"] / "stats_order"
        argv = ["stats", "--scores", corpus_files["scores"], "--input", str(records),
                "--qrels", str(qrels), "--undersample", "--rng-seed", "-1", "--output", str(out)]
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(f"error: {qrels}:1: ")
        qrels.write_text(Path(corpus_files["qrels"]).read_text())
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: --rng-seed must be >= 0 to undersample, got -1\n"
        argv[argv.index("-1")] = "0"
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(f"error: {records}:1: invalid JSON")
        assert not out.exists()

    def test_correlation_output(self, corpus_files, capsys):
        out = corpus_files["dir"] / "stats5"
        rc = main(
            ["stats", "--scores", corpus_files["scores"], "--input", corpus_files["corpus"],
             "--min-count", "1", "--output", str(out)]
        )
        assert rc == 0
        report = json.loads((out / "correlation.json").read_text())
        assert set(report) == {"table", "pearson_r", "ols_slope", "ols_intercept", "n"}
        lines = (out / "hexbin.csv").read_text().splitlines()
        assert lines[0] == "center_x,center_y,count"
        assert len(lines) > 1

    def test_failure_writes_no_file(self, corpus_files, capsys):
        table = corpus_files["dir"] / "partial.tsv"
        table.write_text("b\t-0.5\nc\t-2.0\nd\t-0.25\ne\t-3.0\n")
        out = corpus_files["dir"] / "stats6"
        rc = main(
            ["stats", "--scores", str(table), "--input", corpus_files["corpus"],
             "--qrels", corpus_files["qrels"], "--output", str(out)]
        )
        assert rc == 1
        assert capsys.readouterr().err == f"error: {table}: no quality score for 'a'\n"
        assert not out.exists()

    def test_repeated_table_label_fails(self, corpus_files, capsys):
        same_stem = corpus_files["dir"] / "other" / "scores.tsv"
        same_stem.parent.mkdir()
        same_stem.write_text(Path(corpus_files["scores"]).read_text())
        out = corpus_files["dir"] / "stats_label"
        rc = main(["stats", "--scores", corpus_files["scores"], "--scores", str(same_stem),
                   "--output", str(out)])
        assert rc == 1
        expected = "error: duplicate score-table label 'scores'; rename the files\n"
        assert capsys.readouterr().err == expected
        assert not out.exists()

    def test_identical_scores_fail(self, corpus_files, capsys):
        table = corpus_files["dir"] / "flat.tsv"
        table.write_text("a\t-1.0\nb\t-1.0\nc\t-1.0\n")
        out = corpus_files["dir"] / "stats_flat"
        rc = main(["stats", "--scores", str(table), "--input", corpus_files["corpus"],
                   "--output", str(out)])
        assert rc == 1
        expected = "error: all scores identical across tables; histogram width is zero\n"
        assert capsys.readouterr().err == expected
        assert not out.exists()

    def test_table_missing_a_leaf_target_is_named(self, corpus_files, capsys):
        # e has no outlinks, so only c's outlink mean reads its score
        table = corpus_files["dir"] / "no_leaf.tsv"
        table.write_text("a\t-1.0\nb\t-0.5\nc\t-2.0\nd\t-0.25\n")
        out = corpus_files["dir"] / "stats7"
        rc = main(["stats", "--scores", str(table), "--input", corpus_files["corpus"],
                   "--output", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {table}: no quality score for outlink 'e'\n"
        assert not out.exists()

    def test_overflowing_outlink_mean_fails(self, tmp_path, jsonl_writer, capsys):
        # Every score is finite, but c's outlink mean (1.5e308 + 1.6e308) / 2 is inf.
        links = {"a": ["b", "c"], "b": ["a", "c"], "c": ["a", "b"]}
        rows = [{"doc_id": d, "url": None, "text": "x", "outlinks": o} for d, o in links.items()]
        records = jsonl_writer(rows, tmp_path / "corpus.jsonl")
        table = tmp_path / "scores.tsv"
        table.write_text("a\t1.5e308\nb\t1.6e308\nc\t-1.0\n")
        out = tmp_path / "stats"
        rc = main(["stats", "--scores", str(table), "--input", str(records), "--output", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == "error: series hold a non-finite value\n"
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    def test_overflowing_correlation_sums_fail_with_one_line(self, tmp_path, jsonl_writer, capsys):
        # Every score and outlink mean is finite, but the squared deviations
        # sum past float64's range; numpy warns of nothing, even as errors.
        links = {"a": ["b", "c"], "b": ["a", "c"], "c": ["a", "b"]}
        rows = [{"doc_id": d, "url": None, "text": "x", "outlinks": o} for d, o in links.items()]
        records = jsonl_writer(rows, tmp_path / "corpus.jsonl")
        table = tmp_path / "scores.tsv"
        table.write_text("a\t1e200\nb\t-1e200\nc\t0.0\n")
        out = tmp_path / "stats"
        rc = main(["stats", "--scores", str(table), "--input", str(records), "--output", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == "error: correlation sums out of float64 range\n"
        assert not out.exists()


_NOT_A_FLAG_VALUE = " must be a string, number, boolean or list"
_NOT_A_SWITCH = " is not an on/off flag: it cannot be true or false"


class TestConfigFile:
    def test_config_supplies_defaults(self, corpus_files, capsys):
        cfg = corpus_files["dir"] / "run.json"
        out = corpus_files["dir"] / "cfg_trace.tsv"
        cfg.write_text(json.dumps({
            "input": corpus_files["corpus"],
            "seeds": corpus_files["seeds"],
            "strategy": "bfs",
            "budget": 10,
            "checkpoint_interval": 2,
            "output": str(out),
        }))
        rc = main(["crawl", "--config", str(cfg)])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["pages_crawled"] == 5

    def test_explicit_flags_beat_config(self, corpus_files, capsys):
        cfg = corpus_files["dir"] / "run.json"
        cfg.write_text(json.dumps({
            "input": corpus_files["corpus"],
            "seeds": corpus_files["seeds"],
            "strategy": "bfs",
            "budget": 10,
            "checkpoint_interval": 2,
            "output": str(corpus_files["dir"] / "ignored.tsv"),
        }))
        out = corpus_files["dir"] / "explicit.tsv"
        rc = main(["crawl", "--config", str(cfg), "--budget", "2", "--output", str(out)])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["pages_crawled"] == 2
        assert summary["output"] == str(out)

    def test_config_given_with_equals(self, corpus_files, capsys):
        cfg = corpus_files["dir"] / "stats.json"
        out = corpus_files["dir"] / "cfg_stats"
        cfg.write_text(json.dumps({"output": str(out)}))
        rc = main(["stats", f"--config={cfg}", "--scores", corpus_files["scores"]])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["output_dir"] == str(out)

    def test_flag_with_equals_beats_config_list(self, corpus_files, capsys):
        t = corpus_files["dir"] / "t.tsv"
        u = corpus_files["dir"] / "u.tsv"
        t.write_text(Path(corpus_files["scores"]).read_text())
        u.write_text(Path(corpus_files["scores"]).read_text())
        cfg = corpus_files["dir"] / "stats.json"
        out = corpus_files["dir"] / "cfg_stats"
        cfg.write_text(json.dumps({"scores": [str(t)], "output": str(out)}))
        rc = main(["stats", "--config", str(cfg), f"--scores={u}"])
        assert rc == 0
        histograms = json.loads((out / "histograms.json").read_text())
        assert set(histograms["tables"]) == {"u"}

    def test_missing_config_file(self, corpus_files, capsys):
        rc = main(["crawl", "--config", str(corpus_files["dir"] / "nope.json")])
        assert rc == 1

    @pytest.mark.parametrize(
        "text, message",
        [
            ("{'budget': 10}", ":1: invalid JSON (Expecting property name enclosed in "
                               "double quotes)"),
            ('{\n  "budget": 10\n  "strategy": "bfs"\n}\n', ":3: invalid JSON (Expecting ',' "
                                                         "delimiter)"),
            ('["budget", 10]\n', ": config file must hold a JSON object"),
            ('{"edges": null}', ": 'edges'" + _NOT_A_FLAG_VALUE),
            ('{"edges": {"path": "e.tsv"}}', ": 'edges'" + _NOT_A_FLAG_VALUE),
            ('{"scores": ["t.tsv", null]}', ": 'scores'" + _NOT_A_FLAG_VALUE),
            ('{"budget": true}', ": 'budget'" + _NOT_A_SWITCH),
            ('{"budget": false}', ": 'budget'" + _NOT_A_SWITCH),
            ('{"scores": ["t.tsv", true]}', ": 'scores'" + _NOT_A_SWITCH),
            ('{"undersample": true}', ": 'undersample'" + _NOT_A_SWITCH),
        ],
        ids=["line-1", "line-3", "not-an-object", "null", "object", "null-in-list",
             "true-for-value", "false-for-value", "true-in-list", "switch-of-another-command"],
    )
    def test_bad_config_names_the_file(self, corpus_files, capsys, text, message):
        cfg = corpus_files["dir"] / "cfg.json"
        cfg.write_text(text)
        rc = main(["crawl", "--config", str(cfg)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {cfg}{message}\n"

    @pytest.mark.parametrize("value", [True, False])
    def test_config_switch_takes_a_boolean(self, corpus_files, capsys, value):
        cfg = corpus_files["dir"] / "stats.json"
        out = corpus_files["dir"] / "cfg_stats"
        cfg.write_text(json.dumps({"undersample": value, "qrels": corpus_files["qrels"]}))
        rc = main(["stats", "--config", str(cfg), "--scores", corpus_files["scores"],
                   "--output", str(out)])
        assert rc == 0
        assert json.loads((out / "relevance_split.json").read_text())["undersampled"] is value

    @pytest.mark.parametrize("value", ['"true"', "1", "[true]"])
    def test_config_switch_rejects_other_values(self, corpus_files, capsys, value):
        cfg = corpus_files["dir"] / "stats.json"
        cfg.write_text(f'{{"undersample": {value}}}')
        rc = main(["stats", "--config", str(cfg), "--scores", corpus_files["scores"]])
        assert rc == 1
        assert capsys.readouterr().err == (
            f"error: {cfg}: 'undersample' is an on/off flag: it must be true or false\n"
        )

    def test_config_before_the_subcommand_is_a_usage_error(self, corpus_files, capsys):
        cfg = corpus_files["dir"] / "stats.json"
        cfg.write_text('{"undersample": true}')
        with pytest.raises(SystemExit) as exc:
            main(["--config", str(cfg), "stats", "--scores", corpus_files["scores"]])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_config_without_its_file_is_a_usage_error(self, corpus_files, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["stats", "--scores", corpus_files["scores"], "--config"])
        assert exc.value.code == 2
        assert "argument --config: expected one argument" in capsys.readouterr().err

    def test_non_utf8_config_names_its_line(self, corpus_files, capsys):
        cfg = corpus_files["dir"] / "cfg.json"
        cfg.write_bytes(b'{\n  "strategy": "bfs\xff"\n}\n')
        rc = main(["crawl", "--config", str(cfg)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {cfg}:2: invalid UTF-8 (invalid start byte)\n"


def test_non_utf8_input_names_path_and_line(corpus_files, capsys):
    records = Path(corpus_files["corpus"])
    records.write_bytes(records.read_bytes() + b'{"doc_id": "f", "text": "\xff"}\n')
    out = corpus_files["dir"] / "scored.jsonl"
    assert main(["score", "--input", str(records), "--output", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {records}:6: invalid UTF-8 (invalid start byte)\n"
    assert not out.exists()
    table = Path(corpus_files["scores"])
    table.write_bytes(table.read_bytes() + b"f\t-1.0\xff\n")
    out = corpus_files["dir"] / "stats"
    assert main(["stats", "--scores", str(table), "--output", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {table}:6: invalid UTF-8 (invalid start byte)\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["eval", "index"])
def test_trace_doc_id_not_in_corpus_names_its_line(corpus_files, capsys, command):
    trace = corpus_files["dir"] / "trace.tsv"
    trace.write_text("#checkpoints\t2\n1\ta\t-\n2\tzz\t-\n")
    out = corpus_files["dir"] / "out.json"
    argv = [command, "--input", corpus_files["corpus"], "--output", str(out)]
    if command == "eval":
        argv += ["--trace", f"bfs={trace}", "--queries", corpus_files["queries"],
                 "--qrels", corpus_files["qrels"]]
    else:
        argv += ["--trace", str(trace)]
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"error: {trace}:3: doc_id 'zz' not in corpus\n")
    assert not out.exists()


def test_unknown_format_rejected(corpus_files, capsys):
    rc = main(
        ["score", "--input", corpus_files["corpus"],
         "--output", str(corpus_files["dir"] / "o"), "--format", "parquet"]
    )
    assert rc == 1
    assert "parquet" in capsys.readouterr().err


def test_abbreviated_flag_rejected_not_merged_with_config(corpus_files, capsys):
    t = corpus_files["dir"] / "t.tsv"
    u = corpus_files["dir"] / "u.tsv"
    t.write_text(Path(corpus_files["scores"]).read_text())
    u.write_text(Path(corpus_files["scores"]).read_text())
    cfg = corpus_files["dir"] / "stats.json"
    out = corpus_files["dir"] / "cfg_stats"
    cfg.write_text(json.dumps({"scores": [str(t)], "output": str(out)}))
    with pytest.raises(SystemExit) as exc:
        main(["stats", "--config", str(cfg), "--score", str(u)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --score" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("fmt", ["jsonl:csv", "parquet"])
def test_corpus_format_takes_one_record_format(corpus_files, capsys, fmt):
    out = corpus_files["dir"] / "trace.tsv"
    with pytest.raises(SystemExit) as exc:
        main(
            ["crawl", "--input", corpus_files["corpus"], "--format", fmt,
             "--seeds", corpus_files["seeds"], "--strategy", "bfs", "--budget", "10",
             "--checkpoint-interval", "2", "--output", str(out)]
        )
    assert exc.value.code == 2
    assert "--format: invalid choice" in capsys.readouterr().err
    assert not out.exists()


def test_csv_corpus_crawls_like_jsonl(corpus_files, five_node_rows):
    records = corpus_files["dir"] / "records.csv"
    with open(records, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["doc_id", "url", "text", "outlinks"])
        for row in five_node_rows:
            cells = [row["doc_id"], row["url"] or "", row["text"], " ".join(row["outlinks"])]
            writer.writerow(cells)
    traces = []
    for fmt, path in (("jsonl", corpus_files["corpus"]), ("csv", str(records))):
        out = corpus_files["dir"] / f"{fmt}.tsv"
        rc = main(
            ["crawl", "--input", path, "--format", fmt, "--seeds", corpus_files["seeds"],
             "--strategy", "dfs", "--budget", "10", "--checkpoint-interval", "2",
             "--output", str(out)]
        )
        assert rc == 0
        traces.append(out.read_bytes())
    assert traces[0] == traces[1]


def test_score_rejects_repeated_doc_id_at_its_line(tmp_path, jsonl_writer, capsys):
    rows = [{"doc_id": d, "url": None, "text": "some text"} for d in ("a", "b", "a")]
    path = jsonl_writer(rows, tmp_path / "dup.jsonl")
    out = tmp_path / "out.jsonl"
    rc = main(["score", "--input", path, "--output", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {path}:3: duplicate doc_id 'a'\n"
    assert not out.exists()


_CELL_TEXT = st.text(st.sampled_from(list('ab ,"\'\n\r\t;é')), max_size=12)


@st.composite
def _records(draw):
    n = draw(st.integers(0, 5))
    ids = [f"d{i}" for i in range(n)]
    return [
        {
            "doc_id": doc_id,
            "url": draw(st.none() | _CELL_TEXT.filter(bool)),
            "text": "w " + draw(_CELL_TEXT),
            "outlinks": draw(st.lists(st.sampled_from(ids + ["gone"]), max_size=3)),
        }
        for doc_id in ids
    ]


@settings(
    max_examples=60, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(rows=_records())
def test_score_jsonl_csv_jsonl_round_trip(tmp_path, jsonl_writer, capsys, rows):
    """jsonl -> scored csv; the csv without its score column -> scored jsonl
    gives back every record with the same score."""
    records = jsonl_writer(rows, tmp_path / "records.jsonl")
    scored_csv = tmp_path / "scored.csv"
    assert main(["score", "--input", records, "--output", str(scored_csv),
                 "--format", "jsonl:csv"]) == 0
    with open(scored_csv, encoding="utf-8", newline="") as fh:
        table = list(csv.reader(fh))
    assert table[0][-1] == "quality_score"
    unscored_csv = tmp_path / "unscored.csv"
    with open(unscored_csv, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows(row[:-1] for row in table)
    scored_jsonl = tmp_path / "scored.jsonl"
    assert main(["score", "--input", str(unscored_csv), "--output", str(scored_jsonl),
                 "--format", "csv:jsonl"]) == 0
    back = [json.loads(line) for line in scored_jsonl.read_text().splitlines()]
    assert [row.pop("quality_score") for row in back] == [float(row[-1]) for row in table[1:]]
    assert back == rows
    capsys.readouterr()
