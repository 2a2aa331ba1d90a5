import csv
import functools
import gc
import io
import json
import math
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qcrawl import (
    CorpusFormatError,
    LoadStats,
    QCrawlError,
    UnknownDoc,
    build_corpus,
    load_corpus,
    load_edges,
    load_qrels,
    load_queries,
    load_score_table,
    load_seeds,
    read_trace,
)
from qcrawl import corpus as corpus_module
from qcrawl.corpus import atomic_write, load_graph, parse_records

from oracles import reference_build_corpus, reference_parse_jsonl


def test_dangling_target_dropped_and_counted():
    rows = [{"doc_id": "a", "url": None, "text": "x", "outlinks": ["b"]}]
    corpus, graph, stats = build_corpus(rows)
    assert list(graph.adjacency) == ["a"]
    assert graph.edge_count == 0
    assert stats.dangling_dropped == 1


def test_two_node_cycle():
    rows = [
        {"doc_id": "a", "url": None, "text": "x", "outlinks": ["b"]},
        {"doc_id": "b", "url": None, "text": "y", "outlinks": ["a"]},
    ]
    _, graph, stats = build_corpus(rows)
    assert len(graph.adjacency) == 2
    assert graph.edge_count == 2
    assert stats.dangling_dropped == 0


def test_duplicate_outlinks_keep_first():
    rows = [
        {"doc_id": "a", "url": None, "text": "x", "outlinks": ["b", "b", "c"]},
        {"doc_id": "b", "url": None, "text": "y", "outlinks": []},
        {"doc_id": "c", "url": None, "text": "z", "outlinks": []},
    ]
    _, graph, stats = build_corpus(rows)
    assert graph.adjacency["a"] == ["b", "c"]
    assert stats.duplicate_dropped == 1


def test_duplicate_doc_id_error_names_id():
    rows = [
        {"doc_id": "dup", "url": None, "text": "x", "outlinks": []},
        {"doc_id": "dup", "url": None, "text": "y", "outlinks": []},
    ]
    with pytest.raises(CorpusFormatError, match="dup"):
        build_corpus(rows)


def test_jsonl_malformed_line_reports_lineno(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"doc_id": "a", "text": "ok", "outlinks": []}\nnot json\n')
    with pytest.raises(CorpusFormatError, match=":2:"):
        load_corpus(str(path), "jsonl")


def test_jsonl_doc_id_with_whitespace_rejected(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"doc_id": "a b", "text": "", "outlinks": []}\n')
    with pytest.raises(CorpusFormatError, match=":1:"):
        load_corpus(str(path), "jsonl")


@pytest.mark.parametrize(
    "bad", [["b c", ""], [""], ["b c"], ["b", " b"], ["b\u2003"], ["b", 3], [None]]
)
def test_jsonl_outlink_must_be_a_doc_id(tmp_path, bad):
    path = tmp_path / "bad.jsonl"
    path.write_text(
        '{"doc_id": "b", "text": "ok"}\n'
        + json.dumps({"doc_id": "a", "text": "ok", "outlinks": bad}) + "\n"
    )
    with pytest.raises(CorpusFormatError) as exc:
        load_corpus(str(path), "jsonl")
    assert str(exc.value) == f"{path}:2: 'outlinks' must be a list of doc_ids"


def test_csv_roundtrip(tmp_path):
    path = tmp_path / "corpus.csv"
    path.write_text(
        'doc_id,url,text,outlinks\n'
        'a,http://a,"hello there","b c"\n'
        'b,,"second doc",\n'
        'c,,"third, with comma",a\n'
    )
    corpus, graph, stats = load_corpus(str(path), "csv")
    assert graph.adjacency["a"] == ["b", "c"]
    assert corpus["a"].url == "http://a"
    assert corpus["b"].url is None
    assert corpus["c"].text == "third, with comma"
    assert graph.adjacency["c"] == ["a"]
    assert stats.records == 3


def test_scored_csv_row_holding_a_lone_cr_reads_back_as_one_row(tmp_path):
    row = {"doc_id": "a", "url": None, "text": "one\rtwo", "outlinks": ["b"], "quality_score": -0.5}
    path = tmp_path / "scored.csv"
    with atomic_write(str(path)) as fh:
        corpus_module.RECORD_FORMATS["csv"][1](fh)(row)
    with open(path, encoding="utf-8", newline="") as fh:
        assert list(csv.reader(fh)) == [
            ["doc_id", "url", "text", "outlinks", "quality_score"],
            ["a", "", "one\rtwo", "b", "-0.5"],
        ]


def test_csv_bad_header(tmp_path):
    path = tmp_path / "corpus.csv"
    path.write_text("id,url,text,outlinks\na,,x,\n")
    with pytest.raises(CorpusFormatError, match="header"):
        load_corpus(str(path), "csv")


def test_reload_determinism(tmp_path, five_node_rows, jsonl_writer):
    path = jsonl_writer(five_node_rows, tmp_path / "c.jsonl")
    c1, g1, s1 = load_corpus(path, "jsonl")
    c2, g2, s2 = load_corpus(path, "jsonl")
    assert list(c1) == list(c2)
    assert g1.adjacency == g2.adjacency
    assert s1 == s2


def test_edge_conservation_on_random_corpora():
    rng = np.random.default_rng(42)
    for _ in range(20):
        n = int(rng.integers(2, 30))
        ids = [f"n{i}" for i in range(n)]
        rows = []
        for doc_id in ids:
            # targets drawn from a superset so some dangle, with duplicates
            n_out = int(rng.integers(0, 8))
            targets = [f"n{int(rng.integers(0, n + 5))}" for _ in range(n_out)]
            rows.append({"doc_id": doc_id, "url": None, "text": "t", "outlinks": targets})
        _, graph, stats = build_corpus(rows)
        assert stats.edges_loaded == (
            stats.edges_kept + stats.dangling_dropped + stats.duplicate_dropped
        )
        assert stats.edges_kept == graph.edge_count
        for targets in graph.adjacency.values():
            assert set(targets) <= graph.adjacency.keys()


def test_separate_edge_list(tmp_path, jsonl_writer):
    rows = [
        {"doc_id": "a", "url": None, "text": "x"},
        {"doc_id": "b", "url": None, "text": "y"},
    ]
    corpus_path = jsonl_writer(rows, tmp_path / "c.jsonl")
    edges_path = tmp_path / "edges.tsv"
    edges_path.write_text("a\tb\na\tb\na\tmissing\nghost\tb\nb\ta\n")
    _, graph, stats = load_corpus(corpus_path, "jsonl", edges_path=str(edges_path))
    assert graph.adjacency["a"] == ["b"]
    assert graph.adjacency["b"] == ["a"]
    assert stats.edges_loaded == 5
    assert stats.duplicate_dropped == 1
    assert stats.dangling_dropped == 2  # unknown target + unknown source
    assert stats.edges_kept == 2


def test_edge_list_malformed_line(tmp_path):
    path = tmp_path / "edges.tsv"
    path.write_text("a\tb\nc only\n")
    with pytest.raises(CorpusFormatError, match=":2:"):
        load_edges(str(path))


def test_load_seeds(tmp_path, five_node_corpus):
    _, graph, _ = five_node_corpus
    path = tmp_path / "seeds.txt"
    path.write_text("a\n\nb\na\n")
    assert load_seeds(str(path), graph) == ["a", "b"]
    path.write_text("a\nnope\n")
    with pytest.raises(UnknownDoc, match="nope"):
        load_seeds(str(path), graph)


def test_jsonl_duplicate_doc_id_reports_path_line(tmp_path):
    path = tmp_path / "dup.jsonl"
    path.write_text("".join(f'{{"doc_id": "{d}", "text": "x"}}\n' for d in "aba"))
    expected = rf"^{re.escape(str(path))}:3: duplicate doc_id 'a'$"
    with pytest.raises(CorpusFormatError, match=expected):
        load_corpus(str(path), "jsonl")


def test_csv_errors_count_lines_not_records(tmp_path):
    path = tmp_path / "corpus.csv"
    prefix = re.escape(str(path))
    path.write_text('doc_id,url,text,outlinks\na,,"two\nlines",\nb,,short\n')
    with pytest.raises(CorpusFormatError, match=rf"^{prefix}:4: expected 4 fields"):
        load_corpus(str(path), "csv")
    path.write_text('doc_id,url,text,outlinks\na,,"two\nlines",\na,,again,\n')
    with pytest.raises(CorpusFormatError, match=rf"^{prefix}:4: duplicate doc_id 'a'$"):
        load_corpus(str(path), "csv")


@pytest.fixture
def csv_limit():
    """The csv module's default field size limit, restored after the test."""
    old = csv.field_size_limit(131_072)
    yield 131_072
    csv.field_size_limit(old)


def test_csv_text_as_long_as_a_json_line(tmp_path, csv_limit):
    path = tmp_path / "long.csv"
    text = "w" * 200_000
    path.write_text(f"doc_id,url,text,outlinks\na,,{text},\n")
    corpus, _, _ = load_corpus(str(path), "csv")
    assert corpus["a"].text == text
    assert csv.field_size_limit() == csv_limit


def test_csv_error_names_path_and_line(tmp_path, monkeypatch, csv_limit):
    # With the field limit lifted, a default-dialect reader over a text file
    # raises no csv.Error, so a strict reader stands in for one that does.
    strict = functools.partial(csv.reader, strict=True)
    monkeypatch.setattr(
        corpus_module, "csv",
        SimpleNamespace(reader=strict, Error=csv.Error, field_size_limit=csv.field_size_limit),
    )
    path = tmp_path / "corpus.csv"
    path.write_text('doc_id,url,text,outlinks\na,,ok,\nb,,"x"y,\n')
    expected = rf"^{re.escape(str(path))}:3: ',' expected after '\"'$"
    with pytest.raises(CorpusFormatError, match=expected):
        load_corpus(str(path), "csv")
    assert csv.field_size_limit() == csv_limit


# x and y are never doc_ids, so an outlink or edge naming them dangles.
_TARGETS = st.sampled_from(["a", "b", "c", "d", "e", "x", "y"])


@st.composite
def _build_inputs(draw):
    """Rows (a doc_id may repeat; outlinks absent or a list, tuple or
    iterator; self-links, duplicates, dangling targets) and an optional edge
    list, held as a recipe so that each builder gets fresh iterators."""
    rows = []
    for doc_id in draw(st.lists(st.sampled_from("abcde"), max_size=5)):
        row = {"doc_id": doc_id, "url": draw(st.sampled_from([None, f"http://{doc_id}"]))}
        row["text"] = draw(st.text(max_size=3))
        shape = draw(st.sampled_from([None, list, tuple, iter]))
        if shape is not None:
            row["outlinks"] = (shape, draw(st.lists(_TARGETS, max_size=6)))
        rows.append(row)
    edges = draw(st.none() | st.tuples(
        st.sampled_from([list, iter]), st.lists(st.tuples(_TARGETS, _TARGETS), max_size=10)
    ))
    return rows, edges


def _build_outcome(build, inputs):
    rows, edges = inputs
    rows = [
        {**row, "outlinks": row["outlinks"][0](row["outlinks"][1])} if "outlinks" in row else row
        for row in rows
    ]
    try:
        return build(rows, None if edges is None else edges[0](edges[1]))
    except CorpusFormatError as exc:
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(inputs=_build_inputs())
def test_build_corpus_matches_reference(inputs):
    fast = _build_outcome(build_corpus, inputs)
    slow = _build_outcome(reference_build_corpus, inputs)
    if len(slow) == 2:  # a repeated doc_id
        assert fast == slow
        return
    corpus, graph, stats = fast
    records, adjacency, ref_stats = slow
    assert list(graph.adjacency.items()) == list(adjacency.items())
    assert [(r.doc_id, r.url, r.text) for r in corpus.values()] == list(records.values())
    assert list(corpus) == list(records)
    assert stats == ref_stats
    assert stats.edges_loaded == stats.edges_kept + stats.dangling_dropped + stats.duplicate_dropped


def _outcome(read, *args):
    """repr of what read returns (NaN compares by its spelling), or the
    message of the CorpusFormatError it raises."""
    try:
        return repr(read(*args))
    except CorpusFormatError as exc:
        return f"CorpusFormatError: {exc}"


def _mostly(good, bad, odds=8):
    """good, drawn odds times as often as bad."""
    return st.sampled_from([good] * odds + [bad]).flatmap(lambda strategy: strategy)


_JSON_RECORDS = st.fixed_dictionaries(
    {
        "doc_id": _mostly(st.sampled_from("abcdefghijkl"), st.sampled_from(["a b", "", 3])),
        "text": _mostly(
            st.sampled_from(["x", "y z", "", "\u00e9 \t"]), st.sampled_from([math.nan, None])
        ),
    },
    optional={
        "url": _mostly(st.sampled_from([None, "http://a"]), st.just(1)),
        "outlinks": _mostly(
            st.lists(st.sampled_from(["a", "b", "zz"]), max_size=4),
            st.sampled_from([["c d"], [7], "a"]),
        ),
        "w": st.sampled_from([math.nan, math.inf, -math.inf, 0.5]),
    },
).map(json.dumps)  # NaN and Infinity literals included
_JSON_PADDING = st.sampled_from([" ", "\t", " \t ", ""])
_OTHER_PADDING = st.sampled_from(["\x0c", "\u00a0", "\u3000", "\r", "\ufeff"])
_JSONL_LINES = st.sampled_from(
    [_JSON_RECORDS] * 6
    + [st.tuples(_JSON_PADDING, _JSON_RECORDS, _JSON_PADDING).map("".join)] * 3
    + [
        st.tuples(_OTHER_PADDING | _JSON_PADDING, _JSON_RECORDS, _OTHER_PADDING).map("".join),
        _JSON_RECORDS.map("\ufeff".__add__),
        st.tuples(_JSON_RECORDS, st.sampled_from(["", " ", ","]), _JSON_RECORDS).map("".join),
        st.tuples(_JSON_RECORDS, st.sampled_from(["x", "]", "}", "NaN", "//"])).map("".join),
        st.sampled_from(["", "  ", "NaN", "-Infinity", "[1]", '"s"', "null", "{", "{}"]),
    ]
).flatmap(lambda strategy: strategy)


@settings(
    max_examples=500, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(lines=st.lists(_JSONL_LINES, max_size=5))
def test_jsonl_reader_matches_one_json_loads_per_line(tmp_path, lines):
    path = tmp_path / "records.jsonl"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    fast = _outcome(parse_records, str(path), "jsonl")
    assert fast == _outcome(reference_parse_jsonl, str(path))


@st.composite
def _record_files(draw):
    """A record file (JSON lines or CSV) with repeated, dangling and
    duplicate links, sometimes a repeated doc_id or a bad outlink, and an
    optional edge file that may hold a malformed line."""
    fmt = draw(st.sampled_from(["jsonl", "csv"]))
    doc_ids = draw(st.lists(st.sampled_from("abcde"), max_size=5, unique=True))
    doc_ids += draw(_mostly(st.just([]), st.sampled_from([["a"], ["e"]])))
    targets = _mostly(st.lists(_TARGETS, max_size=6), st.just(["b", "a b"]))
    records = [
        (doc_id, draw(st.sampled_from([None, f"http://{doc_id}"])), draw(targets))
        for doc_id in doc_ids
    ]
    edge_lines = _mostly(
        st.tuples(_TARGETS, _TARGETS).map("\t".join), st.sampled_from(["a", "a\t"]), odds=15
    )
    edges = draw(st.none() | st.lists(edge_lines, max_size=8))
    return fmt, records, edges


def _write_record_files(directory, fmt, records, edges):
    path = directory / f"records.{fmt}"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        if fmt == "jsonl":
            for doc_id, url, links in records:
                row = {"doc_id": doc_id, "url": url, "text": f"page {doc_id}", "outlinks": links}
                fh.write(json.dumps(row) + "\n")
        else:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["doc_id", "url", "text", "outlinks"])
            writer.writerows([d, u or "", f"page {d}", " ".join(ls)] for d, u, ls in records)
    if edges is None:
        return str(path), None
    (directory / "edges.tsv").write_text("".join(line + "\n" for line in edges))
    return str(path), str(directory / "edges.tsv")


def _reference_load(path, fmt, edges_path, text):
    """Rows read whole, then the edge file, then the per-target builder."""
    rows = reference_parse_jsonl(path) if fmt == "jsonl" else parse_records(path, fmt)
    records, adjacency, stats = reference_build_corpus(
        rows, load_edges(edges_path) if edges_path else None
    )
    return list(records.values()) if text else None, list(adjacency.items()), stats


def _streamed_load(path, fmt, edges_path, text):
    """load_corpus's records, graph and stats, or load_graph's graph and stats."""
    if text:
        corpus, graph, stats = load_corpus(path, fmt, edges_path)
        records = [(r.doc_id, r.url, r.text) for r in corpus.values()]
    else:
        (graph, stats), records = load_graph(path, fmt, edges_path), None
    return records, list(graph.adjacency.items()), stats


@settings(
    max_examples=400, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(files=_record_files())
def test_graph_load_matches_reference(tmp_path, files):
    path, edges_path = _write_record_files(tmp_path, *files)
    for text in (False, True):
        args = (path, files[0], edges_path, text)
        assert _outcome(_streamed_load, *args) == _outcome(_reference_load, *args)


def test_graph_only_load_keeps_no_text(tmp_path):
    """400 pages of 20 kB text: a graph-only load never holds a tenth of
    it at once, while a load that keeps the records holds all of it."""
    pages, size = 400, 20_000
    path = tmp_path / "records.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(pages):
            row = {"doc_id": f"d{i}", "text": "w" * size, "outlinks": [f"d{(i + 1) % pages}"]}
            fh.write(json.dumps(row) + "\n")

    def traced_peak(load):
        tracemalloc.start()
        try:
            loaded = load(str(path))
            return tracemalloc.get_traced_memory()[1], loaded
        finally:
            tracemalloc.stop()

    graph_peak, (graph, _) = traced_peak(load_graph)
    corpus_peak, (corpus, _, _) = traced_peak(load_corpus)
    assert len(graph.adjacency) == len(corpus) == pages
    assert graph_peak < pages * size / 10
    assert corpus_peak > pages * size


@pytest.fixture
def gc_state():
    """Set the collector on or off for a test, and restore it afterwards."""
    was = gc.isenabled()
    yield lambda on: gc.enable() if on else gc.disable()
    if was:
        gc.enable()
    else:
        gc.disable()


@pytest.mark.parametrize("caller_gc", [True, False], ids=["gc_on", "gc_off"])
@pytest.mark.parametrize("clean", [True, False], ids=["clean", "error"])
@pytest.mark.parametrize("load", ["parse_records", "build_corpus", "load_corpus", "load_graph"])
def test_load_leaves_gc_as_found(tmp_path, gc_state, load, clean, caller_gc):
    ids = "abc" if clean else "aba"
    rows = [{"doc_id": d, "text": "x", "outlinks": ["a", "zz"]} for d in ids]
    path = tmp_path / "records.jsonl"
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))
    call = {
        "parse_records": lambda: parse_records(str(path), "jsonl"),
        "build_corpus": lambda: build_corpus(rows),
        "load_corpus": lambda: load_corpus(str(path), "jsonl"),
        "load_graph": lambda: load_graph(str(path), "jsonl"),
    }[load]
    gc_state(caller_gc)
    if clean:
        call()
    else:
        with pytest.raises(CorpusFormatError, match="duplicate doc_id"):
            call()
    assert gc.isenabled() is caller_gc


def test_collector_paused_while_rows_and_records_are_built(
    tmp_path, monkeypatch, gc_state, two_records
):
    """For each record format, the collector is off from the first row parsed
    until the graph and the records are built, and on again afterwards; a
    load reads one row, records it, and only then reads the next."""
    states = []

    def noting(step, fn):
        def noted(*args, **kwargs):
            states.append((step, gc.isenabled()))
            return fn(*args, **kwargs)

        return noted

    steps = {"_check_doc_id": "parse", "DocumentRecord": "record", "split_fields": "edges",
             "WebGraph": "graph"}
    for name, step in steps.items():
        monkeypatch.setattr(corpus_module, name, noting(step, getattr(corpus_module, name)))
    edges = tmp_path / "edges.tsv"
    edges.write_text("b\ta\n")
    gc_state(True)
    for fmt, text in two_records.items():
        records = tmp_path / f"records.{fmt}"
        records.write_text(text)
        states.clear()
        corpus, graph, _ = load_corpus(str(records), fmt, edges_path=str(edges))
        assert gc.isenabled()
        graph_only, _ = load_graph(str(records), fmt, edges_path=str(edges))
        assert gc.isenabled()
        rows = parse_records(str(records), fmt)
        assert gc.isenabled()
        assert [step for step, _ in states] == [
            *("parse", "record", "parse", "record", "edges", "graph"),  # load_corpus
            *("parse", "parse", "edges", "graph"),  # load_graph
            *("parse", "parse"),  # parse_records
        ]
        assert not any(enabled for _, enabled in states)
        assert graph.adjacency == graph_only.adjacency == {"a": [], "b": ["a"]}
        assert list(corpus) == [row["doc_id"] for row in rows] == ["a", "b"]


def test_a_load_leaves_no_cyclic_garbage(tmp_path, gc_state):
    rows = [
        {"doc_id": "a", "text": "x", "outlinks": ["b", "b", "zz"]},
        {"doc_id": "b", "text": "y", "outlinks": ["a", "a"]},
        {"doc_id": "c", "text": "z"},
    ]
    path = tmp_path / "records.jsonl"
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))
    edges = tmp_path / "edges.tsv"
    edges.write_text("a\tb\na\tb\nzz\ta\nb\tyy\n")
    gc_state(True)
    gc.collect()
    loads = [load_corpus(str(path)), load_corpus(str(path), edges_path=str(edges))]
    assert gc.collect() == 0
    assert [stats for _, _, stats in loads] == [LoadStats(3, 5, 2, 1, 2), LoadStats(3, 4, 1, 2, 1)]


# One file per line-oriented reader, each with an empty and a whitespace-only
# line between its two records.
_BLANK_LINE_CASES = {
    "jsonl": ('{"doc_id": "a", "text": "x"}', '{"doc_id": "b", "text": "y"}'),
    "csv": ("doc_id,url,text,outlinks", "a,,x,"),
    "edges": ("a\tb", "b\ta"),
    "seeds": ("a", "b"),
    "score_table": ("a\t-1.0", "b\t-2.0"),
    "trace": ("#checkpoints\t2", "1\ta\t-\n2\tb\t-0.5"),
    "queries": ("q1\talpha", "q2\tbeta"),
    "qrels": ("q1 0 a 1", "q2 0 b 0"),
}


def _loader(reader, graph):
    return {
        "jsonl": lambda p: load_corpus(p, "jsonl")[0],
        "csv": lambda p: load_corpus(p, "csv")[0],
        "edges": load_edges,
        "seeds": lambda p: load_seeds(p, graph),
        "score_table": load_score_table,
        "trace": read_trace,
        "queries": load_queries,
        "qrels": load_qrels,
    }[reader]


@pytest.mark.parametrize("reader", sorted(_BLANK_LINE_CASES))
def test_whitespace_only_lines_are_skipped(tmp_path, reader, five_node_corpus):
    first, second = _BLANK_LINE_CASES[reader]
    path = tmp_path / "input"
    path.write_text(f"{first}\n\n \t \n{second}\n")
    blank_free = tmp_path / "blank_free"
    blank_free.write_text(f"{first}\n{second}\n")
    load = _loader(reader, five_node_corpus[1])
    assert load(str(path)) == load(str(blank_free))


@pytest.mark.parametrize(
    "load, text",
    [
        (load_edges, "a\tb\na\t\n"),
        (load_score_table, "a\t-1.0\n\t-2.0\n"),
        (read_trace, "#checkpoints\n1\t\t-\n"),
        (load_queries, "q1\talpha\n\tbeta\n"),
    ],
    ids=["edges", "score_table", "trace", "queries"],
)
def test_empty_field_rejected_at_its_line(tmp_path, load, text):
    path = tmp_path / "input"
    path.write_text(text)
    with pytest.raises(CorpusFormatError, match=rf"^{re.escape(str(path))}:2: expected '"):
        load(str(path))


def _first_bad_line(raw: bytes):
    """Line number, as text-mode reading counts lines, of the first byte that
    is not UTF-8; None when there is none."""
    text = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8", errors="surrogateescape")
    for lineno, line in enumerate(text, start=1):
        if re.search("[\udc80-\udcff]", line):
            return lineno
    return None


@pytest.mark.parametrize("reader", sorted(_BLANK_LINE_CASES))
def test_non_utf8_byte_names_path_and_line(tmp_path, reader, five_node_corpus):
    first, second = _BLANK_LINE_CASES[reader]
    path = tmp_path / "input"
    # "\r\n" and a lone "\r" each end one line
    raw = f"{first}\r\n\r{second}\n".encode() + b"z\xffz\n"
    path.write_bytes(raw)
    lineno = 4 + second.count("\n")
    assert _first_bad_line(raw) == lineno
    expected = rf"^{re.escape(str(path))}:{lineno}: invalid UTF-8 \(invalid start byte\)$"
    with pytest.raises(CorpusFormatError, match=expected):
        _loader(reader, five_node_corpus[1])(str(path))


_BYTE_CHUNKS = st.sampled_from(
    [b"\n", b"\r", b"\r\n", b" ", b"\t", b",", b'"', b"\xff", b"\xc3", "\u00e9".encode()]
)


@settings(
    max_examples=200, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(reader=st.sampled_from(sorted(_BLANK_LINE_CASES)), data=st.data())
def test_any_bytes_load_or_fail_naming_the_path(tmp_path, five_node_corpus, reader, data):
    """Valid lines, line ends, stray and broken UTF-8 bytes in any order:
    every reader loads them or raises a QCrawlError naming the path (and,
    for a byte that is not UTF-8, its line)."""
    lines = st.sampled_from([line.encode() for line in _BLANK_LINE_CASES[reader]])
    raw = data.draw(st.lists(lines | _BYTE_CHUNKS | st.binary(max_size=3), max_size=12))
    raw = b"".join(raw)
    path = tmp_path / "input"
    path.write_bytes(raw)
    bad_line = _first_bad_line(raw)
    try:
        _loader(reader, five_node_corpus[1])(str(path))
    except QCrawlError as exc:
        assert str(exc).startswith(f"{path}:")
        if bad_line is not None:
            assert re.match(rf"{re.escape(str(path))}:{bad_line}: invalid UTF-8 ", str(exc))
    else:
        assert bad_line is None


class TestAtomicWrite:
    def test_clean_exit_replaces_target(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old\n")
        with atomic_write(str(path)) as fh:
            fh.write("new\r\nline\n")
        assert path.read_bytes() == b"new\r\nline\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    @pytest.mark.parametrize("exc", [ValueError, KeyboardInterrupt])
    def test_failure_keeps_old_content_and_no_temp_file(self, tmp_path, exc):
        path = tmp_path / "out.txt"
        path.write_text("old\n")
        with pytest.raises(exc):
            with atomic_write(str(path)) as fh:
                fh.write("half")
                raise exc()
        assert path.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_failure_creates_no_target(self, tmp_path):
        path = tmp_path / "out.txt"
        with pytest.raises(ValueError):
            with atomic_write(str(path)) as fh:
                fh.write("half")
                raise ValueError
        assert list(tmp_path.iterdir()) == []

    def test_mode_matches_plain_open(self, tmp_path):
        plain = tmp_path / "plain.txt"
        with open(plain, "w") as fh:
            fh.write("x")
        path = tmp_path / "out.txt"
        with atomic_write(str(path)) as fh:
            fh.write("x")
        assert path.stat().st_mode == plain.stat().st_mode
