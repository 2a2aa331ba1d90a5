import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qcrawl import (
    CorpusFormatError,
    DocumentRecord,
    EmptyText,
    MissingScore,
    NoOutlinks,
    WebGraph,
    build_corpus,
    load_score_table,
    mean_outlink_quality,
    score_batch,
    score_text_reference,
    write_score_table,
)


def _rec(doc_id, text):
    return DocumentRecord(doc_id=doc_id, url=None, text=text)


class TestReferenceScorer:
    def test_all_distinct_scores_zero(self):
        assert score_text_reference("a b") == 0.0

    def test_repetition_hand_value(self):
        assert score_text_reference("a a a a") == pytest.approx(math.log(0.25), abs=1e-12)

    def test_empty_text_rejected(self):
        with pytest.raises(EmptyText):
            score_text_reference("")
        with pytest.raises(EmptyText):
            score_text_reference("!!! ...")
        with pytest.raises(EmptyText):
            score_text_reference("_-_ \x1c\x0b\x7f")

    def test_range_and_zero_condition(self):
        rng = np.random.default_rng(5)
        vocab = [f"w{i}" for i in range(12)]
        for _ in range(200):
            n = int(rng.integers(1, 30))
            tokens = [vocab[int(rng.integers(0, len(vocab)))] for _ in range(n)]
            score = score_text_reference(" ".join(tokens))
            assert score <= 0.0
            assert (score == 0.0) == (len(set(tokens)) == len(tokens))


class TestScoreBatch:
    def test_table_preserves_input_order(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("a\t-1\nb\t-2\nc\t-3\n")
        records = [_rec("c", "x"), _rec("a", "y"), _rec("b", "z")]
        out = score_batch(records, load_score_table(str(path)))
        assert out == [("c", -3.0), ("a", -1.0), ("b", -2.0)]

    def test_empty_input(self):
        assert score_batch([]) == []

    def test_missing_table_entry_names_id(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("a\t-1\n")
        with pytest.raises(MissingScore, match="'d'"):
            score_batch([_rec("d", "x")], load_score_table(str(path)))

    def test_reference_batch_equals_pointwise(self):
        records = [_rec(f"r{i}", "tok " * (i + 1) + f"u{i}") for i in range(10)]
        batch = score_batch(records)
        pointwise = [(r.doc_id, score_text_reference(r.text)) for r in records]
        assert batch == pointwise

    def test_empty_text_propagates_id(self):
        with pytest.raises(EmptyText, match="'bad'"):
            score_batch([_rec("good", "x"), _rec("bad", "")])


class TestScoreTableIO:
    def test_scientific_notation(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("a\t-1.5e-2\nb\t2\n")
        assert load_score_table(str(path)) == {"a": -0.015, "b": 2.0}

    def test_non_finite_rejected(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("a\tnan\n")
        with pytest.raises(CorpusFormatError, match="non-finite"):
            load_score_table(str(path))
        path.write_text("a\tinf\n")
        with pytest.raises(CorpusFormatError, match="non-finite"):
            load_score_table(str(path))

    def test_unparseable_score_names_its_line(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("a\t1\nb\tabc\n")
        expected = rf"^{re.escape(str(path))}:2: unparseable score 'abc'$"
        with pytest.raises(CorpusFormatError, match=expected):
            load_score_table(str(path))

    def test_duplicate_id_rejected(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("a\t1\na\t2\n")
        with pytest.raises(CorpusFormatError, match="duplicate"):
            load_score_table(str(path))

    def test_roundtrip(self, tmp_path):
        table = {"a": -1.2345678901234567, "b": 0.0, "c": 1e-300}
        path = tmp_path / "t.tsv"
        write_score_table(table, str(path))
        assert load_score_table(str(path)) == table


class TestMeanOutlinkQuality:
    def test_singleton(self):
        rows = [
            {"doc_id": "a", "url": None, "text": "x", "outlinks": ["b"]},
            {"doc_id": "b", "url": None, "text": "y", "outlinks": []},
        ]
        _, graph, _ = build_corpus(rows)
        assert mean_outlink_quality(graph, {"b": -1.0}, "a") == -1.0

    def test_arithmetic_mean(self):
        rows = [{"doc_id": "a", "url": None, "text": "x", "outlinks": ["b", "c", "d"]}] + [
            {"doc_id": d, "url": None, "text": "y", "outlinks": []} for d in "bcd"
        ]
        _, graph, _ = build_corpus(rows)
        scores = {"b": -1.0, "c": -2.0, "d": -3.0}
        assert mean_outlink_quality(graph, scores, "a") == -2.0

    def test_repeated_outlink_counts_once(self):
        # a graph built by hand may repeat a target: the mean is over distinct targets
        graph = WebGraph(adjacency={"a": ["b", "c", "b"], "b": [], "c": []})
        assert mean_outlink_quality(graph, {"b": -1.0, "c": -4.0}, "a") == -2.5

    def test_leaf_raises(self):
        rows = [{"doc_id": "a", "url": None, "text": "x", "outlinks": []}]
        _, graph, _ = build_corpus(rows)
        with pytest.raises(NoOutlinks):
            mean_outlink_quality(graph, {}, "a")

    def test_missing_outlink_score(self):
        rows = [
            {"doc_id": "a", "url": None, "text": "x", "outlinks": ["b"]},
            {"doc_id": "b", "url": None, "text": "y", "outlinks": []},
        ]
        _, graph, _ = build_corpus(rows)
        with pytest.raises(MissingScore, match="'b'"):
            mean_outlink_quality(graph, {"a": 0.0}, "a")

    def test_bounds_and_permutation_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n_out = int(rng.integers(1, 12))
            targets = [f"t{i}" for i in range(n_out)]
            perm = [targets[i] for i in rng.permutation(n_out)]
            scores = {t: float(rng.normal()) for t in targets}
            rows_fwd = [{"doc_id": "a", "url": None, "text": "x", "outlinks": targets}] + [
                {"doc_id": t, "url": None, "text": "y", "outlinks": []} for t in targets
            ]
            rows_perm = [{"doc_id": "a", "url": None, "text": "x", "outlinks": perm}] + [
                {"doc_id": t, "url": None, "text": "y", "outlinks": []} for t in targets
            ]
            _, g1, _ = build_corpus(rows_fwd)
            _, g2, _ = build_corpus(rows_perm)
            q1 = mean_outlink_quality(g1, scores, "a")
            q2 = mean_outlink_quality(g2, scores, "a")
            assert q1 == q2  # summation order is fixed, so exact
            assert min(scores.values()) <= q1 <= max(scores.values())


@settings(
    max_examples=100, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    table=st.dictionaries(
        st.text(st.characters(blacklist_categories=("Cc", "Cs", "Z")), min_size=1, max_size=6),
        st.floats(allow_nan=False, allow_infinity=False),
        max_size=12,
    )
)
def test_write_load_score_table_round_trip(tmp_path, table):
    path = tmp_path / "t.tsv"
    write_score_table(table, str(path))
    loaded = load_score_table(str(path))
    assert list(loaded.items()) == list(table.items())
    assert [math.copysign(1.0, v) for v in loaded.values()] == [
        math.copysign(1.0, v) for v in table.values()
    ]
