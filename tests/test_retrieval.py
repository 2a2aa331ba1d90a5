import gc
import math
import re

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from qcrawl import (
    CorpusFormatError,
    CrawlTrace,
    InvertedIndex,
    QCrawlError,
    SkippedQuery,
    UnknownDoc,
    build_corpus,
    build_index,
    evaluate_checkpoints,
    load_qrels,
    load_queries,
    paired_t_test_bonferroni,
    recall_at_k,
    run_crawl,
    score_batch,
    search_topk,
    synthetic_corpus,
    t_p_value,
    tokenize,
)
from qcrawl import retrieval

from oracles import (
    bm25_from_scratch,
    reference_build_index,
    reference_evaluate_checkpoints,
    reference_search_topk,
    reference_tokenize,
    student_t_two_sided_p,
)


def _segments(order, cuts):
    """Split ``order`` into growth steps, a new one where ``cuts`` is true."""
    segments = []
    for doc_id, cut in zip(order, cuts):
        if cut or not segments:
            segments.append([])
        segments[-1].append(doc_id)
    return segments


def _corpus(texts):
    rows = [{"doc_id": d, "url": None, "text": t, "outlinks": []} for d, t in texts.items()]
    corpus, _, _ = build_corpus(rows)
    return corpus


class TestTokenize:
    def test_punctuation_and_case(self):
        assert tokenize("Hello, World!") == ["hello", "world"]

    def test_empty(self):
        assert tokenize("") == []

    def test_hyphen_split(self):
        assert tokenize("a-b a") == ["a", "b", "a"]

    def test_underscore_is_not_alphanumeric(self):
        assert tokenize("a_b") == ["a", "b"]

    def test_digits_kept(self):
        assert tokenize("top10 results") == ["top10", "results"]

    def test_underscore_and_control_bytes_split(self):
        assert tokenize("A_B\x1fc") == ["a", "b", "c"]

    def test_one_non_ascii_character_keeps_the_ascii_tokens(self):
        text = "Top10 RESULTS_for\x0cyou\x0bNOW"
        assert tokenize(text) == ["top10", "results", "for", "you", "now"]
        assert tokenize(text + " é") == ["top10", "results", "for", "you", "now", "é"]
        assert tokenize(text.replace("NOW", "NÖW")) == ["top10", "results", "for", "you", "nöw"]

    # every ASCII code point and a few non-ASCII letters, digits and separators
    @settings(max_examples=600, deadline=None, derandomize=True, database=None)
    @given(st.text(st.sampled_from([chr(c) for c in range(128)] + list("éßİ²٣\x85Ⅻ"))))
    def test_matches_reference_rule(self, text):
        assert tokenize(text) == reference_tokenize(text)


class TestBuildIndex:
    def test_single_doc(self):
        index = build_index(_corpus({"d": "a b"}), {"d"})
        assert index.doc_count == 1
        assert index.avgdl == 2.0
        assert index.postings == {"a": {"d": 1}, "b": {"d": 1}}

    def test_term_frequencies_and_avgdl(self):
        index = build_index(_corpus({"d1": "a", "d2": "a a"}), {"d1", "d2"})
        assert index.postings["a"] == {"d1": 1, "d2": 2}
        assert index.avgdl == 1.5

    def test_rebuild_identical(self):
        corpus = _corpus({"d1": "x y z", "d2": "y y"})
        i1 = build_index(corpus, {"d1", "d2"})
        i2 = build_index(corpus, {"d1", "d2"})
        assert i1 == i2

    def test_zero_token_doc_counts_in_n(self):
        index = build_index(_corpus({"d1": "a b", "d2": ""}), {"d1", "d2"})
        assert index.doc_count == 2
        assert index.doc_lengths["d2"] == 0
        assert index.avgdl == 1.0

    def test_empty_doc_ids_error(self):
        with pytest.raises(ValueError):
            build_index(_corpus({"d": "a"}), set())

    def test_unknown_doc_id(self):
        with pytest.raises(UnknownDoc):
            build_index(_corpus({"d": "a"}), {"d", "ghost"})


class TestBM25:
    """Hand-derived BM25 values hold for the oracle and for search_topk alike."""

    def test_hand_case(self):
        index = build_index(_corpus({"d": "a b"}), {"d"})
        for search in (search_topk, reference_search_topk):
            [(doc_id, score)] = search(index, ["a"], 10)
            assert doc_id == "d"
            assert score == pytest.approx(math.log(4 / 3), abs=1e-12)

    def test_absent_term_contributes_zero(self):
        index = build_index(_corpus({"d": "a b", "e": "c"}), {"d", "e"})
        for search in (search_topk, reference_search_topk):
            assert search(index, ["zzz"], 10) == []
            assert search(index, ["a", "zzz"], 10) == search(index, ["a"], 10)

    def test_duplicate_query_terms_counted_once(self):
        index = build_index(_corpus({"d": "a b", "e": "a"}), {"d", "e"})
        for search in (search_topk, reference_search_topk):
            assert search(index, ["a", "a"], 10) == search(index, ["a"], 10)

    def test_idf_positive_for_every_indexed_term(self):
        rng = np.random.default_rng(9)
        vocab = [f"w{i}" for i in range(20)]
        texts = {
            f"d{i}": " ".join(rng.choice(vocab, size=rng.integers(1, 15)))
            for i in range(30)
        }
        index = build_index(_corpus(texts), set(texts))
        for term in index.postings:
            df = len(index.postings[term])
            idf = math.log(1 + (index.doc_count - df + 0.5) / (df + 0.5))
            assert idf > 0

    def test_matches_from_scratch_recomputation(self):
        rng = np.random.default_rng(31)
        vocab = [f"w{i}" for i in range(12)]
        for _ in range(15):
            texts = {
                f"d{i}": " ".join(rng.choice(vocab, size=rng.integers(1, 20)))
                for i in range(int(rng.integers(2, 12)))
            }
            index = reference_build_index(_corpus(texts), set(texts))
            query = list(rng.choice(vocab, size=4))
            for doc_id, score in reference_search_topk(index, query, 100):
                expected = bm25_from_scratch(texts, query, doc_id, reference_tokenize)
                assert score == pytest.approx(expected, abs=1e-12)

    def test_search_accumulation_equals_pointwise(self):
        # term-at-a-time accumulation over arrays equals the per-doc recomputation
        rng = np.random.default_rng(13)
        vocab = [f"w{i}" for i in range(10)]
        texts = {
            f"d{i}": " ".join(rng.choice(vocab, size=rng.integers(1, 25)))
            for i in range(40)
        }
        index = build_index(_corpus(texts), set(texts))
        query = ["w1", "w3", "w1", "w7"]
        ranked = search_topk(index, query, 100)
        assert len(ranked) > 1
        for doc_id, score in ranked:
            assert score == bm25_from_scratch(texts, query, doc_id, reference_tokenize)


class TestSearchTopK:
    def test_no_match_empty(self):
        index = build_index(_corpus({"d": "a"}), {"d"})
        assert search_topk(index, ["zzz"], 10) == []

    def test_tie_broken_by_doc_id(self):
        index = build_index(_corpus({"d2": "a", "d1": "a"}), {"d1", "d2"})
        ranked = search_topk(index, ["a"], 10)
        assert [d for d, _ in ranked] == ["d1", "d2"]
        assert ranked[0][1] == ranked[1][1]

    def test_k_truncates(self):
        texts = {f"d{i}": "a" for i in range(5)}
        index = build_index(_corpus(texts), set(texts))
        assert len(search_topk(index, ["a"], 3)) == 3
        assert len(search_topk(index, ["a"], 99)) == 5

    def test_k_below_one(self):
        index = build_index(_corpus({"d": "a"}), {"d"})
        with pytest.raises(ValueError):
            search_topk(index, ["a"], 0)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        pool=st.lists(
            st.lists(st.sampled_from("abc-"), max_size=6).map(" ".join), min_size=1, max_size=4
        ),
        data=st.data(),
    )
    def test_growing_index_ranks_like_rebuild(self, pool, data):
        # few distinct texts over many pages, so equal scores straddle k = 1 and 3
        texts = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12))
        corpus = _corpus({f"d{i}": text for i, text in enumerate(texts)})
        ids = data.draw(st.permutations(sorted(corpus)))
        cuts = data.draw(st.lists(st.booleans(), min_size=len(ids), max_size=len(ids)))
        query = st.lists(st.sampled_from("abcz"), min_size=1, max_size=5)
        queries = data.draw(st.lists(query, min_size=1, max_size=3))

        def assert_ranks_like_rebuild(index, prefix):
            rebuilt = reference_build_index(corpus, prefix)
            for terms in queries:
                for k in (1, 3, 100):
                    assert search_topk(index, terms, k) == reference_search_topk(rebuilt, terms, k)

        index, prefix = None, []
        for segment in _segments(ids, cuts):
            if index is not None:
                assert_ranks_like_rebuild(index, prefix)  # cached weights, before the growth
            prefix += segment
            try:
                reference_build_index(corpus, prefix)
            except ValueError as exc:  # every page so far has zero tokens
                with pytest.raises(ValueError, match=str(exc)):
                    build_index(corpus, segment, index)
                return
            index = build_index(corpus, segment, index)
            assert_ranks_like_rebuild(index, prefix)

    def test_search_after_growth_sees_new_collection(self):
        corpus, query = _corpus({"d1": "a b", "d2": "a a c", "d3": "b"}), ["a", "b", "a"]
        index = build_index(corpus, ["d1"])
        before = search_topk(index, query, 10)
        assert before == reference_search_topk(reference_build_index(corpus, ["d1"]), query, 10)
        build_index(corpus, ["d3", "d2"], index)
        assert (index.doc_count, index.avgdl) == (3, 2.0)
        after = search_topk(index, query, 10)
        assert after == reference_search_topk(reference_build_index(corpus, corpus), query, 10)
        assert [d for d, _ in after] == ["d1", "d3", "d2"]
        assert after[0][1] != before[0][1]


def _grown(corpus, order, cuts):
    """Grow one index by a build_index step per segment; yield it after each."""
    index = None
    for segment in _segments(order, cuts):
        index = build_index(corpus, segment, index)
        yield index


def _assert_ranks_like_oracle(index, queries):
    for terms in queries:
        for k in (1, 3, 100):
            got, expected = search_topk(index, terms, k), reference_search_topk(index, terms, k)
            assert [d for d, _ in got] == [d for d, _ in expected]
            assert [s.hex() for _, s in got] == [s.hex() for _, s in expected]  # bit-equal


class TestRankingMatchesOracle:
    """search_topk ranks a grown index as the per-query oracle does, scores bit-equal.
    Growth steps enter pages out of doc_id order, so the order in which search_topk
    numbers the posted docs is not doc_id order. A failure is reported unshrunk:
    shrinking examples this large takes minutes."""

    NO_SHRINK = (Phase.explicit, Phase.generate)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None, phases=NO_SHRINK)
    @given(
        n_pages=st.integers(1, 160),
        seed=st.integers(0, 2**32 - 1),
        queries=st.lists(st.lists(st.sampled_from("abcdy"), min_size=1, max_size=5), min_size=1),
    )
    def test_tie_heavy(self, n_pages, seed, queries):
        # every page has 8 tokens and tf <= 2 of each query term, so many docs tie at the k-th
        rng = np.random.default_rng(seed)
        texts = {}
        for i, counts in enumerate(rng.integers(0, 3, size=(n_pages, 4)).tolist()):
            words = [term for term, tf in zip("abcd", counts) for _ in range(tf)]
            texts[f"d{i}"] = " ".join(words + ["z"] * (8 - len(words)))
        order = [f"d{i}" for i in rng.permutation(n_pages)]
        cuts = (rng.random(n_pages) < 0.2).tolist()
        for index in _grown(_corpus(texts), order, cuts):
            _assert_ranks_like_oracle(index, queries)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None, phases=NO_SHRINK)
    @given(
        postings=st.lists(
            st.dictionaries(st.integers(0, 39), st.integers(1, 3), min_size=1, max_size=10),
            min_size=1,
            max_size=12,
        ),
        data=st.data(),
    )
    def test_short_postings(self, postings, data):
        # term j is posted on 1-10 of 40 pages: searches touch a few postings each
        words = {}
        for j, posting in enumerate(postings):
            for page, tf in posting.items():
                words.setdefault(f"p{page}", []).extend([f"t{j}"] * tf)
        corpus = _corpus({doc_id: " ".join(terms) for doc_id, terms in words.items()})
        order = data.draw(st.permutations(sorted(corpus)))
        cuts = data.draw(st.lists(st.booleans(), min_size=len(order), max_size=len(order)))
        vocab = [f"t{j}" for j in range(len(postings) + 1)]
        query = st.lists(st.sampled_from(vocab), min_size=1, max_size=4)
        queries = data.draw(st.lists(query, min_size=1, max_size=4))
        for index in _grown(corpus, order, cuts):
            _assert_ranks_like_oracle(index, queries)


class TestRecall:
    QRELS = {"q1": {"r1": 1, "r2": 2, "skip": 0}}

    def test_full_recall(self):
        ranked = [("r1", 2.0), ("r2", 1.0)]
        assert recall_at_k(ranked, self.QRELS, "q1", 10) == 1.0

    def test_zero_recall(self):
        assert recall_at_k([("x", 1.0)], self.QRELS, "q1", 10) == 0.0

    def test_half_recall(self):
        assert recall_at_k([("r1", 1.0)], self.QRELS, "q1", 10) == 0.5

    def test_denominator_counts_uncrawled_relevant(self):
        # only r1 was retrievable, r2 never crawled: still divides by 2
        assert recall_at_k([("r1", 1.0), ("x", 0.5)], self.QRELS, "q1", 10) == 0.5

    def test_skipped_query(self):
        with pytest.raises(SkippedQuery):
            recall_at_k([("r1", 1.0)], {"q1": {"r1": 0}}, "q1", 10)

    def test_monotone_in_k(self):
        ranked = [(f"d{i}", 10.0 - i) for i in range(10)]
        qrels = {"q": {"d2": 1, "d5": 1, "d9": 1, "elsewhere": 1}}
        values = [recall_at_k(ranked, qrels, "q", k) for k in range(1, 12)]
        assert all(b >= a for a, b in zip(values, values[1:]))


class TestTTest:
    def test_identical_lists_not_significant(self):
        scores = {"s1": [0.1, 0.2, 0.3], "s2": [0.1, 0.2, 0.3]}
        res = paired_t_test_bonferroni(scores, alpha=0.01)[("s1", "s2")]
        assert res.t_stat == 0.0
        assert res.p_corrected == 1.0
        assert not res.significant

    def test_two_strategies_no_correction(self):
        scores = {"s1": [0.9, 0.8, 0.7, 0.9], "s2": [0.1, 0.3, 0.2, 0.1]}
        res = paired_t_test_bonferroni(scores, alpha=0.01)[("s1", "s2")]
        assert res.p_corrected == res.p_raw

    def test_correction_multiplies_by_pair_count(self):
        scores = {
            "s1": [0.9, 0.8, 0.7, 0.95],
            "s2": [0.1, 0.3, 0.2, 0.15],
            "s3": [0.5, 0.45, 0.55, 0.5],
        }
        results = paired_t_test_bonferroni(scores, alpha=0.01)
        assert len(results) == 3
        for res in results.values():
            assert res.p_corrected == min(1.0, res.p_raw * 3)

    def test_constant_nonzero_differences(self):
        scores = {"s1": [2.0, 2.0, 2.0, 2.0], "s2": [1.0, 1.0, 1.0, 1.0]}
        res = paired_t_test_bonferroni(scores, alpha=0.01)[("s1", "s2")]
        assert math.isinf(res.t_stat) and res.t_stat > 0
        assert res.p_raw == 0.0
        assert res.significant

    def test_symmetry_under_order_swap(self):
        a = [0.3, 0.5, 0.1, 0.9, 0.6]
        b = [0.2, 0.55, 0.3, 0.4, 0.5]
        p_ab = paired_t_test_bonferroni({"a": a, "b": b})[("a", "b")].p_raw
        p_ba = paired_t_test_bonferroni({"a": b, "b": a})[("a", "b")].p_raw
        assert p_ab == pytest.approx(p_ba, abs=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            paired_t_test_bonferroni({"a": [1.0, 2.0], "b": [1.0]})

    def test_needs_two_strategies_and_two_samples(self):
        with pytest.raises(ValueError):
            paired_t_test_bonferroni({"a": [1.0, 2.0]})
        with pytest.raises(ValueError):
            paired_t_test_bonferroni({"a": [1.0], "b": [2.0]})

    def test_p_value_against_simpson_oracle(self):
        for df in (1, 2, 5, 9, 30):
            for t in (0.0, 0.5, 1.3, 2.7, 8.0):
                assert t_p_value(t, df) == pytest.approx(
                    student_t_two_sided_p(t, df), abs=1e-10
                )


class TestFileLoaders:
    def test_queries(self, tmp_path):
        path = tmp_path / "q.tsv"
        path.write_text("q1\thello world\nq2\ttabs\tstay in text\n")
        queries = load_queries(str(path))
        assert queries == {"q1": "hello world", "q2": "tabs\tstay in text"}

    @pytest.mark.parametrize("line", ["q1 \thello", " q1\thello", "q 1\thello"])
    def test_queries_id_with_whitespace(self, tmp_path, line):
        # a qrels id is whitespace-split, so it could never match this query
        path = tmp_path / "q.tsv"
        path.write_text(f"q0\tfine\n{line}\n")
        with pytest.raises(CorpusFormatError, match=rf"^{re.escape(str(path))}:2: query_id"):
            load_queries(str(path))

    def test_queries_duplicate_id(self, tmp_path):
        path = tmp_path / "q.tsv"
        path.write_text("q1\ta\nq1\tb\n")
        with pytest.raises(CorpusFormatError, match="duplicate"):
            load_queries(str(path))

    def test_qrels_trec_layout(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("q1 0 d1 1\nq1 0 d2 0\nq2 0 d1 2\n")
        qrels = load_qrels(str(path))
        assert qrels == {"q1": {"d1": 1, "d2": 0}, "q2": {"d1": 2}}

    def test_qrels_duplicate_pair(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("q1 0 d1 1\nq1 0 d1 1\n")
        with pytest.raises(CorpusFormatError, match="duplicate"):
            load_qrels(str(path))

    def test_qrels_bad_grade(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("q1 0 d1 x\n")
        with pytest.raises(CorpusFormatError):
            load_qrels(str(path))


class TestEvaluateCheckpoints:
    def _setup(self):
        rows, queries, qrels, seeds = synthetic_corpus(
            n_nodes=240, n_queries=8, rel_per_query=2, n_seeds=12, rng_seed=21
        )
        corpus, graph, _ = build_corpus(rows)
        scores = dict(score_batch(list(corpus.values())))
        traces = {}
        for strategy in ("bfs", "dfs", "qoracle"):
            traces[strategy] = run_crawl(
                graph, seeds, strategy, budget=240, checkpoint_interval=24,
                scores=scores if strategy == "qoracle" else None,
            )
        return corpus, traces, queries, qrels

    def test_single_strategy_no_significance(self):
        corpus, traces, queries, qrels = self._setup()
        report = evaluate_checkpoints(corpus, {"bfs": traces["bfs"]}, queries, qrels, k=100)
        assert report.significance_rows == []
        assert {row.strategy for row in report.recall_rows} == {"bfs"}

    def test_full_graph_checkpoint_equal_across_strategies(self):
        corpus, traces, queries, qrels = self._setup()
        report = evaluate_checkpoints(corpus, traces, queries, qrels, k=100)
        final = max(r.checkpoint for r in report.recall_rows)
        finals = {r.strategy: r.mean_recall for r in report.recall_rows if r.checkpoint == final}
        assert len(set(finals.values())) == 1

    def test_planted_graph_qoracle_leads_early(self):
        corpus, traces, queries, qrels = self._setup()
        report = evaluate_checkpoints(corpus, traces, queries, qrels, k=100)
        first = min(r.checkpoint for r in report.recall_rows)
        means = {r.strategy: r.mean_recall for r in report.recall_rows if r.checkpoint == first}
        assert means["qoracle"] >= means["bfs"]
        assert means["qoracle"] > means["dfs"]

    def test_no_common_checkpoints(self):
        corpus, traces, queries, qrels = self._setup()
        from qcrawl import CrawlTrace

        other = CrawlTrace(entries=traces["bfs"].entries[:5], checkpoint_ranks=[5])
        with pytest.raises(ValueError, match="common"):
            evaluate_checkpoints(
                corpus, {"bfs": traces["bfs"], "odd": other}, queries, qrels, k=100
            )

    def test_report_jsonl_shape(self):
        corpus, traces, queries, qrels = self._setup()
        report = evaluate_checkpoints(corpus, traces, queries, qrels, k=100)
        import json

        lines = report.to_jsonl().strip().split("\n")
        objs = [json.loads(line) for line in lines]
        kinds = {o["type"] for o in objs}
        assert kinds == {"recall", "significance"}
        n_checkpoints = len({o["checkpoint"] for o in objs if o["type"] == "recall"})
        assert sum(o["type"] == "recall" for o in objs) == 3 * n_checkpoints
        assert sum(o["type"] == "significance" for o in objs) == 3 * n_checkpoints

    def test_index_is_freed_before_the_t_tests(self, monkeypatch):
        # the recall phase returns only rows and scores, so scipy loads into freed memory
        corpus, traces, queries, qrels = self._setup()
        t_test, calls = retrieval.paired_t_test_bonferroni, []

        def indexes():
            return {id(o) for o in gc.get_objects() if isinstance(o, InvertedIndex)}

        alive = indexes()  # held by earlier tests, if any

        def checked(*args, **kwargs):
            if not calls:
                assert indexes() <= alive
            calls.append(1)
            return t_test(*args, **kwargs)

        monkeypatch.setattr(retrieval, "paired_t_test_bonferroni", checked)
        report = evaluate_checkpoints(corpus, traces, queries, qrels, k=100)
        assert calls and report.significance_rows

    def test_duplicate_doc_id_in_trace(self):
        corpus, traces, queries, qrels = self._setup()
        entries = traces["bfs"].entries[:4]
        doubled = CrawlTrace(entries=entries + [(5, entries[1][1], None)], checkpoint_ranks=[5])
        with pytest.raises(ValueError, match="twice"):
            evaluate_checkpoints(corpus, {"bfs": doubled}, queries, qrels, k=100)


def _assert_growth_matches_rebuild(corpus, segments):
    """Grow one index by a build_index step per segment. After each step it
    equals the index built from scratch over the union so far, or both fail
    alike at that segment."""
    index, union = None, []
    for segment in segments:
        union += segment
        try:
            expected = reference_build_index(corpus, union)
        except (QCrawlError, ValueError) as exc:
            expected = (type(exc), str(exc))
        try:
            index = build_index(corpus, segment, index)
        except (QCrawlError, ValueError) as exc:
            assert (type(exc), str(exc)) == expected
            return
        assert index == expected


class TestGrowthStep:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(
        texts=st.lists(st.text(alphabet="ab -", max_size=6), min_size=1, max_size=10),
        data=st.data(),
    )
    def test_grown_index_equals_rebuild(self, texts, data):
        corpus = _corpus({f"d{i}": text for i, text in enumerate(texts)})
        ids = data.draw(st.lists(st.sampled_from([*corpus, "ghost"]), min_size=1, unique=True))
        cuts = data.draw(st.lists(st.booleans(), min_size=len(ids), max_size=len(ids)))
        _assert_growth_matches_rebuild(corpus, _segments(ids, cuts))

    def test_term_counts_decides_postings(self):
        corpus = _corpus({"d1": "a b", "d2": "b c c"})
        index = build_index(corpus, ["d2", "d1"], term_counts=lambda d: (5, {"z": 1}))
        assert index.postings == {"z": {"d1": 1, "d2": 1}}
        assert index.doc_lengths == {"d1": 5, "d2": 5}
        assert (index.doc_count, index.avgdl) == (2, 5.0)


def _two_steps(corpus, traces, queries, qrels, k=100, alpha=0.01):
    """evaluate_checkpoints as qcrawl eval runs it: the recall step's rows
    are all that reaches the significance step."""
    recall_rows = retrieval.evaluate_recall(corpus, traces, queries, qrels, k)
    return retrieval.evaluate_significance(recall_rows, k, alpha)


def _outcome(evaluate, *args, **kwargs):
    """Report bytes on success, (exception type, message) on a failure."""
    try:
        return evaluate(*args, **kwargs).to_jsonl().encode("utf-8")
    except (QCrawlError, ValueError) as exc:
        return type(exc), str(exc)


class TestIncrementalMatchesRebuild:
    """evaluate_checkpoints grows one index along each trace; the oracle
    rebuilds one per (strategy, checkpoint). Reports must be byte-equal."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        rng_seed=st.integers(0, 2**32 - 1),
        n_nodes=st.integers(16, 60),
        interval=st.integers(2, 12),
        budget_frac=st.floats(0.2, 1.0),
        zero_frac=st.sampled_from([0.0, 0.05, 0.2, 0.5]),
    )
    def test_random_graphs_report_bytes_equal(
        self, rng_seed, n_nodes, interval, budget_frac, zero_frac
    ):
        rows, queries, qrels, seeds = synthetic_corpus(
            n_nodes=n_nodes, n_queries=4, rel_per_query=2, n_seeds=3, rng_seed=rng_seed
        )
        corpus, graph, _ = build_corpus(rows)
        scores = dict(score_batch(list(corpus.values())))
        rng = np.random.default_rng(rng_seed)
        ids = sorted(corpus)
        # a query over filler terms: many partial matches with varied tf
        picked = rng.choice(len(ids), size=3, replace=False)
        queries["qmix"] = " ".join(tokenize(corpus[ids[i]].text)[0] for i in picked)
        qrels["qmix"] = {ids[i]: 1 for i in picked[:2]}
        # zero-token pages: empty or punctuation-only text
        blank = rng.random(len(ids)) < zero_frac
        rows = [
            dict(row, text=("" if i % 2 else "-- !!")) if blank[i] else row
            for i, row in enumerate(rows)
        ]
        corpus, _, _ = build_corpus(rows)
        budget = max(1, int(budget_frac * n_nodes))
        traces = {
            strategy: run_crawl(
                graph, seeds, strategy, budget=budget, checkpoint_interval=interval,
                scores=scores if strategy == "qoracle" else None,
            )
            for strategy in ("bfs", "dfs", "qoracle")
        }
        args = (corpus, traces, queries, qrels)
        for k in (1, 5, 100):
            expected = _outcome(reference_evaluate_checkpoints, *args, k=k)
            assert _outcome(evaluate_checkpoints, *args, k=k) == expected
            assert _outcome(_two_steps, *args, k=k) == expected

        # Recall hides score changes that keep the top k; compare the grown indexes
        for trace in traces.values():
            ranks = trace.checkpoint_ranks
            doc_ids = [d for _, d, _ in trace.entries]
            _assert_growth_matches_rebuild(
                corpus, [doc_ids[start:end] for start, end in zip([0] + ranks, ranks)]
            )

    def _hand_case(self, texts, order, checkpoints):
        corpus = _corpus(texts)
        trace = CrawlTrace(
            entries=[(r, d, None) for r, d in enumerate(order, start=1)],
            checkpoint_ranks=checkpoints,
        )
        queries = {"q1": "a b", "q2": "c"}
        qrels = {"q1": {"d1": 1}, "q2": {"d3": 1}}
        args = (corpus, {"bfs": trace, "dfs": trace}, queries, qrels)
        expected = _outcome(reference_evaluate_checkpoints, *args)
        return expected, _outcome(evaluate_checkpoints, *args)

    def test_unknown_doc_parity(self):
        texts = {"d1": "a b", "d2": "c", "d3": "a c"}
        # both unknown pages enter in the second segment; the first in sorted order is named
        expected, got = self._hand_case(texts, ["d1", "d2", "zz", "yy", "d3"], [2, 4, 5])
        assert expected == (UnknownDoc, "doc_id not in corpus: 'yy'")
        assert got == expected

    def test_all_zero_token_prefix_parity(self):
        texts = {"d1": "", "d2": "--", "d3": "a c"}
        expected, got = self._hand_case(texts, ["d1", "d2", "d3"], [2, 3])
        assert expected == (ValueError, "every document in the index has zero tokens")
        assert got == expected

    def test_checkpoint_out_of_range_parity(self):
        texts = {"d1": "a b", "d2": "c", "d3": "a c"}
        for checkpoints in ([0, 2], [2, 4]):
            expected, got = self._hand_case(texts, ["d1", "d2", "d3"], checkpoints)
            assert expected[0] is ValueError and "out of range" in expected[1]
            assert got == expected

    def test_k_below_one_is_rejected_before_any_page_is_tokenised(self, monkeypatch):
        corpus = _corpus({"d1": "a b", "d2": "c", "d3": "a c"})
        # the first segment holds an unknown page: building its index would fail first
        trace = CrawlTrace(entries=[(1, "zz", None), (2, "d1", None)], checkpoint_ranks=[1, 2])
        queries, qrels = {"q1": "a b"}, {"q1": {"d1": 1}}
        tokenised = []
        monkeypatch.setattr(retrieval, "tokenize", lambda text: tokenised.append(text) or [])
        with pytest.raises(ValueError, match=r"^k must be >= 1$"):
            evaluate_checkpoints(corpus, {"bfs": trace}, queries, qrels, k=0)
        assert tokenised == []
        # the checks on the traces and qrels still come first
        with pytest.raises(ValueError, match="no query has judged-relevant documents"):
            evaluate_checkpoints(corpus, {"bfs": trace}, queries, {}, k=0)
        monkeypatch.undo()
        with pytest.raises(UnknownDoc):
            evaluate_checkpoints(corpus, {"bfs": trace}, queries, qrels, k=1)

    def test_zero_token_pages_and_unmatched_pages(self):
        texts = {"d1": "", "d2": "x y z", "d3": "a c", "d4": "!!", "d1x": "b b a"}
        expected, got = self._hand_case(texts, ["d2", "d1", "d4", "d3", "d1x"], [1, 3, 4, 5])
        assert isinstance(expected, bytes)
        assert got == expected
