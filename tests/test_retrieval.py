import json
import math
import re
from itertools import accumulate
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from qcrawl import (
    CorpusFormatError,
    CrawlTrace,
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
    """Split ``order`` into segments, a new one where ``cuts`` is true."""
    segments = []
    for doc_id, cut in zip(order, cuts):
        if cut or not segments:
            segments.append([])
        segments[-1].append(doc_id)
    return segments


def _tie_heavy_texts(rng, n_pages):
    """Pages d0.. of 8 tokens, each with tf <= 2 of a, b, c and d: many docs tie at the k-th."""
    texts = {}
    for i, counts in enumerate(rng.integers(0, 3, size=(n_pages, 4)).tolist()):
        words = [term for term, tf in zip("abcd", counts) for _ in range(tf)]
        texts[f"d{i}"] = " ".join(words + ["z"] * (8 - len(words)))
    return texts


def _corpus(texts):
    rows = [{"doc_id": d, "url": None, "text": t, "outlinks": []} for d, t in texts.items()]
    corpus, _, _ = build_corpus(rows)
    return corpus


def _crawled(order, checkpoints):
    """A trace that crawled ``order`` with the given checkpoint ranks."""
    entries = [(rank, doc_id, None) for rank, doc_id in enumerate(order, start=1)]
    return CrawlTrace(entries=entries, checkpoint_ranks=checkpoints)


# TestEvalArguments, TestReportRows and TestFileLoaders come first, so that
# tests/mutants.py's mutants of eval's checks, the report rows and the loaders' checks fail
# before any slow property runs
class TestEvalArguments:
    def test_k_below_one(self):
        corpus = _corpus({"d1": "a b"})
        trace = CrawlTrace(entries=[(1, "d1", None)], checkpoint_ranks=[1])
        with pytest.raises(ValueError, match=r"^k must be >= 1$"):
            retrieval.evaluate_recall(corpus, {"bfs": trace}, {"q1": "a"}, {"q1": {"d1": 1}}, k=0)

    def test_no_traces(self):
        with pytest.raises(ValueError, match=r"^need at least one trace$"):
            retrieval.evaluate_recall(_corpus({"d1": "a"}), {}, {"q1": "a"}, {"q1": {"d1": 1}})

    def test_the_smallest_unknown_page_is_named(self):
        # zz and yy enter at the second checkpoint; a full build adds yy first
        trace = _crawled(["d1", "zz", "yy"], [1, 3])
        with pytest.raises(UnknownDoc, match=r"^doc_id not in corpus: 'yy'$"):
            retrieval.evaluate_recall(_corpus({"d1": "a"}), {"bfs": trace}, {"q1": "a"},
                                      {"q1": {"d1": 1}})

    def test_a_prefix_of_zero_token_pages(self):
        trace = _crawled(["d1", "d2"], [1, 2])
        with pytest.raises(ValueError, match=r"^every document in the index has zero tokens$"):
            retrieval.evaluate_recall(_corpus({"d1": "--", "d2": "a"}), {"bfs": trace},
                                      {"q1": "a"}, {"q1": {"d2": 1}})

    def test_t_p_value_needs_a_degree_of_freedom(self):
        assert t_p_value(0.0, 1) == 1.0
        with pytest.raises(ValueError, match=r"^degrees of freedom must be >= 1$"):
            t_p_value(0.0, 0)


class TestReportRows:
    """Each report row holds its dataclass's fields, plus type and k or alpha."""

    def _objects(self):
        rows = [
            retrieval.RecallRow("a", 4, {"q1": 1.0, "q2": 1.0}, 1.0),
            retrieval.RecallRow("b", 4, {"q1": 0.5, "q2": 0.5}, 0.5),  # a - b is constant
            retrieval.RecallRow("c", 4, {"q1": 0.0, "q2": 0.5}, 0.25),
        ]
        report = retrieval.evaluate_significance(rows, k=10, alpha=0.05)
        return [json.loads(line) for line in report.to_jsonl().splitlines()]

    def test_keys(self):
        objs = self._objects()
        assert [o["type"] for o in objs] == ["recall"] * 3 + ["significance"] * 3
        for obj in objs[:3]:
            assert set(obj) == {"type", "strategy", "checkpoint", "k", "mean_recall", "per_query"}
            assert obj["k"] == 10
        for obj in objs[3:]:
            assert set(obj) == {
                "type", "checkpoint", "pair", "t_stat", "t_infinite", "p_raw", "p_corrected",
                "alpha", "significant",
            }
            assert obj["alpha"] == 0.05

    def test_constant_nonzero_difference_is_an_infinite_t(self):
        by_pair = {tuple(o["pair"]): o for o in self._objects() if o["type"] == "significance"}
        infinite = by_pair[("a", "b")]
        assert (infinite["t_stat"], infinite["t_infinite"], infinite["p_raw"]) == (None, True, 0.0)
        for pair in (("a", "c"), ("b", "c")):
            assert by_pair[pair]["t_infinite"] is False
            assert math.isfinite(by_pair[pair]["t_stat"])


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

    def test_qrels_negative_grade_names_its_line(self, tmp_path):
        path = tmp_path / "qrels.txt"
        path.write_text("q1 0 d1 1\nq1 0 d2 -1\n")
        expected = rf"^{re.escape(str(path))}:2: grade must be >= 0$"
        with pytest.raises(CorpusFormatError, match=expected):
            load_qrels(str(path))


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
        assert search_topk(index, ["a"], 10) == reference_search_topk(index, ["a"], 10)

    def test_empty_doc_ids_error(self):
        with pytest.raises(ValueError):
            build_index(_corpus({"d": "a"}), set())

    def test_the_smallest_unknown_doc_id_is_named(self):
        with pytest.raises(UnknownDoc, match="'ghost1'"):
            build_index(_corpus({"d": "a"}), ["d", "ghost2", "ghost1"])

    def test_unknown_doc_id(self):
        with pytest.raises(UnknownDoc):
            build_index(_corpus({"d": "a"}), {"d", "ghost"})

    def test_every_doc_with_zero_tokens_error(self):
        corpus = _corpus({"d1": "", "d2": "-- !!"})
        with pytest.raises(ValueError, match=r"^every document in the index has zero tokens$"):
            build_index(corpus, {"d1", "d2"})
        with pytest.raises(UnknownDoc, match="'ghost'"):  # an unknown doc_id is named first
            build_index(corpus, {"d1", "d2", "ghost"})


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


class TestEvalIndexStates:
    """Each index state that evaluate_recall scores sums every matched doc's BM25
    weights to the score that the oracle gives over an index built from scratch on
    the prefix, bit for bit, and each distinct state is scored once."""

    def test_every_state_scores_like_the_oracle(self):
        rng = np.random.default_rng(7)
        words = list("abcdez")
        texts = {f"d{i}": " ".join(rng.choice(words, rng.integers(1, 12))) for i in range(40)}
        corpus, order = _corpus(texts), [f"d{i}" for i in rng.permutation(40)]
        traces = {name: _crawled(pages, [10, 20, 30]) for name, pages in
                  (("bfs", order[:30]), ("dfs", order[10:]))}
        queries = {"q1": "a b c", "q2": "e d c b", "q3": "c a e", "q4": "y", "q5": "a"}
        qrels = {qid: {"d1": 1} for qid in queries}
        blocks_of_states = []
        sums, found_counts = retrieval._sums, retrieval._found_counts

        def counting(*args):
            blocks_of_states.append([])
            return found_counts(*args)

        def summing(*args):
            keys, scores, order = sums(*args)
            blocks_of_states[-1].append((keys.tolist(), scores.tolist()))
            return keys, scores, order

        with mock.patch.multiple(retrieval, _sums=summing, _found_counts=counting):
            retrieval.evaluate_recall(corpus, traces, queries, qrels, 5)
        # keys are query row * n + doc, both numbered in order: eval's query ids and pages
        qids, pages = sorted(queries), sorted(set(order[:30] + order[10:]))
        prefixes = {frozenset(t.doc_ids()[:c]): None for t in traces.values() for c in (10, 20, 30)}
        assert len(blocks_of_states) == len(prefixes)
        for prefix, blocks in zip(prefixes, blocks_of_states):
            index = reference_build_index(corpus, prefix)
            got = {
                (qids[key // len(pages)], pages[key % len(pages)]): score
                for keys, scores in blocks
                for key, score in zip(keys, scores)
            }
            expected = {
                (qid, doc_id): score
                for qid, text in queries.items()
                for doc_id, score in reference_search_topk(index, text.split(), len(prefix))
            }
            assert got == expected


class TestRecallAtTheCut:
    """evaluate_recall counts each query's relevant docs against the k-th score
    and ranks no list; its rows must equal those of the oracle, which ranks every
    prefix from scratch. Tie-heavy pages make the doc_id tie rule decide."""

    NO_SHRINK = (Phase.explicit, Phase.generate)

    @settings(max_examples=80, deadline=None, derandomize=True, database=None, phases=NO_SHRINK)
    @given(
        n_pages=st.integers(1, 160),
        seed=st.integers(0, 2**32 - 1),
        queries=st.lists(st.lists(st.sampled_from("abcdy"), min_size=1, max_size=5), min_size=1),
        k=st.sampled_from([1, 3, 100]),
    )
    def test_tie_heavy_rows_equal_the_oracle(self, n_pages, seed, queries, k):
        rng = np.random.default_rng(seed)
        texts = _tie_heavy_texts(rng, n_pages)
        corpus = _corpus(texts)
        order = [f"d{i}" for i in rng.permutation(n_pages)]
        crawled = order[: rng.integers(1, n_pages + 1)]
        cuts = (rng.random(len(crawled)) < 0.2).tolist()
        checkpoints = list(accumulate(map(len, _segments(crawled, cuts))))
        # the qrels: docs that tie at the k-th score of one checkpoint's prefix, a few
        # other crawled pages, pages that were never crawled and an id that is no page
        at = checkpoints[rng.integers(len(checkpoints))]
        index = reference_build_index(corpus, crawled[:at])
        query_texts, qrels = {}, {}
        for i, terms in enumerate(queries):
            ranked = reference_search_topk(index, terms, n_pages)
            kth = ranked[min(k, len(ranked)) - 1][1] if ranked else None
            tied = [doc_id for doc_id, score in ranked if score == kth]
            picked = [d for d in tied + order[len(crawled):] if rng.random() < 0.5]
            picked += [d for d in crawled if rng.random() < 0.1] + ["nowhere"]
            query_texts[f"q{i}"] = " ".join(terms)
            qrels[f"q{i}"] = dict.fromkeys(picked, 1)
        traces = {"bfs": _crawled(crawled, checkpoints)}
        expected = reference_evaluate_checkpoints(corpus, traces, query_texts, qrels, k)
        assert retrieval.evaluate_recall(corpus, traces, query_texts, qrels, k) == (
            expected.recall_rows
        )

    @settings(max_examples=60, deadline=None, derandomize=True, database=None, phases=NO_SHRINK)
    @given(
        n_pages=st.integers(1, 60),
        seed=st.integers(0, 2**32 - 1),
        queries=st.lists(st.lists(st.sampled_from("abcdy"), min_size=1, max_size=4), max_size=12),
        k=st.sampled_from([1, 3, 100]),
        block=st.sampled_from([1, 5, retrieval.BLOCK]),
    )
    def test_strategies_and_blocks_rows_equal_the_oracle(self, n_pages, seed, queries, k, block):
        # "same" crawls each checkpoint segment of "base" in another order, so both hold the
        # same pages at every checkpoint and each such state is scored once; "other" crawls
        # its own pages, some of which no other strategy reaches
        rng = np.random.default_rng(seed)
        corpus = _corpus(_tie_heavy_texts(rng, n_pages))
        order = [f"d{i}" for i in rng.permutation(n_pages)]
        crawled = order[: rng.integers(1, n_pages + 1)]
        segments = _segments(crawled, (rng.random(len(crawled)) < 0.3).tolist())
        checkpoints = list(accumulate(map(len, segments)))
        shuffled = [d for segment in segments for d in rng.permutation(segment).tolist()]
        other = [f"d{i}" for i in rng.permutation(n_pages)][: len(crawled)]
        traces = {
            name: _crawled(pages, checkpoints)
            for name, pages in (("base", crawled), ("same", shuffled), ("other", other))
        }
        # the qrels: random pages, a page only "other" crawls, and an id that is no page;
        # "y" is on no page, so the last query matches none
        query_texts = {f"q{i}": " ".join(terms) for i, terms in enumerate(queries + [["y"]])}
        only_other = sorted(set(other) - set(crawled))[:1]
        qrels = {
            qid: dict.fromkeys([d for d in order if rng.random() < 0.3] + only_other, 1)
            | {"nowhere": 1}
            for qid in query_texts
        }
        expected = reference_evaluate_checkpoints(corpus, traces, query_texts, qrels, k)
        found_counts = mock.Mock(wraps=retrieval._found_counts)
        with mock.patch.multiple(retrieval, BLOCK=block, _found_counts=found_counts):
            rows = retrieval.evaluate_recall(corpus, traces, query_texts, qrels, k)
        assert repr(rows) == repr(expected.recall_rows)  # float reprs round-trip: bit for bit
        states = {frozenset(pages[:c]) for pages in (crawled, other) for c in checkpoints}
        assert found_counts.call_count == len(states)

    # d1, d2 and d3 tie on "a"; d1 enters last, so a tie goes to it by doc_id, not by entry.
    # d4 is posted for "b" before any page holds "a"; d5 outscores the ties on "a".
    TEXTS = {"d1": "a z", "d2": "a z", "d3": "a z", "d4": "b z", "d5": "a a"}

    @pytest.mark.parametrize(
        "order, checkpoints, relevant, k, recall",
        [
            # a tied relevant doc is in by doc_id: the smallest tied doc_id takes the one slot
            (["d2", "d3", "d1"], [2, 3], "d1", 1, [0.0, 1.0]),
            # and out by doc_id: d1 and d2 take the two slots
            (["d2", "d3", "d1"], [2, 3], "d3", 2, [1.0, 0.0]),
            # k or fewer docs match: each is in, and a posted doc that no query term hits is not
            (["d4", "d2"], [1, 2], "d4", 10, [0.0, 0.0]),
            # one doc more than k matches: the relevant doc is the one left out
            (["d5", "d2"], [1, 2], "d2", 1, [0.0, 0.0]),
        ],
    )
    def test_hand_cases(self, order, checkpoints, relevant, k, recall):
        corpus, traces = _corpus(self.TEXTS), {"bfs": _crawled(order, checkpoints)}
        queries, qrels = {"q": "a", "qb": "b"}, {"q": {relevant: 1}, "qb": {"d4": 1}}
        rows = retrieval.evaluate_recall(corpus, traces, queries, qrels, k)
        assert [row.per_query["q"] for row in rows] == recall
        assert rows == reference_evaluate_checkpoints(corpus, traces, queries, qrels, k).recall_rows

    def test_every_posting_weight_is_positive(self):
        # so a doc is matched by a query exactly when its summed score is > 0; the
        # smallest weight: a term on every page, once, in by far the longest page
        texts = {f"d{i}": "a" for i in range(500)}
        texts["long"] = "a " + "z " * 5000
        index = build_index(_corpus(texts), texts)
        weights = [s for term in index.postings for _, s in search_topk(index, [term], 600)]
        assert len(weights) == 502 and min(weights) > 0


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


def _prefix_indexes(corpus, order, cuts):
    """An index built from scratch over each prefix of ``order`` that ends a segment."""
    prefix = []
    for segment in _segments(order, cuts):
        prefix += segment
        index = build_index(corpus, prefix)
        assert index == reference_build_index(corpus, prefix)
        yield index


def _assert_ranks_like_oracle(index, queries):
    for terms in queries:
        for k in (1, 3, 100):
            got, expected = search_topk(index, terms, k), reference_search_topk(index, terms, k)
            assert [d for d, _ in got] == [d for d, _ in expected]
            assert [s.hex() for _, s in got] == [s.hex() for _, s in expected]  # bit-equal


class TestRankingMatchesOracle:
    """search_topk ranks an index as the per-query oracle does, scores bit-equal. The
    indexes hold the prefixes of a random crawl order, and search_topk numbers only the
    docs that a query matches. A failure is reported unshrunk: shrinking examples this
    large takes minutes."""

    NO_SHRINK = (Phase.explicit, Phase.generate)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None, phases=NO_SHRINK)
    @given(
        n_pages=st.integers(1, 160),
        seed=st.integers(0, 2**32 - 1),
        queries=st.lists(st.lists(st.sampled_from("abcdy"), min_size=1, max_size=5), min_size=1),
    )
    def test_tie_heavy(self, n_pages, seed, queries):
        rng = np.random.default_rng(seed)
        texts = _tie_heavy_texts(rng, n_pages)
        order = [f"d{i}" for i in rng.permutation(n_pages)]
        cuts = (rng.random(n_pages) < 0.2).tolist()
        for index in _prefix_indexes(_corpus(texts), order, cuts):
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
        for index in _prefix_indexes(corpus, order, cuts):
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

    @pytest.mark.parametrize("df", [1, 2, 5, 59, 799, 10**6])
    def test_p_value_at_infinite_t_is_zero(self, df):
        assert t_p_value(math.inf, df) == 0.0
        assert t_p_value(-math.inf, df) == 0.0

    def test_p_value_against_simpson_oracle(self):
        for df in (1, 2, 5, 9, 30):
            for t in (0.0, 0.5, 1.3, 2.7, 8.0):
                assert t_p_value(t, df) == pytest.approx(
                    student_t_two_sided_p(t, df), abs=1e-10
                )


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
        lines = report.to_jsonl().strip().split("\n")
        objs = [json.loads(line) for line in lines]
        kinds = {o["type"] for o in objs}
        assert kinds == {"recall", "significance"}
        n_checkpoints = len({o["checkpoint"] for o in objs if o["type"] == "recall"})
        assert sum(o["type"] == "recall" for o in objs) == 3 * n_checkpoints
        assert sum(o["type"] == "significance" for o in objs) == 3 * n_checkpoints

    def test_duplicate_doc_id_in_trace(self):
        corpus, traces, queries, qrels = self._setup()
        entries = traces["bfs"].entries[:4]
        doubled = CrawlTrace(entries=entries + [(5, entries[1][1], None)], checkpoint_ranks=[5])
        with pytest.raises(ValueError, match="twice"):
            evaluate_checkpoints(corpus, {"bfs": doubled}, queries, qrels, k=100)


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
    """evaluate_checkpoints grows postings arrays along each trace; the oracle
    rebuilds an index per (strategy, checkpoint). Reports must be byte-equal."""

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
