import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import jensenshannon

from qcrawl import (
    MissingScore,
    UndefinedCorrelation,
    ZeroWidth,
    build_corpus,
    correlation_study,
    hexbin,
    histogram,
    js_distance,
    ols_regression,
    pearson,
    quartiles,
    split_by_relevance,
    undersample,
)

from oracles import hexbin_full_scan


class TestArgumentChecks:
    """Each function's own argument checks; first in the file, so that tests/mutants.py's
    mutants of them fail before any slow property runs."""

    @pytest.mark.parametrize("fit", [pearson, ols_regression])
    def test_series_of_unequal_length(self, fit):
        with pytest.raises(ValueError, match="^series must have equal length$"):
            fit([1.0, 2.0, 3.0], [1.0, 2.0])

    @pytest.mark.parametrize("fit", [pearson, ols_regression])
    def test_series_of_one_sample(self, fit):
        with pytest.raises(ValueError, match="^need at least two samples$"):
            fit([1.0], [2.0])

    def test_hexbin_of_no_points(self):
        with pytest.raises(ValueError, match="^no points to bin$"):
            hexbin([], gridsize=5, min_count=1)

    def test_hexbin_gridsize_below_one(self):
        hexbin([(0.0, 0.0), (1.0, 1.0)], gridsize=1, min_count=1)
        with pytest.raises(ValueError, match="^gridsize must be >= 1$"):
            hexbin([(0.0, 0.0), (1.0, 1.0)], gridsize=0, min_count=1)

    def test_quartiles_of_nothing(self):
        with pytest.raises(ValueError, match="^no values$"):
            quartiles([])


class TestHistogram:
    def test_top_edge_inclusive(self):
        hist = histogram([0.0, 1.0], bins=2)
        assert hist.bin_edges == [0.0, 0.5, 1.0]
        assert hist.counts == [1, 1]

    def test_floor_assignment(self):
        hist = histogram([0, 0.25, 0.5, 0.75, 1], bins=2)
        assert hist.counts == [2, 3]

    def test_zero_width_error(self):
        with pytest.raises(ZeroWidth):
            histogram([3.0, 3.0, 3.0], bins=4)

    def test_explicit_range_filters(self):
        hist = histogram([-1.0, 0.1, 0.9, 2.0], bins=2, value_range=(0.0, 1.0))
        assert sum(hist.counts) == 2

    def test_single_value_with_explicit_range(self):
        hist = histogram([0.5], bins=5, value_range=(0.0, 1.0))
        assert sum(hist.counts) == 1

    def test_count_conservation(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            values = rng.normal(size=int(rng.integers(2, 500))).tolist()
            if min(values) == max(values):
                continue
            hist = histogram(values, bins=int(rng.integers(1, 40)))
            assert sum(hist.counts) == len(values)

    def test_validation(self):
        with pytest.raises(ValueError):
            histogram([], bins=3)
        with pytest.raises(ValueError):
            histogram([1.0, 2.0], bins=0)
        with pytest.raises(ValueError):
            histogram([1.0, 2.0], bins=3, value_range=(2.0, 2.0))


class TestJSDistance:
    def test_identity_is_exactly_zero(self):
        h = histogram([0, 0.3, 0.7, 1.0], bins=3)
        assert js_distance(h, h) == 0.0

    def test_disjoint_two_bin_is_one(self):
        h1 = histogram([0.1], bins=2, value_range=(0.0, 1.0))
        h2 = histogram([0.9], bins=2, value_range=(0.0, 1.0))
        assert h1.counts == [1, 0] and h2.counts == [0, 1]
        assert js_distance(h1, h2) == pytest.approx(1.0, abs=1e-12)

    def test_hand_derived_value(self):
        h1 = histogram([0.1, 0.9], bins=2, value_range=(0.0, 1.0))   # [1, 1]
        h2 = histogram([0.1], bins=2, value_range=(0.0, 1.0))        # [1, 0]
        # sqrt(0.5*(0.5*log2(0.5/0.75)+0.5*log2(0.5/0.25)) + 0.5*log2(1/0.75))
        assert js_distance(h1, h2) == pytest.approx(0.5579230452841438, abs=1e-12)

    def test_matches_scipy(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            bins = int(rng.integers(2, 20))
            h1 = histogram(rng.normal(size=200).tolist(), bins, value_range=(-4, 4))
            h2 = histogram(rng.normal(loc=1, size=150).tolist(), bins, value_range=(-4, 4))
            expected = jensenshannon(h1.counts, h2.counts, base=2)
            assert js_distance(h1, h2) == pytest.approx(float(expected), abs=1e-12)

    def test_symmetry_and_bounds(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            h1 = histogram(rng.uniform(size=50).tolist(), 8, value_range=(0, 1))
            h2 = histogram(rng.uniform(size=70).tolist(), 8, value_range=(0, 1))
            d12, d21 = js_distance(h1, h2), js_distance(h2, h1)
            assert d12 == d21
            assert 0.0 <= d12 <= 1.0

    def test_edge_mismatch_and_empty(self):
        h1 = histogram([0, 1], bins=2)
        h2 = histogram([0, 2], bins=2)
        with pytest.raises(ValueError):
            js_distance(h1, h2)
        h3 = histogram([5.0], bins=2, value_range=(0.0, 1.0))  # out of range: empty
        assert sum(h3.counts) == 0
        h4 = histogram([0.5], bins=2, value_range=(0.0, 1.0))
        with pytest.raises(ValueError):
            js_distance(h3, h4)


class TestUndersample:
    def test_equal_lengths_unchanged(self):
        a, b = [1.0, 2.0], [3.0, 4.0]
        assert undersample(a, b, 0) == (a, b)

    def test_shrinks_larger_to_smaller(self):
        a = list(range(10))
        b = [1.0, 2.0, 3.0]
        a2, b2 = undersample(a, b, 42)
        assert len(a2) == 3 and b2 == b
        assert set(a2) <= set(a)

    def test_other_side(self):
        a = [1.0]
        b = list(range(7))
        a2, b2 = undersample(a, b, 1)
        assert a2 == a and len(b2) == 1

    def test_seed_determinism(self):
        a = list(range(100))
        b = list(range(10))
        assert undersample(a, b, 7) == undersample(a, b, 7)
        assert undersample(a, b, 7) != undersample(a, b, 8)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            undersample([], [1.0], 0)


class TestPearson:
    def test_perfect_positive(self):
        assert pearson([1, 2, 3], [2, 4, 6]) == 1.0

    def test_perfect_negative(self):
        assert pearson([1, 2, 3], [-1, -2, -3]) == -1.0

    def test_constant_series(self):
        with pytest.raises(UndefinedCorrelation):
            pearson([1, 2, 3], [5, 5, 5])

    def test_matches_numpy(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            x = rng.normal(size=40)
            y = rng.normal(size=40) + 0.4 * x
            assert pearson(x, y) == pytest.approx(float(np.corrcoef(x, y)[0, 1]), abs=1e-12)

    @pytest.mark.parametrize(
        "xs, ys", [([1, 2, math.nan], [1, 2, 3]), ([1, 2, 3], [1, 2, math.inf])]
    )
    def test_non_finite_value_rejected(self, xs, ys):
        with pytest.raises(ValueError, match="non-finite"):
            pearson(xs, ys)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_sums_rejected(self):
        with pytest.raises(ValueError, match="float64 range"):
            pearson([1e200, -1e200, 0.0], [1.0, 2.0, 4.0])

    def test_underflowing_sums_rejected(self):
        # each series varies, but sxx * syy is below the smallest float64
        with pytest.raises(ValueError, match="float64 range"):
            pearson([0.0, 1e-85, 2e-85], [0.0, 1e-85, 3e-85])

    def test_affine_invariance(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            x = rng.normal(size=30)
            y = rng.normal(size=30)
            a = float(rng.uniform(0.1, 10))
            b = float(rng.normal())
            assert pearson(x, a * y + b) == pytest.approx(pearson(x, y), abs=1e-12)


class TestOLS:
    def test_two_points(self):
        assert ols_regression([0, 1], [0, 2]) == (2.0, 0.0)

    def test_constant_ys(self):
        slope, intercept = ols_regression([0, 1, 2], [3.0, 3.0, 3.0])
        assert slope == 0.0 and intercept == 3.0

    def test_hand_derived(self):
        slope, intercept = ols_regression([0, 1, 2], [0, 1, 3])
        assert slope == pytest.approx(1.5, abs=1e-12)
        assert intercept == pytest.approx(-1 / 6, abs=1e-12)

    @pytest.mark.parametrize(
        "xs, ys", [([1, 2, -math.inf], [1, 2, 3]), ([1, 2, 3], [math.nan, 2, 3])]
    )
    def test_non_finite_value_rejected(self, xs, ys):
        with pytest.raises(ValueError, match="non-finite"):
            ols_regression(xs, ys)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_sums_rejected(self):
        with pytest.raises(ValueError, match="overflows"):
            ols_regression([1e200, -1e200, 0.0], [1.0, 2.0, 4.0])

    def test_constant_xs_error(self):
        with pytest.raises(ValueError):
            ols_regression([2, 2, 2], [1, 2, 3])

    def test_slope_sign_equals_pearson_sign(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            x = rng.normal(size=25)
            y = rng.normal(size=25)
            try:
                r = pearson(x, y)
            except UndefinedCorrelation:
                continue
            slope, _ = ols_regression(x, y)
            assert math.copysign(1, slope) == math.copysign(1, r) or r == 0

    def test_matches_polyfit(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=50)
        y = 2.5 * x - 1.0 + rng.normal(size=50)
        slope, intercept = ols_regression(x, y)
        fit = np.polyfit(x, y, 1)
        assert slope == pytest.approx(float(fit[0]), abs=1e-9)
        assert intercept == pytest.approx(float(fit[1]), abs=1e-9)


class TestHexbin:
    def test_single_point(self):
        with pytest.raises(ValueError):
            hexbin([(1.0, 1.0)], gridsize=5, min_count=1)  # degenerate bbox

    def test_two_point_grid(self):
        grid = hexbin([(0.0, 0.0), (1.0, 1.0)], gridsize=4, min_count=1)
        assert sum(count for _, _, count in grid.cells) == 2
        assert grid.n_points == 2

    def test_min_count_filters_all(self):
        pts = [(0.0, 0.0), (1.0, 1.0)]
        grid = hexbin(pts, gridsize=4, min_count=2)
        assert grid.cells == []
        assert grid.n_points == 2

    def test_count_conservation(self):
        rng = np.random.default_rng(10)
        pts = [(float(x), float(y)) for x, y in rng.uniform(size=(500, 2))]
        grid = hexbin(pts, gridsize=7, min_count=1)
        assert sum(count for _, _, count in grid.cells) == 500

    def test_matches_full_scan_oracle(self):
        rng = np.random.default_rng(12)
        pts = [(float(x), float(y)) for x, y in rng.normal(size=(1000, 2))]
        grid = hexbin(pts, gridsize=9, min_count=1)
        assert grid.cells == hexbin_full_scan(pts, 9)

    def test_degenerate_bbox(self):
        with pytest.raises(ValueError):
            hexbin([(0.0, 1.0), (0.0, 2.0)], gridsize=3, min_count=1)

    def test_four_way_tie_falls_to_integer_lattice(self):
        # (1, 0) scales to (0.5, 0): 0.25 from (0, 0) and (1, 0) of lattice 0
        # and from (0.5, -0.5) and (0.5, 0.5) of lattice 0.5; (0, 0) wins.
        grid = hexbin([(0.0, 0.0), (1.0, 0.0), (2.0, 1.0)], gridsize=1, min_count=2)
        assert grid.cells == [(0.0, 0.0, 2)]

    @pytest.mark.parametrize(
        "pts",
        [
            [(0.0, 0.0), (1.0, math.nan)],
            [(0.0, 0.0), (math.inf, 1.0)],
            [(-math.inf, 0.0), (1.0, 1.0)],
            [(0.0, 0.0), (1.0, 1.0), (math.nan, math.nan)],
        ],
    )
    def test_non_finite_point_rejected(self, pts):
        with pytest.raises(ValueError, match="non-finite"):
            hexbin(pts, gridsize=5, min_count=1)

    @pytest.mark.parametrize(
        "pts", [[(-1e308, 0.0), (1e308, 1.0)], [(0.0, 0.0), (5e-324, 1.0)]]
    )
    def test_unscalable_bbox_rejected(self, pts):
        with pytest.raises(ValueError, match="scale"):
            hexbin(pts, gridsize=5, min_count=1)

    def test_gridsize_too_large_to_number_cells_rejected(self):
        with pytest.raises(ValueError, match="gridsize too large"):
            hexbin([(0.0, 0.0), (1.0, 1.0)], gridsize=2**40, min_count=1)


@st.composite
def _lattice_points(draw):
    """Integer points whose bounding box has nonzero width and height; small
    integer boxes put many scaled points exactly between two centers."""
    x0, y0 = draw(st.integers(-10, 10)), draw(st.integers(-10, 10))
    w, h = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    inner = st.tuples(st.integers(x0, x0 + w), st.integers(y0, y0 + h))
    pts = [(x0, y0), (x0 + w, y0 + h)] + draw(st.lists(inner, max_size=60))
    return [(float(x), float(y)) for x, y in draw(st.permutations(pts))]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_lattice_points(), st.integers(1, 50), st.sampled_from([0, 1, 3]))
def test_hexbin_matches_full_scan_on_lattice_ties(pts, gridsize, min_count):
    grid = hexbin(pts, gridsize, min_count)
    assert grid.cells == hexbin_full_scan(pts, gridsize, min_count)


class TestCorrelationStudy:
    def test_perfect_homophily(self):
        # every page links to a clone holding exactly its own score
        rows = []
        scores = {}
        for i in range(6):
            rows.append({"doc_id": f"p{i}", "url": None, "text": "x", "outlinks": [f"c{i}"]})
            rows.append({"doc_id": f"c{i}", "url": None, "text": "x", "outlinks": []})
            scores[f"p{i}"] = scores[f"c{i}"] = -float(i)
        _, graph, _ = build_corpus(rows)
        report, points = correlation_study(graph, scores)
        assert report.pearson_r == 1.0
        assert len(points) == 6

    def test_constant_neighbour_mean_propagates(self):
        rows = [
            {"doc_id": "a", "url": None, "text": "x", "outlinks": ["pool"]},
            {"doc_id": "b", "url": None, "text": "x", "outlinks": ["pool"]},
            {"doc_id": "pool", "url": None, "text": "x", "outlinks": []},
        ]
        _, graph, _ = build_corpus(rows)
        with pytest.raises(UndefinedCorrelation):
            correlation_study(graph, {"a": -1.0, "b": -2.0, "pool": -5.0})

    def test_five_node_arithmetic_oracle(self):
        rows = [
            {"doc_id": "a", "url": None, "text": "x", "outlinks": ["b", "c"]},
            {"doc_id": "b", "url": None, "text": "x", "outlinks": ["c"]},
            {"doc_id": "c", "url": None, "text": "x", "outlinks": ["d", "e"]},
            {"doc_id": "d", "url": None, "text": "x", "outlinks": ["e"]},
            {"doc_id": "e", "url": None, "text": "x", "outlinks": []},
        ]
        _, graph, _ = build_corpus(rows)
        scores = {"a": -1.0, "b": -2.0, "c": -1.5, "d": -3.0, "e": -2.5}
        report, points = correlation_study(graph, scores)
        xs = [-1.0, -2.0, -1.5, -3.0]
        ys = [(-2.0 + -1.5) / 2, -1.5, (-3.0 + -2.5) / 2, -2.5]
        mx, my = sum(xs) / 4, sum(ys) / 4
        sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
        sxx = sum((x - mx) ** 2 for x in xs)
        syy = sum((y - my) ** 2 for y in ys)
        assert report.pearson_r == pytest.approx(sxy / math.sqrt(sxx * syy), abs=1e-12)
        assert report.n == 4
        assert sorted(points) == sorted(zip(xs, ys))

    def test_missing_score(self):
        rows = [
            {"doc_id": "a", "url": None, "text": "x", "outlinks": ["b"]},
            {"doc_id": "b", "url": None, "text": "x", "outlinks": ["a"]},
        ]
        _, graph, _ = build_corpus(rows)
        with pytest.raises(MissingScore):
            correlation_study(graph, {"a": -1.0})

    def test_too_few_pages_with_outlinks(self):
        rows = [
            {"doc_id": "a", "url": None, "text": "x", "outlinks": ["b"]},
            {"doc_id": "b", "url": None, "text": "x", "outlinks": []},
        ]
        _, graph, _ = build_corpus(rows)
        with pytest.raises(ValueError):
            correlation_study(graph, {"a": -1.0, "b": -2.0})

    def test_overflowing_outlink_mean_rejected(self):
        # finite scores, but c's outlink mean (1.5e308 + 1.6e308) / 2 is inf
        links = {"a": ["b", "c"], "b": ["a", "c"], "c": ["a", "b"]}
        rows = [{"doc_id": d, "url": None, "text": "x", "outlinks": o} for d, o in links.items()]
        _, graph, _ = build_corpus(rows)
        with pytest.raises(ValueError, match="non-finite"):
            correlation_study(graph, {"a": 1.5e308, "b": 1.6e308, "c": -1.0})


class TestSplitByRelevance:
    def test_empty_qrels_all_irrelevant(self):
        relevant, irrelevant = split_by_relevance({"a": -1.0, "b": -2.0}, {})
        assert relevant == []
        assert sorted(irrelevant) == [-2.0, -1.0]

    def test_doc_relevant_for_two_queries_counted_once(self):
        qrels = {"q1": {"a": 1}, "q2": {"a": 2}}
        relevant, irrelevant = split_by_relevance({"a": -1.0, "b": -2.0}, qrels)
        assert relevant == [-1.0]
        assert irrelevant == [-2.0]

    def test_partition_is_exhaustive(self):
        rng = np.random.default_rng(15)
        scores = {f"d{i}": float(rng.normal()) for i in range(50)}
        qrels = {"q": {f"d{i}": int(rng.integers(0, 2)) for i in range(0, 50, 3)}}
        relevant, irrelevant = split_by_relevance(scores, qrels)
        assert len(relevant) + len(irrelevant) == len(scores)

    def test_grade_zero_is_irrelevant(self):
        relevant, irrelevant = split_by_relevance({"a": -1.0}, {"q": {"a": 0}})
        assert relevant == [] and irrelevant == [-1.0]


def test_quartiles():
    summary = quartiles([1.0, 2.0, 3.0, 4.0, 5.0])
    assert summary["min"] == 1.0
    assert summary["median"] == 3.0
    assert summary["max"] == 5.0
