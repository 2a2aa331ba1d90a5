"""Distribution and homophily statistics over quality score tables.

Everything here is a pure function over immutable inputs: fixed-width
histograms, Jensen-Shannon distance (base-2 logs, so the distance tops out
at 1), seeded undersampling, Pearson/OLS, hexagonal binning, and the
page-quality vs mean-outlink-quality correlation study.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .corpus import WebGraph
from .errors import MissingScore, UndefinedCorrelation, ZeroWidth
from .quality import DEFAULT_BINS, DEFAULT_GRIDSIZE, DEFAULT_MIN_COUNT, mean_outlink_quality
from .retrieval import relevant_docs

# hexbin assigns points in blocks of this many, so that its per-candidate
# arrays stay small beside the points themselves.
_HEXBIN_BLOCK = 4096


@dataclass
class Histogram:
    bin_edges: list[float]
    counts: list[int]


@dataclass
class HexbinGrid:
    gridsize: int
    min_count: int
    cells: list[tuple[float, float, int]]
    n_points: int


@dataclass
class CorrelationReport:
    pearson_r: float
    ols_slope: float
    ols_intercept: float
    n: int


def histogram(values, bins: int = DEFAULT_BINS, value_range=None) -> Histogram:
    """Equal-width histogram; a value lands in bin floor((v-lo)/w), except
    that the top edge is inclusive in the last bin. Out-of-range values are
    not counted."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("cannot histogram an empty value list")
    if bins < 1:
        raise ValueError("bins must be >= 1")
    if value_range is not None:
        lo, hi = float(value_range[0]), float(value_range[1])
        if not lo < hi:
            raise ValueError("range must satisfy lo < hi")
    else:
        lo, hi = float(arr.min()), float(arr.max())
        if lo == hi:
            raise ZeroWidth("all values identical and no explicit range given")
    width = (hi - lo) / bins
    edges = [lo + i * width for i in range(bins)] + [hi]
    in_range = arr[(arr >= lo) & (arr <= hi)]
    idx = np.floor((in_range - lo) / width).astype(int)
    idx = np.minimum(idx, bins - 1)
    counts = np.bincount(idx, minlength=bins)
    return Histogram(bin_edges=edges, counts=counts.tolist())


def js_distance(h1: Histogram, h2: Histogram) -> float:
    """Jensen-Shannon distance between two histograms over identical edges."""
    if h1.bin_edges != h2.bin_edges:
        raise ValueError("histograms have different bin edges")
    p = np.asarray(h1.counts, dtype=float)
    q = np.asarray(h2.counts, dtype=float)
    if p.sum() == 0 or q.sum() == 0:
        raise ValueError("cannot normalize an empty histogram")
    p /= p.sum()
    q /= q.sum()
    m = (p + q) / 2.0

    def kl(a, b):
        mask = a > 0
        return float(np.sum(a[mask] * np.log2(a[mask] / b[mask])))

    jsd = 0.5 * kl(p, m) + 0.5 * kl(q, m)
    return math.sqrt(min(max(jsd, 0.0), 1.0))


def undersample(a, b, rng_seed: int):
    """Sample the larger list down to the smaller one's length, without
    replacement, with a seeded generator; the smaller list passes through."""
    a = list(a)
    b = list(b)
    if not a or not b:
        raise ValueError("both lists must be non-empty")
    if len(a) == len(b):
        return a, b
    rng = np.random.default_rng(rng_seed)

    def shrink(big, size):
        idx = np.sort(rng.choice(len(big), size=size, replace=False))
        return [big[i] for i in idx]

    if len(a) > len(b):
        return shrink(a, len(b)), b
    return a, shrink(b, len(a))


def _finite_series(xs, ys):
    """Two equal-length float arrays of at least two samples, all finite."""
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.size != y.size:
        raise ValueError("series must have equal length")
    if x.size < 2:
        raise ValueError("need at least two samples")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("series hold a non-finite value")
    return x, y


# Sums that leave float64 raise a ValueError below, with no numpy warning first.
@np.errstate(over="ignore", invalid="ignore")
def pearson(xs, ys) -> float:
    """Sample Pearson correlation coefficient."""
    x, y = _finite_series(xs, ys)
    dx = x - x.mean()
    dy = y - y.mean()
    sxx = float(np.dot(dx, dx))
    syy = float(np.dot(dy, dy))
    if sxx == 0.0 or syy == 0.0:
        raise UndefinedCorrelation("a series has zero variance")
    sxy = float(np.dot(dx, dy))
    if not (0.0 < sxx * syy < math.inf and math.isfinite(sxy)):
        raise ValueError("correlation sums out of float64 range")
    r = sxy / math.sqrt(sxx * syy)
    return min(1.0, max(-1.0, r))


@np.errstate(over="ignore", invalid="ignore")
def ols_regression(xs, ys) -> tuple[float, float]:
    """Least-squares line: slope = cov/var(x), intercept = mean residual."""
    x, y = _finite_series(xs, ys)
    dx = x - x.mean()
    sxx = float(np.dot(dx, dx))
    if sxx == 0.0:
        raise ValueError("xs are constant; regression line is undefined")
    slope = float(np.dot(dx, y - y.mean())) / sxx
    intercept = float(y.mean()) - slope * float(x.mean())
    if not (math.isfinite(sxx) and math.isfinite(slope) and math.isfinite(intercept)):
        raise ValueError("regression line overflows float64")
    return slope, intercept


def hexbin(points, gridsize: int = DEFAULT_GRIDSIZE, min_count: int = DEFAULT_MIN_COUNT) -> HexbinGrid:
    """Aggregate 2D points on the standard two-offset hexagonal lattices.

    x is rescaled to [0, gridsize] and y to [0, gridsize/sqrt(3)] over the
    bounding box; each point goes to its nearest lattice center in scaled
    space; cells with fewer than min_count points are dropped; reported
    centers are in original coordinates, in (lattice flag, i, j) order.

    Tie rule: the candidates are the four surrounding centers (i + off,
    j + off) of the integer lattice (flag 0, off 0) and of the half-offset
    lattice (flag 1, off 0.5). The winner minimizes (squared distance, flag,
    center x, center y), so a cross-lattice tie falls to the integer lattice
    and a within-lattice tie to the smaller x, then the smaller y. Points are
    assigned as arrays, a block at a time: the candidates are visited in that
    key order and a running minimum changes only on a strictly smaller distance.
    """
    pts = list(points)
    if not pts:
        raise ValueError("no points to bin")
    if gridsize < 1:
        raise ValueError("gridsize must be >= 1")
    xs = np.asarray([p[0] for p in pts], dtype=float)
    ys = np.asarray([p[1] for p in pts], dtype=float)
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        raise ValueError("points hold a non-finite value")
    xmin, xmax = float(xs.min()), float(xs.max())
    ymin, ymax = float(ys.min()), float(ys.max())
    if xmin == xmax or ymin == ymax:
        raise ValueError("degenerate bounding box (zero width or height)")
    sx = gridsize / (xmax - xmin)
    sy = (gridsize / math.sqrt(3.0)) / (ymax - ymin)
    if not (0.0 < sx < math.inf and 0.0 < sy < math.inf):
        raise ValueError("bounding box too wide or too narrow to scale to the grid")
    # Each point's cell as one exact float64 code, ascending in (flag, i, j):
    # i + 1 and j + 1 lie in [0, floor(max) + 2] as scaled points lie in [0, max].
    ni, nj = int((xmax - xmin) * sx) + 3, int((ymax - ymin) * sy) + 3
    if 2 * ni * nj > 2**53:
        raise ValueError("gridsize too large to number the cells")
    codes = np.empty(len(pts))
    for start in range(0, len(pts), _HEXBIN_BLOCK):
        block = slice(start, start + _HEXBIN_BLOCK)
        px = (xs[block] - xmin) * sx
        py = (ys[block] - ymin) * sy
        best, code = np.full(len(px), np.inf), codes[block]
        for flag, off in ((0, 0.0), (1, 0.5)):
            fx = np.floor(px - off)
            fy = np.floor(py - off)
            for i in (fx, fx + 1):
                dx2 = (px - (i + off)) ** 2
                row = (flag * ni + i + 1) * nj
                for j in (fy, fy + 1):
                    d2 = dx2 + (py - (j + off)) ** 2
                    win = d2 < best
                    np.copyto(best, d2, where=win)
                    np.copyto(code, row + j + 1, where=win)
    # np.unique, unlike np.bincount, takes memory in proportion to the points.
    occupied, counts = np.unique(codes, return_counts=True)
    kept = counts >= min_count
    cell, j = np.divmod(occupied[kept], nj)
    flag, i = np.divmod(cell, ni)
    off = 0.5 * flag
    centers_x = (xmin + (i - 1 + off) / sx).tolist()
    centers_y = (ymin + (j - 1 + off) / sy).tolist()
    cells = list(zip(centers_x, centers_y, counts[kept].tolist()))
    return HexbinGrid(gridsize=gridsize, min_count=min_count, cells=cells, n_points=len(pts))


def correlation_study(graph: WebGraph, scores: dict[str, float]):
    """(page quality, mean outlink quality) pairs for every page with at
    least one outlink, plus Pearson r and the OLS regression line."""
    points: list[tuple[float, float]] = []
    for doc_id in sorted(graph.adjacency):
        if not graph.adjacency.get(doc_id):
            continue
        if doc_id not in scores:
            raise MissingScore(f"no quality score for {doc_id!r}")
        points.append((scores[doc_id], mean_outlink_quality(graph, scores, doc_id)))
    if len(points) < 2:
        raise ValueError("need at least two pages with outlinks")
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    r = pearson(xs, ys)
    slope, intercept = ols_regression(xs, ys)
    return CorrelationReport(r, slope, intercept, len(points)), points


def split_by_relevance(scores: dict[str, float], qrels: dict[str, dict[str, int]]):
    """Partition score-table values into (relevant, irrelevant) by whether
    the doc is in retrieval.relevant_docs for at least one query."""
    relevant_ids = set().union(*(relevant_docs(qrels, query_id) for query_id in qrels))
    relevant: list[float] = []
    irrelevant: list[float] = []
    for doc_id in sorted(scores):
        (relevant if doc_id in relevant_ids else irrelevant).append(scores[doc_id])
    return relevant, irrelevant


def quartiles(values) -> dict[str, float]:
    """Five-number summary used in the relevance-split report."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("no values")
    q1, q2, q3 = np.percentile(arr, [25, 50, 75])
    return {
        "min": float(arr.min()),
        "q1": float(q1),
        "median": float(q2),
        "q3": float(q3),
        "max": float(arr.max()),
    }
