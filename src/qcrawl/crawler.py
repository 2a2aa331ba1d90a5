"""Deterministic crawl simulation over a stored web graph.

Every strategy crawls from one heap frontier; only the sort key differs.
A page's key is fixed when it is discovered, with seq counting discoveries:
bfs keys by seq (first discovered, first crawled), dfs by -seq (newest
first; outlinks are discovered in reverse adjacency order, so the
first-listed link is crawled next), and qoracle by (-score, seq) (highest
quality score first, ties broken by discovery order). A page is
discovered at most once; its priority is never revised.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Container
from dataclasses import dataclass, field

from .corpus import WebGraph, atomic_write, read_lines, split_fields
from .errors import CorpusFormatError, MissingScore, UnknownDoc

# Frontier sort key per strategy, fixed when a page is discovered. seq counts
# discoveries, so every key is unique and heap entries never compare doc_ids.
_FRONTIER_KEYS = {
    "bfs": lambda seq, priority: seq,
    "dfs": lambda seq, priority: -seq,
    "qoracle": lambda seq, priority: (-priority, seq),
}
STRATEGIES = tuple(_FRONTIER_KEYS)

PRIORITY_SENTINEL = "-"


@dataclass
class CrawlTrace:
    """Crawled pages in order: (1-based rank, doc_id, priority or None)."""

    entries: list[tuple[int, str, float | None]] = field(default_factory=list)
    checkpoint_ranks: list[int] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.entries)

    def doc_ids(self) -> list[str]:
        return [doc_id for _, doc_id, _ in self.entries]


def run_crawl(
    graph: WebGraph,
    seeds: list[str],
    strategy: str,
    budget: int,
    checkpoint_interval: int,
    scores: dict[str, float] | None = None,
) -> CrawlTrace:
    """Crawl until budget pages are fetched or the frontier is exhausted."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    if not seeds:
        raise ValueError("seed list is empty")
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if checkpoint_interval < 1:
        raise ValueError("checkpoint interval must be >= 1")
    if strategy == "qoracle" and scores is None:
        raise MissingScore("qoracle requires a score table")
    for seed in seeds:
        if seed not in graph:
            raise UnknownDoc(f"seed not in graph: {seed!r}")

    table = scores if strategy == "qoracle" else None
    key_of = _FRONTIER_KEYS[strategy]
    successors_in_order = reversed if strategy == "dfs" else iter
    frontier: list[tuple[object, str, float | None]] = []
    discovered: set[str] = set()

    def discover(doc_id: str) -> None:
        if doc_id in discovered:
            return
        priority = None
        if table is not None:
            if doc_id not in table:
                raise MissingScore(f"no quality score for {doc_id!r}")
            priority = table[doc_id]
            if not math.isfinite(priority):
                raise ValueError(f"non-finite quality score for {doc_id!r}")
        heapq.heappush(frontier, (key_of(len(discovered), priority), doc_id, priority))
        discovered.add(doc_id)

    for seed in seeds:
        discover(seed)

    entries: list[tuple[int, str, float | None]] = []
    while frontier and len(entries) < budget:
        _, doc_id, priority = heapq.heappop(frontier)
        entries.append((len(entries) + 1, doc_id, priority))
        for target in successors_in_order(graph.adjacency.get(doc_id, ())):
            discover(target)

    total = len(entries)
    checkpoints = list(range(checkpoint_interval, total + 1, checkpoint_interval))
    if total > 0 and (not checkpoints or checkpoints[-1] != total):
        checkpoints.append(total)
    return CrawlTrace(entries=entries, checkpoint_ranks=checkpoints)


def write_trace(trace: CrawlTrace, path: str) -> None:
    """Write tab-separated ``rank doc_id priority`` lines under a
    ``#checkpoints`` header; rewriting the same trace is byte-identical."""
    with atomic_write(path) as fh:
        fh.write("#checkpoints\t" + "\t".join(str(r) for r in trace.checkpoint_ranks) + "\n")
        for rank, doc_id, priority in trace.entries:
            cell = PRIORITY_SENTINEL if priority is None else repr(priority)
            fh.write(f"{rank}\t{doc_id}\t{cell}\n")


def read_trace(path: str, corpus_ids: Container[str] | None = None) -> CrawlTrace:
    """Parse a trace file written by write_trace.

    Line 1 is the ``#checkpoints`` header. Ranks run 1, 2, ... with no
    doc_id repeated, every priority is a finite float or the sentinel, and
    checkpoint ranks increase strictly within 1..len(trace). When corpus_ids
    is given, every doc_id must be in it.
    """
    lines = read_lines(path)
    lineno, header = next(lines, (1, ""))
    if lineno != 1 or not header.startswith("#checkpoints"):
        raise CorpusFormatError(f"{path}:1: missing '#checkpoints' header")
    try:
        checkpoints = [int(c) for c in header.split("\t")[1:] if c]
    except ValueError:
        raise CorpusFormatError(f"{path}:1: non-integer checkpoint rank") from None
    entries: list[tuple[int, str, float | None]] = []
    seen: set[str] = set()
    for lineno, line in lines:
        rank_s, doc_id, cell = split_fields(path, lineno, line, 3, "rank<TAB>doc_id<TAB>priority")
        try:
            rank = int(rank_s)
        except ValueError:
            raise CorpusFormatError(f"{path}:{lineno}: non-integer rank") from None
        if rank != len(entries) + 1:
            raise CorpusFormatError(f"{path}:{lineno}: ranks must increase by 1")
        if doc_id in seen:
            raise CorpusFormatError(f"{path}:{lineno}: duplicate doc_id {doc_id!r}")
        if corpus_ids is not None and doc_id not in corpus_ids:
            raise UnknownDoc(f"{path}:{lineno}: doc_id {doc_id!r} not in corpus")
        seen.add(doc_id)
        try:
            priority = None if cell == PRIORITY_SENTINEL else float(cell)
        except ValueError:
            raise CorpusFormatError(
                f"{path}:{lineno}: priority must be a float or {PRIORITY_SENTINEL!r}"
            ) from None
        if priority is not None and not math.isfinite(priority):
            raise CorpusFormatError(f"{path}:{lineno}: non-finite priority")
        entries.append((rank, doc_id, priority))
    previous = 0
    for checkpoint in checkpoints:
        if checkpoint <= previous or checkpoint > len(entries):
            raise CorpusFormatError(
                f"{path}:1: checkpoint ranks must increase strictly within "
                f"1..{len(entries)}; got {checkpoints}"
            )
        previous = checkpoint
    return CrawlTrace(entries=entries, checkpoint_ranks=checkpoints)


def check_rank(trace: CrawlTrace, rank: int) -> None:
    """Raise ValueError unless 1 <= rank <= len(trace)."""
    if rank < 1 or rank > len(trace.entries):
        raise ValueError(f"rank {rank} out of range 1..{len(trace.entries)}")


def trace_prefix(trace: CrawlTrace, rank: int) -> set[str]:
    """doc_ids of the first ``rank`` crawled pages."""
    check_rank(trace, rank)
    return {doc_id for _, doc_id, _ in trace.entries[:rank]}
