"""Deterministic crawl simulation over a stored web graph.

Three frontier disciplines: bfs (FIFO over discovery order), dfs (LIFO,
outlinks pushed in reverse adjacency order so the first-listed link is
crawled next), and qoracle (max quality score first, ties broken by
discovery order then doc_id). A page is discovered at most once; its
priority is fixed at discovery time and never revised.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass, field

from .corpus import WebGraph
from .errors import CorpusFormatError, MissingScore, UnknownDoc

STRATEGIES = ("bfs", "dfs", "qoracle")

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

    def priority_of(doc_id: str) -> float | None:
        if strategy != "qoracle":
            return None
        assert scores is not None
        if doc_id not in scores:
            raise MissingScore(f"no quality score for {doc_id!r}")
        value = scores[doc_id]
        if not math.isfinite(value):
            raise ValueError(f"non-finite quality score for {doc_id!r}")
        return value

    fifo: deque[str] = deque()
    stack: list[str] = []
    heap: list[tuple[float, int, str]] = []
    discovered: set[str] = set()
    next_seq = 0
    priorities: dict[str, float | None] = {}

    def discover(doc_id: str) -> None:
        nonlocal next_seq
        if doc_id in discovered:
            return
        discovered.add(doc_id)
        p = priority_of(doc_id)
        priorities[doc_id] = p
        if strategy == "bfs":
            fifo.append(doc_id)
        elif strategy == "dfs":
            stack.append(doc_id)
        else:
            heapq.heappush(heap, (-p, next_seq, doc_id))
        next_seq += 1

    for seed in seeds:
        discover(seed)

    entries: list[tuple[int, str, float | None]] = []
    while len(entries) < budget:
        if strategy == "bfs":
            if not fifo:
                break
            doc_id = fifo.popleft()
        elif strategy == "dfs":
            if not stack:
                break
            doc_id = stack.pop()
        else:
            if not heap:
                break
            _, _, doc_id = heapq.heappop(heap)
        entries.append((len(entries) + 1, doc_id, priorities[doc_id]))
        successors = graph.adjacency.get(doc_id, [])
        if strategy == "dfs":
            successors = list(reversed(successors))
        for target in successors:
            discover(target)

    total = len(entries)
    checkpoints = list(range(checkpoint_interval, total + 1, checkpoint_interval))
    if total > 0 and (not checkpoints or checkpoints[-1] != total):
        checkpoints.append(total)
    return CrawlTrace(entries=entries, checkpoint_ranks=checkpoints)


def write_trace(trace: CrawlTrace, path: str) -> None:
    """Write tab-separated ``rank doc_id priority`` lines under a
    ``#checkpoints`` header; rewriting the same trace is byte-identical."""
    lines = ["#checkpoints\t" + "\t".join(str(r) for r in trace.checkpoint_ranks)]
    for rank, doc_id, priority in trace.entries:
        cell = PRIORITY_SENTINEL if priority is None else repr(priority)
        lines.append(f"{rank}\t{doc_id}\t{cell}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_trace(path: str) -> CrawlTrace:
    """Parse a trace file written by write_trace.

    Ranks run 1, 2, ... with no doc_id repeated, every priority is a float
    or the sentinel, and checkpoint ranks increase strictly within
    1..len(trace).
    """
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].startswith("#checkpoints"):
        raise CorpusFormatError(f"{path}:1: missing '#checkpoints' header")
    header_cells = lines[0].split("\t")[1:]
    try:
        checkpoints = [int(c) for c in header_cells if c]
    except ValueError:
        raise CorpusFormatError(f"{path}:1: non-integer checkpoint rank") from None
    entries: list[tuple[int, str, float | None]] = []
    seen: set[str] = set()
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise CorpusFormatError(f"{path}:{lineno}: expected 'rank<TAB>doc_id<TAB>priority'")
        rank_s, doc_id, cell = parts
        try:
            rank = int(rank_s)
        except ValueError:
            raise CorpusFormatError(f"{path}:{lineno}: non-integer rank") from None
        if rank != len(entries) + 1:
            raise CorpusFormatError(f"{path}:{lineno}: ranks must increase by 1")
        if doc_id in seen:
            raise CorpusFormatError(f"{path}:{lineno}: duplicate doc_id {doc_id!r}")
        seen.add(doc_id)
        try:
            priority = None if cell == PRIORITY_SENTINEL else float(cell)
        except ValueError:
            raise CorpusFormatError(
                f"{path}:{lineno}: priority must be a float or {PRIORITY_SENTINEL!r}"
            ) from None
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
