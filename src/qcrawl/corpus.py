"""Corpus and link-graph loading.

A corpus is a mapping doc_id -> DocumentRecord built from a JSON-lines or
CSV record file. The web graph is an adjacency over doc_ids built from the
records' outlinks (or from a separate tab-separated edge list). Outlinks
whose target is not in the corpus are dropped from the graph but counted,
so the crawl frontier stays closed over scoreable pages. RECORD_FORMATS
holds each record format's parser and scored-row writer. Records stream:
each row is checked, used and dropped as it is read, by a load and by
``qcrawl score``, which writes each scored row with its format's writer.
load_graph keeps only ids and links, for the commands that never read text,
and runs every check load_corpus runs. A load pauses the cyclic garbage
collector, which would only rescan its new objects: rows, records and
adjacency lists hold what they point down to, never a cycle.

Every line-oriented qcrawl file is read through read_lines, which skips blank
lines; every output is written through atomic_write, which replaces it whole.
"""

from __future__ import annotations

import csv
import gc
import json
import os
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field

from .errors import CorpusFormatError, UnknownDoc

RECORD_FIELDS = ("doc_id", "url", "text", "outlinks")


@dataclass(frozen=True, slots=True)
class DocumentRecord:
    """One web page: id, optional URL, extracted text (links: WebGraph)."""

    doc_id: str
    url: str | None
    text: str


@dataclass
class WebGraph:
    """Directed adjacency over corpus doc_ids, in file order."""

    adjacency: dict[str, list[str]] = field(default_factory=dict)

    def __contains__(self, doc_id: str) -> bool:
        return doc_id in self.adjacency

    @property
    def edge_count(self) -> int:
        return sum(len(v) for v in self.adjacency.values())


@dataclass
class LoadStats:
    """Bookkeeping from a corpus load.

    edges_loaded == edges_kept + dangling_dropped + duplicate_dropped.
    """

    records: int = 0
    edges_loaded: int = 0
    edges_kept: int = 0
    dangling_dropped: int = 0
    duplicate_dropped: int = 0


def read_lines(path: str):
    """Yield (lineno, line) for every line of a UTF-8 file that holds more
    than whitespace, with the line ending removed."""
    with open(path, encoding="utf-8") as fh, utf8_errors(path):
        for lineno, line in enumerate(fh, start=1):
            if not line.isspace():
                yield lineno, line.rstrip("\n")


@contextmanager
def utf8_errors(path: str):
    """Report a UnicodeDecodeError raised in the block as a CorpusFormatError
    naming path and the line of the file's first bad byte, with lines counted
    as text-mode reading counts them (ending at LF, CRLF or a lone CR). The
    file is read again on that error path only."""
    try:
        yield
    except UnicodeDecodeError:
        with open(path, "rb") as fh:
            data = fh.read()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            head = data[: exc.start].decode("utf-8")
            lineno = head.replace("\r\n", "\n").replace("\r", "\n").count("\n") + 1
            raise CorpusFormatError(f"{path}:{lineno}: invalid UTF-8 ({exc.reason})") from None
        raise


def split_fields(
    path: str, lineno: int, line: str, count: int, layout: str, sep: str | None = "\t"
) -> list[str]:
    """Split a line on sep (None: on whitespace) into exactly count non-empty
    fields, or raise a CorpusFormatError naming the layout."""
    fields = line.split(sep)
    if len(fields) != count or not all(fields):
        raise CorpusFormatError(f"{path}:{lineno}: expected '{layout}'")
    return fields


@contextmanager
def _gc_paused():
    """Pause the cyclic garbage collector, then restore it, also on error."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@contextmanager
def atomic_write(path: str):
    """Write UTF-8 text, without newline translation, to a temporary file
    beside path that replaces path only when the block exits cleanly; on
    any exception, KeyboardInterrupt included, path is left as it was."""
    tmp = f"{path}.tmp{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def _are_tokens(values: list) -> bool:
    """True when every value is a non-empty str without whitespace: the one
    doc_id rule, for a record's id and its outlinks alike."""
    try:
        return " ".join(values).split() == values
    except TypeError:  # a value that is not a str
        return False


def _check_doc_id(doc_id, lineno: int, path: str, seen: set[str]) -> None:
    if not _are_tokens([doc_id]):
        raise CorpusFormatError(
            f"{path}:{lineno}: doc_id must be a non-empty token without whitespace"
        )
    if doc_id in seen:
        raise CorpusFormatError(f"{path}:{lineno}: duplicate doc_id {doc_id!r}")
    seen.add(doc_id)


def parse_jsonl(path: str):
    """Yield the raw row dicts of a JSON-lines record file (extra keys kept),
    each checked as its line is read."""
    raw_decode = json.JSONDecoder().raw_decode  # json.loads without its wrapper
    seen: set[str] = set()
    for lineno, line in read_lines(path):
        try:  # a line not decoded whole (padding, a BOM, extra data) goes to json.loads
            obj, end = raw_decode(line)
        except json.JSONDecodeError:
            end = 0
        if end != len(line):
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusFormatError(f"{path}:{lineno}: invalid JSON ({exc.msg})") from exc
        if not isinstance(obj, dict):
            raise CorpusFormatError(f"{path}:{lineno}: expected a JSON object")
        _check_doc_id(obj.get("doc_id"), lineno, path, seen)
        text = obj.get("text")
        if not isinstance(text, str):
            raise CorpusFormatError(f"{path}:{lineno}: missing or non-string 'text'")
        url = obj.get("url")
        if url is not None and not isinstance(url, str):
            raise CorpusFormatError(f"{path}:{lineno}: 'url' must be a string or null")
        outlinks = obj.get("outlinks", [])
        if not isinstance(outlinks, list) or not _are_tokens(outlinks):
            raise CorpusFormatError(f"{path}:{lineno}: 'outlinks' must be a list of doc_ids")
        yield obj


def parse_csv(path: str):
    """Yield the raw rows of a CSV record file (header doc_id,url,text,outlinks).

    The outlinks column holds a space-separated doc_id list in one field, and
    a cell may be as long as a JSON line. Errors name the last line of a
    record that quoted newlines spread out.
    """
    seen: set[str] = set()
    old_limit = csv.field_size_limit(2**31 - 1)
    try:
        with open(path, encoding="utf-8", newline="") as fh, utf8_errors(path):
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise CorpusFormatError(f"{path}:1: empty CSV file")
            if [h.strip() for h in header] != list(RECORD_FIELDS):
                raise CorpusFormatError(f"{path}:1: CSV header must be {','.join(RECORD_FIELDS)}")
            for row in reader:
                lineno = reader.line_num
                if len(row) < 2 and not "".join(row).strip():
                    continue
                if len(row) != len(RECORD_FIELDS):
                    raise CorpusFormatError(
                        f"{path}:{lineno}: expected {len(RECORD_FIELDS)} fields, got {len(row)}"
                    )
                doc_id, url, text, outlinks = row
                _check_doc_id(doc_id, lineno, path, seen)
                yield {"doc_id": doc_id, "url": url or None, "text": text,
                       "outlinks": outlinks.split()}
    except csv.Error as exc:
        raise CorpusFormatError(f"{path}:{reader.line_num}: {exc}") from None
    finally:
        csv.field_size_limit(old_limit)


def _jsonl_row_writer(fh):
    return lambda row: fh.write(json.dumps(row) + "\n")


def _csv_row_writer(fh):
    writer = csv.writer(fh, lineterminator="\n")
    # csv quotes a cell holding "\n" but not a lone "\r", which parse_csv's
    # reader takes for a line end, so a row holding one is quoted whole
    quote_all = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_ALL)
    writer.writerow([*RECORD_FIELDS, "quality_score"])

    def write(row):
        cells = [row["doc_id"], row.get("url") or "", row["text"],
                 " ".join(row.get("outlinks", [])), repr(row["quality_score"])]
        (quote_all if "\r" in "".join(cells) else writer).writerow(cells)

    return write


# Per format: (parser: path -> checked rows, row writer: open file -> write(scored_row)).
RECORD_FORMATS = {
    "jsonl": (parse_jsonl, _jsonl_row_writer),
    "csv": (parse_csv, _csv_row_writer),
}


def _streams(path: str, fmt: str, edges_path: str | None = None):
    """A record file's checked rows and an edge file's edges (or None), read as consumed."""
    if fmt not in RECORD_FORMATS:
        raise ValueError(f"unsupported record format: {fmt!r}")
    edges = _edges(edges_path) if edges_path else None
    return RECORD_FORMATS[fmt][0](path), edges


@_gc_paused()
def parse_records(path: str, fmt: str) -> list[dict]:
    return list(_streams(path, fmt)[0])


def _edges(path: str):
    for lineno, line in read_lines(path):
        yield tuple(split_fields(path, lineno, line, 2, "src<TAB>dst"))


def load_edges(path: str) -> list[tuple[str, str]]:
    """Load a tab-separated edge list (``src<TAB>dst``, one edge per line)."""
    return list(_edges(path))


@_gc_paused()
def build_graph(rows, edges=None) -> tuple[WebGraph, LoadStats]:
    """Build the graph from raw rows, each dropped once read, and an optional
    edge list, read after the last row.

    Duplicate outlinks within one source keep the first occurrence; outlinks
    pointing outside the corpus are dropped from the graph. Both drops are
    counted so that edges_loaded = kept + dangling + duplicates. A repeated
    doc_id is rejected as its row arrives (rows built in memory skip the parsers' check).
    """
    adjacency: dict[str, list[str]] = {}
    records = edges_loaded = duplicates = 0
    for records, row in enumerate(rows, start=1):
        doc_id = row["doc_id"]
        if doc_id in adjacency:
            raise CorpusFormatError(f"duplicate doc_id: {doc_id!r}")
        adjacency[doc_id] = links = [*row.get("outlinks", ())] if edges is None else []
        edges_loaded += len(links)

    # An edge list replaces the records' outlinks; an unknown source dangles.
    if edges is not None:
        for edges_loaded, (src, dst) in enumerate(edges, start=1):
            if src in adjacency:
                adjacency[src].append(dst)

    in_corpus = adjacency.__contains__
    for doc_id, links in adjacency.items():
        deduped = dict.fromkeys(links)  # first occurrence kept, in order
        duplicates += len(links) - len(deduped)
        adjacency[doc_id] = list(filter(in_corpus, deduped))
    graph = WebGraph(adjacency)
    kept = graph.edge_count
    stats = LoadStats(records, edges_loaded, kept, edges_loaded - kept - duplicates, duplicates)
    return graph, stats


def build_corpus(rows, edges=None) -> tuple[dict[str, DocumentRecord], WebGraph, LoadStats]:
    """build_graph's graph and stats, and a DocumentRecord per raw row."""
    corpus: dict[str, DocumentRecord] = {}

    def keep(row: dict) -> dict:
        corpus[row["doc_id"]] = DocumentRecord(row["doc_id"], row.get("url"), row["text"])
        return row

    graph, stats = build_graph(map(keep, rows), edges)
    return corpus, graph, stats


def load_corpus(
    path: str, fmt: str = "jsonl", edges_path: str | None = None
) -> tuple[dict[str, DocumentRecord], WebGraph, LoadStats]:
    """Load a record file (jsonl or csv) into (corpus, graph, stats) in one pass."""
    return build_corpus(*_streams(path, fmt, edges_path))


def load_graph(path: str, fmt: str = "jsonl", edges_path: str | None = None):
    """load_corpus's graph and stats: every record check runs, no text is kept."""
    return build_graph(*_streams(path, fmt, edges_path))


def load_seeds(path: str, graph: WebGraph) -> list[str]:
    """Load a seed file (one doc_id per line); duplicates keep the first."""
    seeds: dict[str, None] = {}
    for lineno, line in read_lines(path):
        doc_id = line.strip()
        if doc_id not in graph:
            raise UnknownDoc(f"{path}:{lineno}: seed {doc_id!r} not in graph")
        seeds[doc_id] = None
    return list(seeds)
