"""Mutation check: does the test suite fail on each of a fixed list of source edits?

    python3 tests/mutants.py

Each mutant is one ``(file, old, new)`` edit, with ``file`` relative to the
repository root. For each, ``src/`` and ``tests/`` are copied to a temporary
directory, the edit is applied there, and the test files that ``TESTS_OF``
lists for ``file`` run in that copy with ``pytest -x -q -p no:cacheprovider``.
A mutant is killed when they fail. The whole unmutated suite runs first and
must pass, or every mutant would look killed. An ``old`` that does not occur
exactly once in its file, or a file with no test files listed, stops the
script before any run, so a stale entry cannot pass unnoticed.

Exit status: 0 when every mutant is killed, 1 when one survives or the
unmutated suite fails, 2 on a stale entry. Uses only the standard library.
It is not part of the test suite; CI runs it as its own step.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RETRIEVAL = "src/qcrawl/retrieval.py"
ANALYTICS = "src/qcrawl/analytics.py"
CORPUS = "src/qcrawl/corpus.py"
CRAWLER = "src/qcrawl/crawler.py"
QUALITY = "src/qcrawl/quality.py"
CLI = "src/qcrawl/cli.py"
# The test files that exercise each source file, its own first: a mutant runs
# against these only, in this order, and stops at the first failure.
TESTS_OF = {
    RETRIEVAL: ("test_retrieval.py", "test_acceptance.py", "test_cli.py"),
    ANALYTICS: ("test_analytics.py", "test_acceptance.py", "test_cli.py"),
    CORPUS: ("test_corpus.py", "test_cli.py", "test_acceptance.py"),
    CRAWLER: ("test_crawler.py", "test_acceptance.py", "test_cli.py"),
    QUALITY: ("test_quality.py", "test_acceptance.py", "test_cli.py"),
    CLI: ("test_cli.py", "test_acceptance.py"),
}
# The lines between hexbin's cell code and its decoding.
_HEXBIN_CODE_TAIL = """
                for j in (fy, fy + 1):
                    d2 = dx2 + (py - (j + off)) ** 2
                    win = d2 < best
                    np.copyto(best, d2, where=win)
                    np.copyto(code, row + j + 1, where=win)
    # np.unique, unlike np.bincount, takes memory in proportion to the points.
    occupied, counts = np.unique(codes, return_counts=True)
    kept = counts >= min_count
    cell, j = np.divmod(occupied[kept], nj)
    """

MUTANTS = [
    # the ASCII fast path of tokenize: its byte table and when it is taken
    (
        RETRIEVAL,
        "if ch.isascii() and ch.isalnum() else",
        'if ch.isascii() and (ch.isalnum() or ch == "_") else',
    ),
    (RETRIEVAL, "ord(ch.lower()) if", "ord(ch) if"),
    (RETRIEVAL, "    if text.isascii():", "    if True:"),
    # BM25 constant, term weight and collection statistics
    (RETRIEVAL, "K1 = 1.2\n", "K1 = 1.25\n"),
    (
        RETRIEVAL,
        "norm = K1 * (1.0 - B + B * dl / avgdl)",
        "norm = K1 * (1.0 - B) + B * dl / avgdl",
    ),
    (
        RETRIEVAL,
        "index.avgdl = total_tokens / index.doc_count",
        "index.avgdl = 1.01 * total_tokens / index.doc_count",
    ),
    (
        RETRIEVAL,
        "index.doc_count = len(index.doc_lengths)",
        "index.doc_count = len(index.doc_lengths) + 1",
    ),
    # the growth step and the query-term index of checkpoint evaluation
    (RETRIEVAL, "ids = sorted(doc_ids)", "ids = list(doc_ids)"),
    (
        RETRIEVAL,
        "vocabulary = {term for terms in query_terms.values() for term in terms}",
        "vocabulary = {term for terms in list(query_terms.values())[:-1] for term in terms}",
    ),
    (
        RETRIEVAL,
        "return len(tokens), dict(Counter(counted))",
        "return max(len(tokens), 1), dict(Counter(counted))",
    ),
    # the per-state weight arrays, their accumulation and the top-k cut of search_topk
    (RETRIEVAL, "    index._ranking = None", "    pass"),
    (RETRIEVAL, "for df in dfs]", "for df in reversed(dfs)]"),
    (
        RETRIEVAL,
        "for t in dict.fromkeys(query_terms) if",
        "for t in reversed(dict.fromkeys(query_terms)) if",
    ),
    (
        RETRIEVAL,
        "tied = sorted(map(doc_ids.__getitem__,",
        "tied = list(map(doc_ids.__getitem__,",
    ),
    (RETRIEVAL, "above = scores > kth", "above = scores >= kth"),
    (
        RETRIEVAL,
        "sorted(sorted(head.items()), key=itemgetter(1), reverse=True)",
        "sorted(head.items(), key=itemgetter(1), reverse=True)",
    ),
    (RETRIEVAL, "docs[1:] != docs[:-1]", "docs[1:] >= docs[:-1]"),
    # eval's two steps: the loading helper returns only recall rows, so the
    # pages and traces are freed before the t-tests; k is checked before any
    # page is tokenised
    (
        CLI,
        "    return retrieval.evaluate_recall(docs, traces, queries, qrels, args.k)\n\n\n"
        "def cmd_eval(args) -> int:\n"
        "    report = retrieval.evaluate_significance(_eval_recall(args), args.k, args.alpha)",
        "    return retrieval.evaluate_checkpoints(\n"
        "        docs, traces, queries, qrels, args.k, args.alpha\n    )\n\n\n"
        "def cmd_eval(args) -> int:\n"
        "    report = _eval_recall(args)",
    ),
    (
        RETRIEVAL,
        'raise ValueError("no query has judged-relevant documents")\n    if k < 1:',
        'raise ValueError("no query has judged-relevant documents")\n    if False:',
    ),
    # the qoracle frontier key without its discovery order
    (
        CRAWLER,
        '"qoracle": lambda seq, priority: (-priority, seq),',
        '"qoracle": lambda seq, priority: -priority,',
    ),
    # hexbin's tie rule (first minimum in (flag, i, j) order wins), its cell
    # codes in (flag, i, j) order, and its min_count cut
    (ANALYTICS, "win = d2 < best", "win = d2 <= best"),
    (ANALYTICS, "for flag, off in ((0, 0.0), (1, 0.5)):", "for flag, off in ((1, 0.5), (0, 0.0)):"),
    (ANALYTICS, "for i in (fx, fx + 1):", "for i in (fx + 1, fx):"),
    (  # flag and i swapped in the cell code and its decoding: (i, flag, j) order
        ANALYTICS,
        "row = (flag * ni + i + 1) * nj" + _HEXBIN_CODE_TAIL + "flag, i = np.divmod(cell, ni)",
        "row = ((i + 1) * 2 + flag) * nj" + _HEXBIN_CODE_TAIL + "i, flag = np.divmod(cell, 2)",
    ),
    (ANALYTICS, "kept = counts >= min_count", "kept = counts > min_count"),
    # the streamed corpus load: a JSON line raw_decode does not consume whole
    # goes through json.loads; the edge file is read after the records;
    # dangling targets and repeated doc_ids
    (CORPUS, "if end != len(line):", "if not end:"),
    (CORPUS, "edges = _edges(edges_path) if", "edges = load_edges(edges_path) if"),
    (CORPUS, "list(filter(in_corpus, deduped))", "list(deduped)"),
    (CORPUS, "if doc_id in adjacency:", "if False:"),
    # input checks
    (RETRIEVAL, "if not _are_tokens([qid]):", "if not _are_tokens([qid.strip()]):"),
    (
        CRAWLER,
        "if priority is not None and not math.isfinite(priority):",
        "if priority is not None and math.isnan(priority):",
    ),
    (
        CLI,
        "isinstance(item, (str, int, float))",
        "isinstance(item, (str, int, float, type(None)))",
    ),
    (
        CLI,
        "elif any(isinstance(item, bool) for item in items):",
        "elif any(isinstance(item, bool) for item in items[1:]):",
    ),
    # score tables: finite scores, unique ids; the outlink mean over distinct targets
    (QUALITY, "if not math.isfinite(score):", "if False:"),
    (QUALITY, "if doc_id in table:", "if False:"),
    (
        QUALITY,
        "targets = sorted(set(graph.adjacency[doc_id]))",
        "targets = sorted(graph.adjacency[doc_id])",
    ),
]


def check_entries() -> list[str]:
    """Every problem with the lists: an ``old`` found other than once, a
    mutated file with no test files, or a listed test file that is missing."""
    problems = []
    for file, old, _ in MUTANTS:
        count = (ROOT / file).read_text(encoding="utf-8").count(old)
        if count != 1:
            problems.append(f"{file}: {old!r} occurs {count} times, not once")
        if file not in TESTS_OF:
            problems.append(f"{file}: no test files listed in TESTS_OF")
    for file, tests in TESTS_OF.items():
        missing = [t for t in tests if not (ROOT / "tests" / t).is_file()]
        problems += [f"{file}: tests/{t} does not exist" for t in missing]
    return problems


def suite_passes(edit: tuple[str, str, str] | None) -> bool:
    """Run the suite in a fresh copy of src/ and tests/; with ``edit``, apply
    it and run only the edited file's test files."""
    with tempfile.TemporaryDirectory(prefix="qcrawl-mutant-") as tmp:
        work = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for tree in ("src", "tests"):
            shutil.copytree(ROOT / tree, work / tree, ignore=ignore)
        targets = ["tests"]
        if edit is not None:
            file, old, new = edit
            path = work / file
            path.write_text(path.read_text(encoding="utf-8").replace(old, new), encoding="utf-8")
            targets = [f"tests/{name}" for name in TESTS_OF[file]]
        env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *targets],
            cwd=work,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        return result.returncode == 0


def main() -> int:
    problems = check_entries()
    if problems:
        print("stale mutant entries:", *problems, sep="\n  ")
        return 2
    start = time.perf_counter()
    if not suite_passes(None):
        print("the unmutated suite fails; no mutant can be judged")
        return 1
    print(f"unmutated suite passes ({time.perf_counter() - start:.1f} s)")
    survivors = 0
    for edit in MUTANTS:
        file, old, new = edit
        start = time.perf_counter()
        killed = not suite_passes(edit)
        survivors += not killed
        verdict = "killed" if killed else "SURVIVED"
        print(f"{verdict:8} {time.perf_counter() - start:5.1f} s  {file}: {old!r} -> {new!r}")
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
