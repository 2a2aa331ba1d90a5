"""Mutation check: does the test suite fail on each of a fixed list of source edits?

    python3 tests/mutants.py

Each mutant is one ``(file, old, new)`` edit, with ``file`` relative to the
repository root. For each, ``src/`` and ``tests/`` are copied to a temporary
directory, the edit is applied there, and the test files that ``TESTS_OF``
lists for ``file`` run in that copy with ``pytest -x -q -p no:cacheprovider``.
A mutant is killed when they fail. The whole unmutated suite runs first and
must pass, or every mutant would look killed. Mutated runs pass
``--hypothesis-profile=verdict``, the profile that ``tests/conftest.py``
registers: a kill needs no shrunk or explained example. An
``old`` that does not occur exactly once in its file, or a file with no test
files listed, stops the script before any run, so a stale entry cannot pass
unnoticed.

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
    # BM25 constant, term weight and collection statistics, for a built index
    (RETRIEVAL, "K1 = 1.2\n", "K1 = 1.25\n"),
    (
        RETRIEVAL,
        "norm = K1 * (1.0 - B + B * lengths[docs] / avgdl)",
        "norm = K1 * (1.0 - B) + B * lengths[docs] / avgdl",
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
    (RETRIEVAL, "ids = sorted(doc_ids)", "ids = list(doc_ids)"),
    # and for eval's index states: N and avgdl of a prefix, the query-term postings
    (RETRIEVAL, "checkpoint, total / checkpoint)", "checkpoint + 1, total / checkpoint)"),
    (RETRIEVAL, "checkpoint, total / checkpoint)", "checkpoint, total / (checkpoint + 1))"),
    (
        RETRIEVAL,
        "chain.from_iterable(query_terms.values())), count()))",
        "chain.from_iterable(list(query_terms.values())[:-1])), count()))",
    ),
    (RETRIEVAL, "lengths.append(len(tokens))", "lengths.append(max(len(tokens), 1))"),
    (
        RETRIEVAL,
        "index.doc_lengths[doc_id] = len(tokens)",
        "index.doc_lengths[doc_id] = max(len(tokens), 1)",
    ),
    # eval names the smallest unknown page that a checkpoint adds, as a full build does
    (RETRIEVAL, "unknown = min((d for d in added", "unknown = max((d for d in added"),
    (RETRIEVAL, "if unknown is not None:", "if False:"),
    # the weights of an index state and their sum in query-term order
    (RETRIEVAL, "for df in dfs.tolist()]", "for df in reversed(dfs.tolist())]"),
    (
        RETRIEVAL,
        "for t in dict.fromkeys(query_terms) if",
        "for t in reversed(dict.fromkeys(query_terms)) if",
    ),
    (
        RETRIEVAL,
        "list(dict.fromkeys(tokenize(queries[qid])))",
        "list(reversed(dict.fromkeys(tokenize(queries[qid]))))",
    ),
    # docs numbered in doc_id order, so ties go to the smaller doc_id, in search_topk and
    # in eval's recall count
    (
        RETRIEVAL,
        "doc_ids = sorted(set().union(*lists))",
        "doc_ids = sorted(set().union(*lists), reverse=True)",
    ),
    (RETRIEVAL, "reached = sorted({d for t", "reached = list({d for t"),
    # the recall count: the tie test, the strict score test, the s_r > 0 guard, the
    # rows of a query that matches more than k docs, each block's own rows, and the
    # reuse of an index state, keyed by its pages
    (RETRIEVAL, "& (keys[other] < rel_keys[owner])", "& (keys[other] <= rel_keys[owner])"),
    (RETRIEVAL, "ahead = (theirs > mine) |", "ahead = (theirs >= mine) |"),
    (RETRIEVAL, "rows[(s_r > 0) & (rank < k)]", "rows[rank < k]"),
    (RETRIEVAL, "np.where(matched > k, matched, 0)", "np.where(matched > k + 1, matched, 0)"),
    (RETRIEVAL, "rows, rel_keys = r_rows[rel] - a,", "rows, rel_keys = r_rows[rel],"),
    (RETRIEVAL, "key = np.packbits(member).tobytes()", "key = checkpoint"),
    # eval's two steps: the loading helper returns only recall rows, so the
    # pages and traces are freed before the t-tests (the mutant runs them while
    # the pages are alive, and the report is unchanged); k is checked before
    # any page is tokenised
    (
        CLI,
        "return retrieval.evaluate_recall(docs, traces, queries, qrels, args.k)",
        "return retrieval.evaluate_checkpoints(\n"
        "        docs, traces, queries, qrels, args.k, args.alpha\n    ).recall_rows",
    ),
    (
        RETRIEVAL,
        'raise ValueError("no query has judged-relevant documents")\n    if k < 1:',
        'raise ValueError("no query has judged-relevant documents")\n    if False:',
    ),
    # the report rows: each holds its dataclass's fields, k or alpha, and an infinite t as null
    (RETRIEVAL, '{"type": "recall", "k": self.k, **vars(row)}', '{"type": "recall", **vars(row)}'),
    (RETRIEVAL, '"t_infinite": infinite}', '"t_infinite": not infinite}'),
    (RETRIEVAL, "            if infinite:\n", "            if False:\n"),
    (CLI, '{"table": first_label, **vars(report)}', '{**vars(report)}'),
    # a missing-score error names its table, in stats too; eval's k is checked before
    # the corpus loads
    (CLI, 'MissingScore(f"{table}: {exc}") if table else exc', "exc"),
    (CLI, "        with _naming(args.scores[0]):\n", "        if True:\n"),
    (CLI, "    if args.k < 1:\n", "    if False:\n"),
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
    # score's single pass: the table read before the first row, each row
    # scored as it is parsed
    (
        CLI,
        "    table = quality.load_score_table(args.scores) if args.scores else None\n"
        "    rows, _ = corpus._streams(args.input, in_fmt)\n"
        "    count = 0\n"
        "    with _naming(args.scores), closing(rows), corpus.atomic_write(args.output) as fh:\n"
        "        write = corpus.RECORD_FORMATS[out_fmt][1](fh)\n"
        "        for count, row in enumerate(rows, start=1):\n",
        "    rows, _ = corpus._streams(args.input, in_fmt)\n"
        "    count = 0\n"
        "    with _naming(args.scores), closing(rows), corpus.atomic_write(args.output) as fh:\n"
        "        write = corpus.RECORD_FORMATS[out_fmt][1](fh)\n"
        "        for count, row in enumerate(rows, start=1):\n"
        "            if count == 1:\n"
        "                table = quality.load_score_table(args.scores) if args.scores else None\n",
    ),
    (CLI, "enumerate(rows, start=1)", "enumerate(list(rows), start=1)"),
    # the CSV row writer quotes a row holding a lone "\r" whole
    (CORPUS, r'"\r" in "".join(cells)', r'"\n" in "".join(cells)'),
    # main prints each subcommand's summary as one sorted-key JSON line
    (
        CLI,
        'print(_json_text(args.func(args), indent=None), end="")',
        "print(json.dumps(args.func(args)))",
    ),
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
    # input checks that name their line: trace ranks, qrels grades, score-table scores; and
    # eval's trace names and stats' table labels and score range
    (
        CRAWLER,
        'raise CorpusFormatError(f"{path}:{lineno}: non-integer rank") from None',
        "rank = len(entries) + 1",
    ),
    (CRAWLER, "if rank != len(entries) + 1:", "if False:"),
    (RETRIEVAL, "if grade < 0:", "if False:"),
    (
        QUALITY,
        'raise CorpusFormatError(f"{path}:{lineno}: unparseable score {score_s!r}") from None',
        "score = 0.0",
    ),
    (CLI, "if name in traces:", "if False:"),
    (CLI, "if label in tables:", "if False:"),
    (CLI, "if hist_list is None:", "if False:"),
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
            targets.append("--hypothesis-profile=verdict")  # a verdict, not a shrunk example
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
