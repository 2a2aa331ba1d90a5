"""Mutation check: does the test suite fail on each of a fixed list of source edits?

    python3 tests/mutants.py

Each mutant is one ``(file, old, new)`` edit, with ``file`` relative to the
repository root. For each, ``src/`` and ``tests/`` are copied to a temporary
directory, the edit is applied there, and the suite runs in that copy with
``pytest -x -q -p no:cacheprovider``. A mutant is killed when the suite fails.
The unmutated copy runs first and must pass, or every mutant would look
killed. An ``old`` that does not occur exactly once in its file stops the
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
    # the qoracle frontier key without its discovery order
    (
        "src/qcrawl/crawler.py",
        '"qoracle": lambda seq, priority: (-priority, seq),',
        '"qoracle": lambda seq, priority: -priority,',
    ),
    # input checks
    (RETRIEVAL, "if not _are_tokens([qid]):", "if not _are_tokens([qid.strip()]):"),
    (
        "src/qcrawl/crawler.py",
        "if priority is not None and not math.isfinite(priority):",
        "if priority is not None and math.isnan(priority):",
    ),
    (
        "src/qcrawl/cli.py",
        "isinstance(item, (str, int, float))",
        "isinstance(item, (str, int, float, type(None)))",
    ),
    (
        "src/qcrawl/cli.py",
        "elif any(isinstance(item, bool) for item in items):",
        "elif any(isinstance(item, bool) for item in items[1:]):",
    ),
]


def check_entries() -> list[str]:
    """Every problem with the list: an ``old`` found other than once."""
    problems = []
    for file, old, _ in MUTANTS:
        count = (ROOT / file).read_text(encoding="utf-8").count(old)
        if count != 1:
            problems.append(f"{file}: {old!r} occurs {count} times, not once")
    return problems


def suite_passes(edit: tuple[str, str, str] | None) -> bool:
    """Run the suite in a fresh copy of src/ and tests/ with ``edit`` applied."""
    with tempfile.TemporaryDirectory(prefix="qcrawl-mutant-") as tmp:
        work = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for tree in ("src", "tests"):
            shutil.copytree(ROOT / tree, work / tree, ignore=ignore)
        if edit is not None:
            file, old, new = edit
            path = work / file
            path.write_text(path.read_text(encoding="utf-8").replace(old, new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "tests"],
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
