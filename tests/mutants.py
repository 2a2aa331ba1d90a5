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
unmutated suite fails, 2 on a stale entry. Uses only the standard library;
it is run on demand and is not part of the test suite.
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
        "return length, {t: n for t, n in tf.items() if t in vocabulary}",
        "return max(length, 1), {t: n for t, n in tf.items() if t in vocabulary}",
    ),
    # the qoracle frontier key without its discovery order
    (
        "src/qcrawl/crawler.py",
        '"qoracle": lambda seq, priority: (-priority, seq),',
        '"qoracle": lambda seq, priority: -priority,',
    ),
    # input checks
    (RETRIEVAL, "if not _are_tokens([qid]):", "if not _are_tokens([qid.strip()]):"),
    (
        "src/qcrawl/cli.py",
        "isinstance(item, (str, int, float))",
        "isinstance(item, (str, int, float, type(None)))",
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
