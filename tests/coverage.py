"""Coverage gate: does the test suite run every executable line of src/qcrawl?

    PYTHONPATH=src python3 tests/coverage.py

Runs ``pytest.main`` over the whole of ``tests/`` with ``sys.settrace`` and
``threading.settrace`` set, and records each line that runs in a file of
``src/qcrawl``. A file's executable lines are those that ``co_lines()`` gives
for its compiled code, nested code included. Every one must run, except a line
whose source holds ``# pragma: no cover``, which must say why no test can run it
and must not run. The trace functions are module-level functions, not closures:
a closure would leave a reference cycle per traced call, and a test that counts
cyclic garbage would fail under the gate only.

Exit status: pytest's own when the suite fails, 1 when a line is left unreached
or a marked line runs, 0 otherwise. Uses only the standard library. It is not
part of the test suite; CI runs it as its own step.
"""

from __future__ import annotations

import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qcrawl"
MARKER = "# pragma: no cover"
_SOURCES = {os.path.realpath(path) for path in PACKAGE.glob("*.py")}
_OURS: dict[str, bool] = {}  # co_filename -> whether it is a file of src/qcrawl
_REACHED: set[tuple[str, int]] = set()  # (co_filename, line) of each line that ran


def _on_call(frame, event, arg):
    """The global trace function: trace the lines of a call into src/qcrawl only."""
    name = frame.f_code.co_filename
    ours = _OURS.get(name)
    if ours is None:
        ours = _OURS[name] = os.path.realpath(name) in _SOURCES
    return _on_line if ours else None


def _on_line(frame, event, arg):
    """The local trace function of a src/qcrawl frame."""
    if event == "line":
        _REACHED.add((frame.f_code.co_filename, frame.f_lineno))
    return _on_line


def executable_lines(path: str) -> set[int]:
    """The lines that hold an instruction of the file's compiled code."""
    with open(path, encoding="utf-8") as fh:
        codes = [compile(fh.read(), path, "exec")]
    lines: set[int] = set()
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # 0: a module's start
        codes.extend(c for c in code.co_consts if isinstance(c, type(code)))
    return lines


def gaps(reached: set[tuple[str, int]]) -> tuple[list[str], list[str], list[str]]:
    """(unreached unmarked lines, reached marked lines, marked lines), each as
    ``path:line: source``."""
    ran: dict[str, set[int]] = {}
    for name, line in reached:
        ran.setdefault(os.path.realpath(name), set()).add(line)
    unreached, marked_ran, marked = [], [], []
    for path in sorted(_SOURCES):
        with open(path, encoding="utf-8") as fh:
            source = fh.read().splitlines()
        for line in sorted(executable_lines(path)):
            entry = f"{os.path.relpath(path, ROOT)}:{line}: {source[line - 1].strip()}"
            if MARKER in source[line - 1]:
                marked.append(entry)
                if line in ran.get(path, ()):
                    marked_ran.append(entry)
            elif line not in ran.get(path, ()):
                unreached.append(entry)
    return unreached, marked_ran, marked


def main() -> int:
    import pytest

    threading.settrace(_on_call)
    sys.settrace(_on_call)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    if status != 0:
        print(f"the suite fails (pytest exit status {status}); coverage not judged")
        return int(status)
    unreached, marked_ran, marked = gaps(_REACHED)
    for entry in unreached:
        print(f"unreached: {entry}")
    for entry in marked_ran:
        print(f"marked, but reached: {entry}")
    if unreached or marked_ran:
        return 1
    print(f"every unmarked executable line of {os.path.relpath(PACKAGE, ROOT)} ran; skipped:")
    print(*marked, sep="\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
