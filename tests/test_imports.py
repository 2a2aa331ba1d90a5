"""Each subcommand imports only what it runs, and the public API resolves
lazily: scipy is loaded only by eval's t-test, numpy only by eval's ranking,
stats, the analytics functions and synthetic_corpus."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qcrawl
from qcrawl import crawler

SRC = str(Path(qcrawl.__file__).resolve().parent.parent)

# Runs BODY in a fresh interpreter, then prints which heavy modules it loaded.
_PROBE = """
import json, sys
{body}
print(json.dumps(sorted(m for m in ("numpy", "scipy") if m in sys.modules)))
"""
_RUN_MAIN = "from qcrawl.cli import main\nassert main(sys.argv[1:]) == 0"


def _heavy_modules(body: str, *argv: str, cwd) -> list[str]:
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE.format(body=body), *argv],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture
def files(tmp_path, five_node_rows, jsonl_writer):
    jsonl_writer(five_node_rows, tmp_path / "corpus.jsonl")
    (tmp_path / "seeds.txt").write_text("a\n")
    (tmp_path / "scores.tsv").write_text("a\t-1.0\nb\t-0.5\nc\t-2.0\nd\t-0.25\ne\t-3.0\n")
    (tmp_path / "trace.tsv").write_text("#checkpoints\t2\n1\ta\t-\n2\tb\t-\n")
    return tmp_path


@pytest.mark.parametrize(
    "argv",
    [
        ["score", "--input", "corpus.jsonl", "--output", "scored.jsonl"],
        ["crawl", "--input", "corpus.jsonl", "--seeds", "seeds.txt", "--strategy", "qoracle",
         "--budget", "5", "--checkpoint-interval", "2", "--scores", "scores.tsv",
         "--output", "out.tsv"],
        ["index", "--input", "corpus.jsonl", "--trace", "trace.tsv"],
    ],
    ids=["score", "crawl", "index"],
)
def test_subcommand_loads_neither_numpy_nor_scipy(files, argv):
    assert _heavy_modules(_RUN_MAIN, *argv, cwd=files) == []


def test_stats_loads_no_scipy(files):
    argv = ["stats", "--scores", "scores.tsv", "--input", "corpus.jsonl", "--output", "st"]
    assert _heavy_modules(_RUN_MAIN, *argv, cwd=files) == ["numpy"]


def test_load_corpus_through_the_package_loads_neither(files):
    body = "import qcrawl\nqcrawl.load_corpus(sys.argv[1])"
    assert _heavy_modules(body, "corpus.jsonl", cwd=files) == []


def test_importing_retrieval_loads_neither(tmp_path):
    # numpy is imported by the ranking path, scipy by the t-test, each on first use
    assert _heavy_modules("import qcrawl.retrieval", cwd=tmp_path) == []


def test_every_public_name_is_its_submodule_object():
    for name in qcrawl.__all__:
        obj = getattr(qcrawl, name)
        if name == "STRATEGIES":
            assert obj is crawler.STRATEGIES
            continue
        assert obj.__module__.startswith("qcrawl.")
        assert getattr(sys.modules[obj.__module__], name) is obj, name


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from qcrawl import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(qcrawl.__all__)
    assert all(namespace[name] is getattr(qcrawl, name) for name in namespace)


def test_unknown_attribute_is_named():
    with pytest.raises(AttributeError, match="module 'qcrawl' has no attribute 'no_such_name'"):
        qcrawl.no_such_name  # noqa: B018
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from qcrawl import no_such_name", {})


def test_dir_lists_the_public_api():
    listed = dir(qcrawl)
    assert set(qcrawl.__all__) <= set(listed)
    assert "__version__" in listed
    assert listed == sorted(set(listed))
