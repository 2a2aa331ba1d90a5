import json

import pytest
from hypothesis import Phase, Verbosity, settings

from qcrawl import build_corpus

# tests/mutants.py runs each mutant with --hypothesis-profile=verdict: a failing example
# there needs a verdict, so this profile neither shrinks nor explains it, and stays quiet,
# so Hypothesis writes no failing-example patch. Every other run keeps the default
# profile, which does all three.
settings.register_profile(
    "verdict",
    phases=(Phase.explicit, Phase.reuse, Phase.generate),
    verbosity=Verbosity.quiet,
)


def pytest_configure(config):
    # The suite's warning policy, for every run of tests/ (Tier-1, tests/coverage.py and
    # each copy that tests/mutants.py makes): a file left open, or any exception that
    # Python can only report as "ignored", fails the test in which it happens.
    config.addinivalue_line("filterwarnings", "error::ResourceWarning")
    config.addinivalue_line("filterwarnings", "error::pytest.PytestUnraisableExceptionWarning")


@pytest.fixture
def five_node_rows():
    # a -> b,c ; b -> d ; c -> d,e ; d,e leaves
    return [
        {"doc_id": "a", "url": None, "text": "alpha beta gamma", "outlinks": ["b", "c"]},
        {"doc_id": "b", "url": "http://b", "text": "beta beta delta", "outlinks": ["d"]},
        {"doc_id": "c", "url": None, "text": "gamma gamma gamma", "outlinks": ["d", "e"]},
        {"doc_id": "d", "url": None, "text": "delta epsilon", "outlinks": []},
        {"doc_id": "e", "url": None, "text": "epsilon zeta eta", "outlinks": []},
    ]


@pytest.fixture
def two_records():
    """The same two records, a -> b, as the text of a file in each record format."""
    return {
        "jsonl": '{"doc_id": "a", "text": "x", "outlinks": ["b"]}\n{"doc_id": "b", "text": "y"}\n',
        "csv": "doc_id,url,text,outlinks\na,,x,b\nb,,y,\n",
    }


@pytest.fixture
def five_node_corpus(five_node_rows):
    return build_corpus(five_node_rows)


def write_jsonl(rows, path):
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")
    return str(path)


@pytest.fixture
def jsonl_writer():
    return write_jsonl
