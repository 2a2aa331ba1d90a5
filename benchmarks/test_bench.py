"""Self-test of the study benchmark on its tiny workload.

    PYTHONPATH=src python3 -m pytest -q benchmarks

Checks that every wrapper in tracer.py records at least one span, that the
layer counts match their closed forms, that an untraced repeat reproduces the
traced outputs byte for byte, and that BENCHMARK.json names the metrics
run.py reports. A renamed or bypassed function shows up here as a missing span.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

SEED = 3


@pytest.fixture(scope="module")
def runner():
    (run.ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.ROOT / ".bench_work"))
    try:
        runner = run.StudyRunner("tiny", run.WORKLOADS["tiny"], SEED, work)
        runner.generate()
        yield runner
    finally:
        shutil.rmtree(work)


@pytest.fixture(scope="module")
def traced(runner):
    return runner.study(traced=True, index=0)


def test_every_run_passes(traced):
    assert [r.command for r in traced.runs] == ["score", "crawl", "crawl", "crawl", "eval", "stats"]
    assert all(r.ok for r in traced.runs)


def test_every_wrapper_records_a_span(traced):
    seen = {r.spans["names"][span[0]] for r in traced.runs for span in r.spans["spans"]}
    expected = {"retrieval.to_jsonl", "trace.count"}
    expected |= {f"cli.{c}" for c in ("score", "crawl", "eval", "stats")}
    for module, names in tracer.TRACED.items():
        layer = module.__name__.rsplit(".", 1)[1]
        expected |= {f"{layer}.{name}" for name in names if name != "run_crawl"}
    expected |= {f"crawler.run_crawl.{s}" for s in run.STRATEGIES}
    assert expected <= seen, sorted(expected - seen)


def test_counts_match_closed_forms(runner, traced):
    wl = runner.workload
    layers = run.layer_metrics(traced)
    n_eval_queries = len({line.split()[0] for line in (runner.in_dir / inputs.QRELS).open()})
    assert layers["retrieval.build_index.calls"] == len(run.STRATEGIES) * wl.checkpoints
    assert layers["retrieval.search_topk.calls"] == (
        len(run.STRATEGIES) * wl.checkpoints * n_eval_queries
    )
    assert layers["crawler.pages"] == len(run.STRATEGIES) * wl.n
    # score parses the records; crawl x3, eval and stats load the corpus
    assert layers["corpus.load_corpus.calls"] == 5
    assert layers["corpus.records_parsed"] == 6 * wl.n
    assert layers["quality.score_text_reference.calls"] == wl.n
    assert layers["analytics.hexbin.points"] == wl.n
    # checkpoint c of every strategy indexes c * n / checkpoints pages
    step = wl.n // wl.checkpoints
    prefix_docs = sum(c * step for c in range(1, wl.checkpoints + 1))
    assert layers["retrieval.build_index.docs"] == len(run.STRATEGIES) * prefix_docs
    assert 0 < layers["retrieval.tokenize.useful_ratio"] < 1


def test_self_times_never_exceed_totals(traced):
    total, self_s, _, _ = run.span_totals(traced.runs)
    for name, value in self_s.items():
        assert -1e-6 <= value <= total[name] + 1e-9, name


def test_untraced_repeat_is_byte_identical(runner, traced):
    again = runner.study(traced=False, index=1)
    assert all(r.ok for r in again.runs)


def test_benchmark_json_matches_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    end_to_end = [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
    assert end_to_end == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
