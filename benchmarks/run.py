"""Study benchmark for qcrawl: one full study per repeat, run through the CLI.

    python3 benchmarks/run.py --workload checkpoint_sweep --seed 0 --seconds 30 --trace 0

A study is the paper's pipeline, one subcommand process after another:
``score``, ``crawl`` with bfs, dfs and qoracle, ``eval`` (BM25 Recall@100 at
every checkpoint with paired t-tests) and ``stats`` (distributions, relevance
split, homophily). Inputs are generated from --seed into a scratch directory
under the checkout before timing starts; generating them counts in no metric.
Studies repeat until --seconds have passed, and at least MIN_STUDIES times;
every metric is a median over the repeats.

End-to-end metrics: study_s (whole study), score_s, crawl_s (sum of the three
strategies) and stats_s (one subcommand process each), setup_s (a fresh
process imports qcrawl and loads the record file; median of SETUP_REPEATS),
pages_per_s (pages / study_s) and peak_rss_mb (largest peak RSS of any
subcommand). eval_s and failed_frac are printed too, and eval_s is also a
per-layer metric. Neither is a bounded end-to-end metric: corpus_scale runs
no eval, and failed_frac is 0 whenever the run is correct.

With --trace 0 the end-to-end metrics are reported. With --trace 1 each repeat
runs the study untraced and then traced (subcommands go through
``tracer.py``), and the per-layer metrics come from the traced spans; the
tracing overhead is the median over those pairs of traced minus untraced
``study_s``.

Every output file is hashed after each subcommand. For a (workload, seed)
listed in ``digests.json`` the hashes must equal the recorded ones; otherwise
every repeat must reproduce the first repeat's hashes. ``digests.json`` holds
the ``digests`` field of each workload's seed-0 record. A subcommand run fails
if it exits nonzero, if its summary line is wrong, or if a hash differs.

The last line of stdout is one JSON object with keys correct, attempted,
failed and metrics; the lines before it print each metric with its unit.
--out FILE appends a full record (environment, samples, digests) as one JSON
line, the format of the trajectory in ``trajectory.jsonl``; the record's label
is the checkout's git commit, when there is one.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
if not (SRC / "qcrawl" / "__init__.py").is_file():
    sys.exit(f"error: no qcrawl sources at {SRC}")
sys.path.insert(0, str(SRC))

import inputs  # noqa: E402

STRATEGIES = ("bfs", "dfs", "qoracle")
STATS_FILES = (
    "histograms.json",
    "js_matrix.json",
    "relevance_split.json",
    "correlation.json",
    "hexbin.csv",
)
K = 100
# qcrawl's default of 1000 leaves hexbin.csv header-only on the 8,000-page
# workloads; at 100 every workload emits cells, so their digests check them.
HEXBIN_MIN_COUNT = 100
SETUP_REPEATS = 3
MIN_STUDIES = 2
# A run must end within 180 s; a subcommand still running at this mark is killed.
RUN_LIMIT_S = 170
STARTED = time.monotonic()
# What the installed ``qcrawl`` console script runs.
CLI_MAIN = "import sys; from qcrawl.cli import main; sys.exit(main())"


@dataclass(frozen=True)
class Workload:
    generate: Callable[[Path, int], None]  # writes the inputs.py files for a seed
    n: int
    checkpoints: int
    evaluates: bool = True


# Workloads by name; BENCHMARK.json records why each one exists.
WORKLOADS = {
    "checkpoint_sweep": Workload(
        partial(inputs.synthetic, n_nodes=8000, n_queries=60, n_seeds=100),
        n=8000,
        checkpoints=20,
    ),
    "query_heavy": Workload(
        partial(
            inputs.zipf_corpus,
            n_nodes=8000,
            n_queries=800,
            vocab=20000,
            doc_len=48,
            band=(40, 400),
        ),
        n=8000,
        checkpoints=2,
    ),
    "corpus_scale": Workload(
        partial(inputs.synthetic, n_nodes=30000, n_queries=60, n_seeds=100),
        n=30000,
        checkpoints=20,
        evaluates=False,
    ),
    # tiny exists for the self-test in test_bench.py
    "tiny": Workload(
        partial(inputs.synthetic, n_nodes=300, n_queries=10, n_seeds=5),
        n=300,
        checkpoints=4,
    ),
}


# (name, unit, better) as in BENCHMARK.json.
END_TO_END = (
    ("study_s", "s", "lower"),
    ("score_s", "s", "lower"),
    ("crawl_s", "s", "lower"),
    ("stats_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("pages_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
)

PER_LAYER = (
    ("corpus.parse_records.s", "s"),
    ("corpus.build_corpus.s", "s"),
    ("corpus.load_corpus.calls", "count"),
    ("corpus.records_parsed", "count"),
    ("quality.score_text_reference.s", "s"),
    ("quality.score_text_reference.calls", "count"),
    ("quality.load_score_table.s", "s"),
    ("quality.mean_outlink_quality.s", "s"),
    ("crawler.run_crawl.bfs.s", "s"),
    ("crawler.run_crawl.dfs.s", "s"),
    ("crawler.run_crawl.qoracle.s", "s"),
    ("crawler.pages", "count"),
    ("crawler.write_trace.s", "s"),
    ("crawler.read_trace.s", "s"),
    ("retrieval.build_index.s", "s"),
    ("retrieval.build_index.calls", "count"),
    ("retrieval.build_index.docs", "count"),
    ("retrieval.index.postings", "count"),
    ("retrieval.tokenize.s", "s"),
    ("retrieval.tokenize.calls", "count"),
    ("retrieval.tokenize.useful_ratio", "ratio"),
    ("retrieval.search_topk.s", "s"),
    ("retrieval.search_topk.calls", "count"),
    ("retrieval.search_topk.postings", "count"),
    ("retrieval.recall_at_k.s", "s"),
    ("retrieval.paired_t_test_bonferroni.s", "s"),
    ("retrieval.to_jsonl.s", "s"),
    ("retrieval.evaluate_checkpoints.self_s", "s"),
    ("analytics.correlation_study.s", "s"),
    ("analytics.hexbin.s", "s"),
    ("analytics.hexbin.points", "count"),
    ("analytics.histogram.s", "s"),
    ("analytics.js_distance.s", "s"),
    ("analytics.undersample.s", "s"),
    ("cli.score.self_s", "s"),
    ("cli.crawl.self_s", "s"),
    ("cli.eval.self_s", "s"),
    ("cli.stats.self_s", "s"),
    ("eval_s", "s"),
    ("trace.overhead_s", "s"),
)


class BenchError(Exception):
    """The benchmark cannot produce a result."""


@dataclass
class Run:
    """One subcommand process: label, wall time, peak RSS and verdict."""

    command: str
    wall_s: float
    rss_mb: float
    ok: bool
    spans: dict | None = None


@dataclass
class Study:
    runs: list[Run] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(r.wall_s for r in self.runs)

    def time_of(self, command: str) -> float:
        return sum(r.wall_s for r in self.runs if r.command == command)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _raise_timeout(signum, frame):
    raise TimeoutError("subcommand ran past its time limit")


def _raise_exit(signum, frame):
    raise SystemExit(128 + signum)


def run_process(argv, cwd: Path, log: Path) -> tuple[int, float, float]:
    """Run argv to completion; return (exit code, wall seconds, peak RSS MB)."""
    with open(log.with_suffix(".out"), "wb") as out, open(log.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=out, stderr=err)
        signal.alarm(max(1, int(RUN_LIMIT_S - (time.monotonic() - STARTED))))
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            signal.alarm(0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class StudyRunner:
    """Runs studies of one workload in a work directory and checks outputs."""

    def __init__(self, name: str, workload: Workload, seed: int, work: Path):
        self.name, self.workload, self.seed, self.work = name, workload, seed, work
        self.in_dir = work / "in"
        self.out_dir = work / "out"
        self.log_dir = work / "log"
        for d in (self.in_dir, self.log_dir):
            d.mkdir()
        recorded = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
        self.reference: dict[str, str] | None = recorded.get(name, {}).get(str(seed))
        self.first_digests: dict[str, str] = {}

    def generate(self) -> None:
        self.workload.generate(self.in_dir, self.seed)

    def commands(self) -> list[tuple[str, list[str], list[str]]]:
        """(command label, qcrawl argv, output paths) for one study."""
        records, seeds = f"in/{inputs.RECORDS}", f"in/{inputs.SEEDS}"
        qrels = f"in/{inputs.QRELS}"
        n, interval = self.workload.n, self.workload.n // self.workload.checkpoints
        argv = ["score", "--input", records, "--output", "out/scored.jsonl"]
        steps = [("score", argv, ["scored.jsonl"])]
        for strategy in STRATEGIES:
            argv = ["crawl", "--input", records, "--seeds", seeds]
            argv += ["--strategy", strategy, "--budget", str(n)]
            argv += ["--checkpoint-interval", str(interval), "--output", f"out/{strategy}.trace"]
            if strategy == "qoracle":
                argv += ["--scores", f"in/{inputs.TABLES[0]}"]
            steps.append(("crawl", argv, [f"{strategy}.trace"]))
        if self.workload.evaluates:
            argv = ["eval", "--input", records]
            for strategy in STRATEGIES:
                argv += ["--trace", f"{strategy}=out/{strategy}.trace"]
            argv += ["--queries", f"in/{inputs.QUERIES}", "--qrels", qrels]
            argv += ["--k", str(K), "--output", "out/report.jsonl"]
            steps.append(("eval", argv, ["report.jsonl"]))
        argv = ["stats"]
        for table in inputs.TABLES:
            argv += ["--scores", f"in/{table}"]
        argv += ["--input", records, "--qrels", qrels, "--undersample"]
        argv += ["--min-count", str(HEXBIN_MIN_COUNT)]
        argv += ["--rng-seed", str(self.seed), "--output", "out/stats"]
        steps.append(("stats", argv, [f"stats/{f}" for f in STATS_FILES]))
        return steps

    def summary_ok(self, command: str, summary: dict) -> bool:
        """Check the subcommand's stdout summary against the workload's shape."""
        n = self.workload.n
        if command == "score":
            return summary.get("records_scored") == n
        checkpoints = len(summary.get("checkpoints", ()))
        if command == "crawl":
            return summary.get("pages_crawled") == n and checkpoints == self.workload.checkpoints
        if command == "eval":
            return (
                summary.get("strategies") == list(STRATEGIES)
                and checkpoints == self.workload.checkpoints
            )
        return not summary.get("skipped")

    def outputs_ok(self, outputs: list[str]) -> bool:
        ok = True
        for rel in outputs:
            path = self.out_dir / rel
            digest = sha256(path) if path.is_file() else None
            if self.reference is None:
                self.first_digests.setdefault(rel, digest)
            expected = (self.reference or self.first_digests).get(rel)
            if digest is None or digest != expected:
                print(f"output mismatch: {rel} {digest} != {expected}", file=sys.stderr)
                ok = False
        return ok

    def study(self, traced: bool, index: int) -> Study:
        shutil.rmtree(self.out_dir, ignore_errors=True)
        self.out_dir.mkdir()
        study = Study()
        for step, (command, argv, outputs) in enumerate(self.commands()):
            log = self.log_dir / f"{index}-{step}-{command}"
            spans_path = log.with_suffix(".spans.json")
            if traced:
                prefix = [sys.executable, str(HERE / "tracer.py"), str(spans_path)]
            else:
                prefix = [sys.executable, "-c", CLI_MAIN]
            code, wall, rss = run_process(prefix + argv, self.work, log)
            ok = code == 0
            if ok:
                lines = log.with_suffix(".out").read_text().splitlines()
                ok = bool(lines) and self.summary_ok(command, json.loads(lines[-1]))
                ok = self.outputs_ok(outputs) and ok
            else:
                err = log.with_suffix(".err").read_text()[-2000:]
                print(f"{command} exited {code}: {err}", file=sys.stderr)
            spans = json.loads(spans_path.read_text()) if traced and spans_path.exists() else None
            study.runs.append(Run(command, wall, rss, ok, spans))
        return study

    def setup_probe(self) -> float:
        argv = [sys.executable, "-c", "import sys, qcrawl; qcrawl.load_corpus(sys.argv[1])"]
        log = self.log_dir / "setup"
        code, wall, _ = run_process(argv + [f"in/{inputs.RECORDS}"], self.work, log)
        if code != 0:
            raise BenchError("setup probe failed: " + log.with_suffix(".err").read_text()[-2000:])
        return wall


def span_totals(runs: list[Run]) -> tuple[dict, dict, dict, dict]:
    """Inclusive seconds, self seconds and calls per span name, plus counters."""
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    counters: dict[str, float] = {}
    for run in runs:
        names, spans = run.spans["names"], run.spans["spans"]
        child = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        for (name_id, start, end, _), covered in zip(spans, child):
            name = names[name_id]
            total[name] = total.get(name, 0.0) + (end - start)
            self_s[name] = self_s.get(name, 0.0) + (end - start - covered)
            calls[name] = calls.get(name, 0) + 1
        for key, value in run.spans["counters"].items():
            counters[key] = counters.get(key, 0) + value
    return total, self_s, calls, counters


def layer_metrics(study: Study) -> dict[str, float]:
    """Per-layer values of one traced study, by the metric names of PER_LAYER."""
    total, self_s, calls, counters = span_totals(study.runs)
    evals = [r for r in study.runs if r.command == "eval"]
    eval_calls = span_totals(evals)[2].get("retrieval.tokenize", 0) if evals else 0
    eval_texts = sum(r.spans["counters"]["retrieval.tokenize.distinct_texts"] for r in evals)
    values = {}
    for name, _ in PER_LAYER:
        for suffix, table in ((".self_s", self_s), (".calls", calls), (".s", total)):
            if name.endswith(suffix):
                values[name] = table.get(name[: -len(suffix)], 0)
                break
        else:
            values[name] = counters.get(name, 0)
    values["retrieval.tokenize.useful_ratio"] = eval_texts / eval_calls if eval_calls else 0.0
    return values


def git_commit() -> str | None:
    """Short hash of the checkout's commit, or None outside a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, capture_output=True, text=True
    )
    return out.stdout.strip() or None


def environment() -> dict:
    import numpy
    import scipy

    return {
        "label": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "machine": platform.machine(),
    }


def measure(args, name: str, workload: Workload) -> dict:
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-{args.seed}-", dir=ROOT / ".bench_work"))
    try:
        runner = StudyRunner(name, workload, args.seed, work)
        runner.generate()
        setup = [runner.setup_probe() for _ in range(SETUP_REPEATS)]
        plain: list[Study] = []
        traced: list[Study] = []
        deadline = time.perf_counter() + args.seconds
        min_studies = 1 if args.trace else MIN_STUDIES
        while len(plain) < min_studies or time.perf_counter() < deadline:
            plain.append(runner.study(False, len(plain) + len(traced)))
            if args.trace:
                traced.append(runner.study(True, len(plain) + len(traced)))
        digests = runner.reference or runner.first_digests
    finally:
        shutil.rmtree(work, ignore_errors=True)

    studies = plain + traced
    runs = [r for s in studies for r in s.runs]
    failed = sum(not r.ok for r in runs)
    med = statistics.median
    study_s = med(s.wall_s for s in plain)
    e2e = {
        "study_s": study_s,
        "score_s": med(s.time_of("score") for s in plain),
        "crawl_s": med(s.time_of("crawl") for s in plain),
        "stats_s": med(s.time_of("stats") for s in plain),
        "setup_s": med(setup),
        "pages_per_s": workload.n / study_s,
        "peak_rss_mb": med(max(r.rss_mb for r in s.runs) for s in plain),
    }
    eval_s = med(s.time_of("eval") for s in plain)
    if args.trace:
        layers = [layer_metrics(s) for s in traced]
        metrics = {n: med(v[n] for v in layers) for n, _ in PER_LAYER}
        metrics["eval_s"] = eval_s
        # Per untraced/traced pair; with one pair it is within the run-to-run drift.
        metrics["trace.overhead_s"] = med(t.wall_s - p.wall_s for p, t in zip(plain, traced))
        units = dict(PER_LAYER)
    else:
        metrics = e2e
        units = {n: u for n, u, _ in END_TO_END}
    return {
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "studies": len(plain),
        "traced_studies": len(traced),
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "failed_frac": failed / len(runs),
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units},
        "eval_s": eval_s if workload.evaluates else None,
        "samples": {
            "study_s": [s.wall_s for s in plain],
            "setup_s": setup,
            "traced_study_s": [s.wall_s for s in traced],
            "runs": [[(r.command, r.wall_s) for r in s.runs] for s in studies],
        },
        "digests": digests,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the full result record to this JSON-lines file")
    args = parser.parse_args(argv)

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    env = environment()
    signal.signal(signal.SIGALRM, _raise_timeout)
    signal.signal(signal.SIGTERM, _raise_exit)
    try:
        result = measure(args, args.workload, WORKLOADS[args.workload])
    except (BenchError, TimeoutError) as exc:
        print(f"error: {exc!r}", file=sys.stderr)
        return 1

    print(json.dumps({"env": env}, sort_keys=True))
    shown = dict(result["metrics"], failed_frac={"value": result["failed_frac"], "unit": "ratio"})
    if not args.trace and result["eval_s"] is not None:
        shown["eval_s"] = {"value": result["eval_s"], "unit": "s"}
    for name, metric in shown.items():
        print(f"{name:42s} {metric['value']:>14.6g} {metric['unit']}")
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(dict(result, env=env), sort_keys=True) + "\n")
    keys = ("correct", "attempted", "failed", "metrics")
    print(json.dumps({k: result[k] for k in keys}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
