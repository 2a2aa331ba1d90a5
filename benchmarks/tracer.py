"""Run one qcrawl subcommand with a span around each layer's public functions.

Usage: python3 benchmarks/tracer.py SPANS_JSON SUBCOMMAND [ARGS...]

The wrappers are installed from outside the package: every module attribute
of ``qcrawl`` that is one of the listed functions is replaced, so calls made
through by-name imports (``quality.tokenize``, ``analytics.mean_outlink_quality``,
``retrieval.trace_prefix``) are traced too. Spans are (name, start, end,
parent index) and stay in memory until the subcommand returns; then they are
written to SPANS_JSON together with the counters taken in the wrappers.
Counters that cost real work are computed after the function's span has
closed, inside a ``trace.count`` span, so they land in no layer's self time.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

from qcrawl import analytics, cli, corpus, crawler, quality, retrieval

# Functions a study calls, by module. A renamed function fails the lookup in
# install() rather than silently dropping its layer.
TRACED = {
    corpus: ("parse_records", "build_corpus", "load_corpus", "load_seeds"),
    quality: ("score_text_reference", "load_score_table", "mean_outlink_quality"),
    crawler: ("run_crawl", "write_trace", "read_trace", "trace_prefix"),
    retrieval: (
        "tokenize",
        "build_index",
        "search_topk",
        "recall_at_k",
        "paired_t_test_bonferroni",
        "evaluate_checkpoints",
        "load_queries",
        "load_qrels",
    ),
    analytics: (
        "correlation_study",
        "pearson",
        "ols_regression",
        "hexbin",
        "histogram",
        "js_distance",
        "undersample",
        "split_by_relevance",
        "quartiles",
    ),
}


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1)
        self.stack: list[int] = []
        self.counters: dict[str, int] = {}
        self.texts: set[str] = set()

    def add(self, name: str, value: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def wrap(self, name, fn, count=None, label=None):
        """Span-recording stand-in for fn.

        label(bound_args) names the span from the call's arguments;
        count(bound_args, result) updates counters outside the span.
        """
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = signature.bind(*args, **kwargs).arguments if (label or count) else None
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (label(bound) if label else name, start, end, parent)
            if count:
                count(bound, result)
                spans.append(("trace.count", end, clock(), parent))
            return result

        return traced

    def traced_tokenize(self, fn):
        """tokenize runs ~10^5 times per study: no argument binding, and the
        distinct-text set is its only counter."""
        spans, stack, clock, texts = self.spans, self.stack, time.perf_counter, self.texts

        @functools.wraps(fn)
        def traced(text):
            parent = stack[-1] if stack else -1
            start = clock()
            result = fn(text)
            spans.append(("retrieval.tokenize", start, clock(), parent))
            texts.add(text)
            return result

        return traced

    def install(self) -> None:
        counts = {
            "parse_records": lambda a, r: self.add("corpus.records_parsed", len(r)),
            "run_crawl": lambda a, r: self.add("crawler.pages", len(r)),
            "build_index": self._count_index,
            "search_topk": self._count_search,
            "hexbin": lambda a, r: self.add("analytics.hexbin.points", r.n_points),
        }
        labels = {"run_crawl": lambda a: f"crawler.run_crawl.{a['strategy']}"}
        replaced = {}
        for module, names in TRACED.items():
            layer = module.__name__.rsplit(".", 1)[1]
            for name in names:
                fn = getattr(module, name)
                if name == "tokenize":
                    replaced[fn] = self.traced_tokenize(fn)
                else:
                    replaced[fn] = self.wrap(
                        f"{layer}.{name}", fn, counts.get(name), labels.get(name)
                    )
        mods = [m for n, m in sys.modules.items() if n == "qcrawl" or n.startswith("qcrawl.")]
        for module in mods:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in replaced:
                    setattr(module, attr, replaced[value])
        report = retrieval.EvalReport
        report.to_jsonl = self.wrap("retrieval.to_jsonl", report.to_jsonl)

    def _count_index(self, args, index) -> None:
        self.add("retrieval.build_index.docs", index.doc_count)
        self.add("retrieval.index.postings", sum(len(p) for p in index.postings.values()))

    def _count_search(self, args, ranked) -> None:
        postings = args["index"].postings
        terms = set(args["query_terms"])
        self.add("retrieval.search_topk.postings", sum(len(postings.get(t, ())) for t in terms))

    def dump(self, path: str) -> None:
        names: dict[str, int] = {}
        rows = [
            [names.setdefault(name, len(names)), start, end, parent]
            for name, start, end, parent in self.spans
        ]
        counters = dict(self.counters, **{"retrieval.tokenize.distinct_texts": len(self.texts)})
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": list(names), "spans": rows, "counters": counters}, fh)


def main(argv: list[str]) -> int:
    spans_path, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    run = tracer.wrap(f"cli.{cli_argv[0]}", cli.main)
    try:
        return run(cli_argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
