"""Quality-driven web-crawl prioritisation simulator and analytics toolkit.

Replays crawl strategies (bfs, dfs, qoracle) over a stored web graph,
evaluates downstream BM25 retrieval recall at crawl checkpoints, and
computes quality-distribution and quality-homophily statistics.

Every public name is imported from its submodule on first use (PEP 562), so
``import qcrawl`` loads neither numpy nor scipy until a name that needs them
is used.
"""

from importlib import import_module

# Every public name, in the order of __all__, with the submodule that defines it.
_SUBMODULE_OF = {
    "CorrelationReport": "analytics",
    "CorpusFormatError": "errors",
    "CrawlTrace": "crawler",
    "DocumentRecord": "corpus",
    "EmptyText": "errors",
    "EvalReport": "retrieval",
    "HexbinGrid": "analytics",
    "Histogram": "analytics",
    "InvertedIndex": "retrieval",
    "LoadStats": "corpus",
    "MissingScore": "errors",
    "NoOutlinks": "errors",
    "QCrawlError": "errors",
    "STRATEGIES": "crawler",
    "SkippedQuery": "errors",
    "TTestResult": "retrieval",
    "UndefinedCorrelation": "errors",
    "UnknownDoc": "errors",
    "WebGraph": "corpus",
    "ZeroWidth": "errors",
    "build_corpus": "corpus",
    "build_index": "retrieval",
    "correlation_study": "analytics",
    "evaluate_checkpoints": "retrieval",
    "hexbin": "analytics",
    "histogram": "analytics",
    "js_distance": "analytics",
    "load_corpus": "corpus",
    "load_edges": "corpus",
    "load_qrels": "retrieval",
    "load_queries": "retrieval",
    "load_score_table": "quality",
    "load_seeds": "corpus",
    "mean_outlink_quality": "quality",
    "ols_regression": "analytics",
    "paired_t_test_bonferroni": "retrieval",
    "pearson": "analytics",
    "quartiles": "analytics",
    "read_trace": "crawler",
    "recall_at_k": "retrieval",
    "run_crawl": "crawler",
    "score_batch": "quality",
    "score_text_reference": "quality",
    "search_topk": "retrieval",
    "split_by_relevance": "analytics",
    "synthetic_corpus": "synth",
    "t_p_value": "retrieval",
    "tokenize": "retrieval",
    "trace_prefix": "crawler",
    "undersample": "analytics",
    "write_score_table": "quality",
    "write_trace": "crawler",
}

__version__ = "0.1.0"

__all__ = list(_SUBMODULE_OF)


def __getattr__(name: str):
    module = _SUBMODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
