"""Command-line interface: score, crawl, index, eval, stats.

Every subcommand is deterministic: identical inputs (and --rng-seed where
randomness is involved) produce byte-identical outputs. Diagnostics go to
stderr; summaries and reports go to stdout or the requested output files.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from pathlib import Path

from . import corpus, crawler, quality, retrieval
from .errors import QCrawlError

RECORD_FORMATS = ("jsonl", "csv")


def _parse_format(value: str) -> tuple[str, str]:
    """'in:out' format pair; a single name applies to both sides."""
    in_fmt, colon, out_fmt = value.partition(":")
    pair = (in_fmt, out_fmt if colon else in_fmt)
    for fmt in pair:
        if fmt not in RECORD_FORMATS:
            raise ValueError(f"unsupported format {fmt!r}; expected one of {RECORD_FORMATS}")
    return pair


def _write_rows_jsonl(rows, path):
    with corpus.atomic_write(path) as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


def _write_rows_csv(rows, path):
    fields = list(corpus.RECORD_FIELDS) + ["quality_score"]
    with corpus.atomic_write(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        # csv quotes a cell holding "\n" but not a lone "\r", which a reader
        # takes for a line end, so a row holding one is quoted whole
        quote_all = csv.writer(fh, lineterminator="\n", quoting=csv.QUOTE_ALL)
        writer.writerow(fields)
        for row in rows:
            cells = [
                row["doc_id"],
                row.get("url") or "",
                row["text"],
                " ".join(row.get("outlinks", [])),
                repr(row["quality_score"]),
            ]
            (quote_all if "\r" in "".join(cells) else writer).writerow(cells)


def cmd_score(args) -> int:
    in_fmt, out_fmt = _parse_format(args.format)
    rows = corpus.parse_records(args.input, in_fmt)
    table = quality.load_score_table(args.scores) if args.scores else None
    scored = []
    for row in rows:
        if "quality_score" in row:
            raise QCrawlError(
                f"record {row['doc_id']!r} already has a quality_score field"
            )
        out_row = dict(row)
        out_row["quality_score"] = quality.score_record(table, row["doc_id"], row["text"])
        scored.append(out_row)
    if out_fmt == "jsonl":
        _write_rows_jsonl(scored, args.output)
    else:
        _write_rows_csv(scored, args.output)
    print(json.dumps({"records_scored": len(scored), "output": args.output}, sort_keys=True))
    return 0


def cmd_crawl(args) -> int:
    graph, stats = corpus.load_graph(args.input, args.format, args.edges)
    seeds = corpus.load_seeds(args.seeds, graph)
    scores = quality.load_score_table(args.scores) if args.scores else None
    trace = crawler.run_crawl(
        graph,
        seeds,
        args.strategy,
        budget=args.budget,
        checkpoint_interval=args.checkpoint_interval,
        scores=scores,
    )
    crawler.write_trace(trace, args.output)
    print(
        json.dumps(
            {
                "strategy": args.strategy,
                "pages_crawled": len(trace),
                "checkpoints": trace.checkpoint_ranks,
                "dangling_edges": stats.dangling_dropped,
                "output": args.output,
            },
            sort_keys=True,
        )
    )
    return 0


def cmd_index(args) -> int:
    if args.rank is not None and not args.trace:
        raise QCrawlError("--rank requires --trace")
    docs, _, _ = corpus.load_corpus(args.input, args.format, args.edges)
    if args.trace:
        trace = crawler.read_trace(args.trace, docs)
        rank = len(trace) if args.rank is None else args.rank
        doc_ids = crawler.trace_prefix(trace, rank)
    else:
        doc_ids = set(docs)
    index = retrieval.build_index(docs, doc_ids)
    stats = {
        "documents": index.doc_count,
        "avgdl": index.avgdl,
        "terms": len(index.postings),
        "postings": sum(len(p) for p in index.postings.values()),
        "tokens_total": sum(index.doc_lengths.values()),
    }
    payload = json.dumps(stats, sort_keys=True)
    if args.output:
        with corpus.atomic_write(args.output) as fh:
            fh.write(payload + "\n")
    print(payload)
    return 0


def _eval_recall(args) -> list:
    """Load eval's inputs and run the recall step: the pages and traces die with this call."""
    docs, _, _ = corpus.load_corpus(args.input, args.format, args.edges)
    traces = {}
    for entry in args.trace:
        name, _, path = entry.partition("=")
        if not name or not path:
            raise QCrawlError(f"bad --trace {entry!r}; expected NAME=PATH")
        if name in traces:
            raise QCrawlError(f"duplicate trace name {name!r}")
        traces[name] = crawler.read_trace(path, docs)
    if not 0.0 < args.alpha <= 1.0:
        raise QCrawlError("--alpha must be in (0, 1]")
    queries = retrieval.load_queries(args.queries)
    qrels = retrieval.load_qrels(args.qrels)
    return retrieval.evaluate_recall(docs, traces, queries, qrels, args.k)


def cmd_eval(args) -> int:
    report = retrieval.evaluate_significance(_eval_recall(args), args.k, args.alpha)
    with corpus.atomic_write(args.output) as fh:
        fh.write(report.to_jsonl())
    print(
        json.dumps(
            {
                "strategies": sorted({r.strategy for r in report.recall_rows}),
                "checkpoints": sorted({r.checkpoint for r in report.recall_rows}),
                "queries_evaluated": len(report.query_ids),
                "output": args.output,
            },
            sort_keys=True,
        )
    )
    return 0


def _stats_histograms(tables: dict[str, dict[str, float]], bins: int):
    from . import analytics

    all_values = [v for table in tables.values() for v in table.values()]
    lo, hi = min(all_values), max(all_values)
    if lo == hi:
        raise QCrawlError("all scores identical across tables; histogram width is zero")
    hists = {
        label: analytics.histogram(list(table.values()), bins, (lo, hi))
        for label, table in tables.items()
    }
    payload = {
        "bins": bins,
        "range": [lo, hi],
        "tables": {
            label: {
                "n": len(tables[label]),
                "bin_edges": hist.bin_edges,
                "counts": hist.counts,
            }
            for label, hist in hists.items()
        },
    }
    return hists, payload


def _json_text(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def cmd_stats(args) -> int:
    # analytics needs numpy; only stats imports it, so other subcommands start faster
    from . import analytics

    tables: dict[str, dict[str, float]] = {}
    for path in args.scores:
        label = Path(path).stem
        if label in tables:
            raise QCrawlError(f"duplicate score-table label {label!r}; rename the files")
        tables[label] = quality.load_score_table(path)

    # Every output is computed before the directory or any file is written,
    # so a failing run leaves nothing behind.
    outputs: dict[str, str] = {}
    skipped = {}

    hists, hist_payload = _stats_histograms(tables, args.bins)
    outputs["histograms.json"] = _json_text(hist_payload)

    if len(tables) >= 2:
        labels = sorted(tables)
        matrix = {
            a: {b: analytics.js_distance(hists[a], hists[b]) for b in labels} for a in labels
        }
        outputs["js_matrix.json"] = _json_text({"labels": labels, "distance": matrix})
    else:
        skipped["js_matrix"] = "need at least two score tables"

    first_label = next(iter(tables))
    first_table = tables[first_label]

    if args.qrels:
        qrels = retrieval.load_qrels(args.qrels)
        relevant, irrelevant = analytics.split_by_relevance(first_table, qrels)
        payload = {
            "table": first_label,
            "n_relevant": len(relevant),
            "n_irrelevant": len(irrelevant),
            "undersampled": bool(args.undersample),
            "rng_seed": args.rng_seed,
        }
        if relevant and irrelevant:
            rel, irr = relevant, irrelevant
            if args.undersample:
                rel, irr = analytics.undersample(relevant, irrelevant, args.rng_seed)
            lo = min(min(rel), min(irr))
            hi = max(max(rel), max(irr))
            if lo < hi:
                h_rel = analytics.histogram(rel, args.bins, (lo, hi))
                h_irr = analytics.histogram(irr, args.bins, (lo, hi))
                payload["histograms"] = {
                    "bin_edges": h_rel.bin_edges,
                    "relevant": h_rel.counts,
                    "irrelevant": h_irr.counts,
                }
            payload["quartiles"] = {
                "relevant": analytics.quartiles(rel),
                "irrelevant": analytics.quartiles(irr),
            }
        outputs["relevance_split.json"] = _json_text(payload)
    else:
        skipped["relevance_split"] = "no qrels given"

    if args.input:
        graph, _ = corpus.load_graph(args.input, args.format, args.edges)
        report, points = analytics.correlation_study(graph, first_table)
        outputs["correlation.json"] = _json_text(
            {
                "table": first_label,
                "pearson_r": report.pearson_r,
                "ols_slope": report.ols_slope,
                "ols_intercept": report.ols_intercept,
                "n": report.n,
            }
        )
        grid = analytics.hexbin(points, args.gridsize, args.min_count)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["center_x", "center_y", "count"])
        writer.writerows([repr(cx), repr(cy), count] for cx, cy, count in grid.cells)
        outputs["hexbin.csv"] = buf.getvalue()
    else:
        skipped["correlation"] = "no corpus given"

    out_dir = Path(args.output)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, text in outputs.items():
        with corpus.atomic_write(str(out_dir / name)) as fh:
            fh.write(text)
    print(
        json.dumps(
            {"output_dir": str(out_dir), "written": list(outputs), "skipped": skipped},
            sort_keys=True,
        )
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    # Abbreviated flags are refused: _apply_config matches flags by full name.
    parser = argparse.ArgumentParser(
        prog="qcrawl",
        description="Quality-driven crawl simulation and retrieval analytics",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    add_command = functools.partial(sub.add_parser, allow_abbrev=False)

    def add_corpus_flags(p):
        p.add_argument("--input", required=True, help="record file (jsonl or csv)")
        p.add_argument("--format", choices=RECORD_FORMATS, default="jsonl")
        p.add_argument("--edges", help="optional tab-separated edge list (src<TAB>dst)")

    def add_config_flag(p):
        p.add_argument(
            "--config",
            help="JSON file of flag defaults; explicit flags take precedence",
        )

    p_score = add_command("score", help="add a quality_score column to a record file")
    p_score.add_argument("--input", required=True)
    p_score.add_argument("--output", required=True)
    p_score.add_argument("--format", default="jsonl", help="IN:OUT record formats")
    p_score.add_argument(
        "--scores", help="score table (doc_id<TAB>score); without it, the reference scorer"
    )
    p_score.set_defaults(func=cmd_score)

    p_crawl = add_command("crawl", help="simulate a crawl strategy over the graph")
    add_corpus_flags(p_crawl)
    p_crawl.add_argument("--seeds", required=True, help="seed file, one doc_id per line")
    p_crawl.add_argument("--strategy", choices=crawler.STRATEGIES, required=True)
    p_crawl.add_argument("--budget", type=int, required=True)
    p_crawl.add_argument("--checkpoint-interval", type=int, required=True)
    p_crawl.add_argument("--scores", help="score table, required for qoracle")
    p_crawl.add_argument("--output", required=True, help="trace file to write")
    p_crawl.set_defaults(func=cmd_crawl)

    p_index = add_command("index", help="build a BM25 index and dump its stats")
    add_corpus_flags(p_index)
    p_index.add_argument("--trace", help="index only this trace's prefix")
    p_index.add_argument("--rank", type=int, help="prefix length (default: full trace)")
    p_index.add_argument("--output", help="also write the stats JSON here")
    p_index.set_defaults(func=cmd_index)

    p_eval = add_command("eval", help="evaluate traces at shared checkpoints")
    add_corpus_flags(p_eval)
    p_eval.add_argument(
        "--trace",
        action="append",
        required=True,
        metavar="NAME=PATH",
        help="crawl trace with a strategy label (repeatable)",
    )
    p_eval.add_argument("--queries", required=True, help="query_id<TAB>text file")
    p_eval.add_argument("--qrels", required=True, help="TREC qrels file")
    p_eval.add_argument("--k", type=int, default=100)
    p_eval.add_argument("--alpha", type=float, default=0.01)
    p_eval.add_argument("--output", required=True, help="JSON-lines report file")
    p_eval.set_defaults(func=cmd_eval)

    p_stats = add_command("stats", help="score-distribution and homophily statistics")
    p_stats.add_argument(
        "--scores", action="append", required=True, help="score table (repeatable)"
    )
    p_stats.add_argument("--input", help="optional corpus for the correlation study")
    p_stats.add_argument("--format", choices=RECORD_FORMATS, default="jsonl")
    p_stats.add_argument("--edges", help="optional tab-separated edge list")
    p_stats.add_argument("--qrels", help="optional qrels for the relevance split")
    p_stats.add_argument("--bins", type=int, default=quality.DEFAULT_BINS)
    p_stats.add_argument("--gridsize", type=int, default=quality.DEFAULT_GRIDSIZE)
    p_stats.add_argument("--min-count", type=int, default=quality.DEFAULT_MIN_COUNT)
    p_stats.add_argument("--rng-seed", type=int, default=0)
    p_stats.add_argument("--undersample", action="store_true")
    p_stats.add_argument("--output", required=True, help="output directory")
    p_stats.set_defaults(func=cmd_stats)

    for p in (p_score, p_crawl, p_index, p_eval, p_stats):
        add_config_flag(p)
    return parser


def _apply_config(argv: list[str], parser: argparse.ArgumentParser) -> list[str]:
    """Expand --config FILE (or --config=FILE) into flag tokens; flags given
    explicitly, as --flag VALUE or --flag=VALUE, win. A JSON boolean is
    allowed only for, and required by, a store_true flag."""
    flags = [token.partition("=")[0] for token in argv]
    (commands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    command = commands.choices.get(argv[0]) if argv else None
    if "--config" not in flags or command is None:
        return argv  # without a subcommand first, let argparse report the usage
    at = flags.index("--config")
    _, has_value, path = argv[at].partition("=")
    if not has_value:
        if at + 1 >= len(argv):
            return argv  # let argparse report the missing value
        path = argv[at + 1]
    with open(path, encoding="utf-8") as fh, corpus.utf8_errors(path):
        try:
            config = json.load(fh)
        except json.JSONDecodeError as exc:
            raise QCrawlError(f"{path}:{exc.lineno}: invalid JSON ({exc.msg})") from None
    if not isinstance(config, dict):
        raise QCrawlError(f"{path}: config file must hold a JSON object")
    switches = {
        f
        for a in command._actions
        if isinstance(a, argparse._StoreTrueAction)
        for f in a.option_strings
    }
    tokens: list[str] = []
    for key, value in config.items():
        items = value if isinstance(value, list) else [value]
        if not all(isinstance(item, (str, int, float)) for item in items):  # bool is an int
            raise QCrawlError(f"{path}: {key!r} must be a string, number, boolean or list")
        flag = "--" + key.replace("_", "-")
        if flag in switches:
            if not isinstance(value, bool):
                raise QCrawlError(f"{path}: {key!r} is an on/off flag: it must be true or false")
        elif any(isinstance(item, bool) for item in items):
            raise QCrawlError(f"{path}: {key!r} is not an on/off flag: it cannot be true or false")
        if flag in flags:
            continue
        if isinstance(value, bool):
            if value:
                tokens.append(flag)
        else:
            tokens.extend(token for item in items for token in (flag, str(item)))
    # keep the subcommand first, then config-supplied defaults, then flags
    return argv[:1] + tokens + argv[1:]


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        args = parser.parse_args(_apply_config(list(argv), parser))
        return args.func(args)
    except (QCrawlError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
