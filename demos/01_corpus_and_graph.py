"""
Loading a document corpus and its link graph
============================================

Records arrive as JSON-lines (or CSV) with a fixed schema:
{"doc_id", "url", "text", "outlinks"}. The loader builds the corpus
mapping and the web graph, dropping (but counting) outlinks that point
outside the corpus and duplicate outlinks within a record.
"""

import json
import tempfile
from pathlib import Path

from qcrawl import load_corpus, load_edges

workdir = Path(tempfile.mkdtemp(prefix="qcrawl-demo-"))

rows = [
    {"doc_id": "home", "url": "http://example.org", "text": "welcome to the example site",
     "outlinks": ["about", "blog", "blog", "off-site-page"]},
    {"doc_id": "about", "url": None, "text": "who we are and what we do", "outlinks": ["home"]},
    {"doc_id": "blog", "url": None, "text": "posts about crawling the web", "outlinks": ["post1"]},
    {"doc_id": "post1", "url": None, "text": "a first post", "outlinks": []},
]
corpus_path = workdir / "corpus.jsonl"
corpus_path.write_text("".join(json.dumps(r) + "\n" for r in rows))

corpus, graph, stats = load_corpus(str(corpus_path), "jsonl")

print(f"records loaded : {stats.records}")
print(f"edges loaded   : {stats.edges_loaded}")
print(f"edges kept     : {stats.edges_kept}")
print(f"dangling       : {stats.dangling_dropped}   (the 'off-site-page' target)")
print(f"duplicates     : {stats.duplicate_dropped}  (the repeated 'blog' link)")
print()

# the oracle view: text of a page before it would be "downloaded"
print("corpus['blog'].text     ->", repr(corpus["blog"].text))
print("graph.adjacency['home'] ->", graph.adjacency["home"])
print()

# outlinks can also be shipped separately as a tab-separated edge list
edges_path = workdir / "edges.tsv"
edges_path.write_text("home\tabout\nabout\thome\nhome\tnowhere\n")
_, graph2, stats2 = load_corpus(str(corpus_path), "jsonl", edges_path=str(edges_path))
print("with separate edge list:", dict(graph2.adjacency))
print("dangling:", stats2.dangling_dropped)
