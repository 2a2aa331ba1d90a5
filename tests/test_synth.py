import pytest

from qcrawl import synthetic_corpus


def _generate(n_nodes, n_queries, rel_per_query, n_seeds):
    return synthetic_corpus(
        n_nodes=n_nodes, n_queries=n_queries, rel_per_query=rel_per_query, n_seeds=n_seeds,
        rng_seed=0,
    )


def test_relevant_pages_must_be_fewer_than_the_pages():
    rows, _, qrels, _ = _generate(5, 2, 2, 1)  # 4 relevant pages of 5
    assert len(rows) == 5 and sum(map(len, qrels.values())) == 4
    with pytest.raises(ValueError, match="^too many relevant pages for the corpus size$"):
        _generate(4, 2, 2, 1)


def test_seeds_at_most_the_pages():
    assert len(_generate(5, 1, 1, 5)[3]) == 5
    with pytest.raises(ValueError, match="^more seeds than nodes$"):
        _generate(5, 1, 1, 6)
