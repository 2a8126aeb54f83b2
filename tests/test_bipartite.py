import os
import subprocess
import sys
from collections import Counter
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import qreliab
from qreliab.bipartite import (
    BipartiteGraph,
    independent_pair_count,
    independent_pairs,
    parse_graph,
    profile_stats,
    x_table,
)
from qreliab.errors import CapExceededError, GraphFormatError

EDGE = BipartiteGraph.build(["u"], ["w"], [("u", "w")])

_SQUARE = (
    "BipartiteGraph.build(['u1', 'u2'], ['w1', 'w2'], "
    "[('u2', 'w2'), ('u1', 'w2'), ('u2', 'w1'), ('u1', 'w1')])"
)


def test_repr_lists_edges_in_declaration_order():
    g = eval(_SQUARE)
    assert repr(g) == (
        "BipartiteGraph(left=('u1', 'u2'), right=('w1', 'w2'), edges=frozenset("
        "[('u1', 'w1'), ('u1', 'w2'), ('u2', 'w1'), ('u2', 'w2')]))"
    )
    assert eval(repr(g)) == g
    assert repr(BipartiteGraph.build(["u"], [], [])) == (
        "BipartiteGraph(left=('u',), right=(), edges=frozenset([]))"
    )


def test_repr_is_the_same_under_every_hash_seed():
    src = str(Path(qreliab.__file__).resolve().parent.parent)
    code = f"from qreliab.bipartite import BipartiteGraph; print(repr({_SQUARE}))"
    outputs = set()
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        run = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        outputs.add(run.stdout)
    assert len(outputs) == 1


def test_parse_graph():
    g = parse_graph("left u1\nleft u2\nright w\n# note\nedge u1 w\n")
    assert g.left == ("u1", "u2")
    assert g.right == ("w",)
    assert g.edges == frozenset({("u1", "w")})


@pytest.mark.parametrize(
    "text",
    [
        "left u\nleft u\n",
        "left u\nright u\n",
        "edge u w\n",
        "left u\nright w\nedge w u\n",
        "vertex u\n",
        "left\n",
        "left u-1\n",
        "right @x\n",
    ],
)
def test_parse_graph_rejects(text):
    with pytest.raises(GraphFormatError):
        parse_graph(text)


def test_undeclared_endpoint_rejected():
    with pytest.raises(GraphFormatError):
        BipartiteGraph.build(["u"], ["w"], [("u", "x")])


@pytest.mark.parametrize(
    "left, right",
    [(["a", "a"], ["w"]), (["a"], ["w", "w"]), (["a"], ["a"]), (["a", "b"], ["w", "b"])],
)
def test_repeated_vertex_name_rejected(left, right):
    # As parse_graph refuses it: one name would stand for two vertices, and
    # the brute reduction, which builds facts from the names, would count
    # the pairs of a different graph.
    with pytest.raises(GraphFormatError):
        BipartiteGraph.build(left, right, [(left[0], right[0])])


def test_independent_pair_count_single_edge():
    # all 4 pairs except ({u}, {w})
    assert independent_pair_count(EDGE) == 3


def test_independent_pair_count_no_edges():
    g = BipartiteGraph.build(["u1", "u2"], ["w"], [])
    assert independent_pair_count(g) == 8


def test_independent_pair_count_empty_graph():
    assert independent_pair_count(BipartiteGraph.build([], [], [])) == 1


def test_profile_stats():
    g = parse_graph(
        "left u1\nleft u2\nright w1\nright w2\n"
        "edge u1 w1\nedge u1 w2\nedge u2 w1\n"
    )
    assert profile_stats(g, ["u1"], ["w1"]) == (1, 1, 1, 1, 1)
    assert profile_stats(g, ["u1", "u2"], ["w1", "w2"]) == (2, 2, 3, 0, 0)
    assert profile_stats(g, [], []) == (0, 0, 0, 0, 0)
    assert profile_stats(g, ["u2"], ["w2"]) == (1, 1, 0, 1, 1)
    assert profile_stats(g, ["u1"], []) == (1, 0, 0, 2, 0)
    assert profile_stats(g, [], ["w1"]) == (0, 1, 0, 0, 2)


def test_profile_stats_rejects_foreign_vertices():
    with pytest.raises(GraphFormatError):
        profile_stats(EDGE, ["zzz"], [])
    with pytest.raises(GraphFormatError):
        profile_stats(EDGE, [], ["u"])


def test_x_table_single_edge():
    x = x_table(EDGE)
    assert x == {(0, 0, 0, 0, 0): 1, (1, 0, 0, 1, 0): 1, (0, 1, 0, 0, 1): 1, (1, 1, 1, 0, 0): 1}


@st.composite
def graphs(draw, max_side=3):
    left = [f"u{k}" for k in range(draw(st.integers(0, max_side)))]
    right = [f"w{k}" for k in range(draw(st.integers(0, max_side)))]
    possible = [(u, w) for u in left for w in right]
    edges = draw(st.lists(st.sampled_from(possible), unique=True) if possible else st.just([]))
    return BipartiteGraph.build(left, right, edges)


def _subsets(vertices):
    return [set(s) for k in range(len(vertices) + 1) for s in combinations(vertices, k)]


@settings(max_examples=150, deadline=None)
@given(graphs())
def test_x_table_matches_named_subset_histogram(g):
    """x_table against a histogram built from named subsets by set logic."""
    expected = Counter(
        (
            len(r_sub),
            len(t_sub),
            sum(u in r_sub and w in t_sub for u, w in g.edges),
            sum(u in r_sub and w not in t_sub for u, w in g.edges),
            sum(u not in r_sub and w in t_sub for u, w in g.edges),
        )
        for r_sub in _subsets(g.left)
        for t_sub in _subsets(g.right)
    )
    x = x_table(g)
    assert x == expected
    assert sum(x.values()) == 2 ** (len(g.left) + len(g.right))
    independent = sum(count for (_i, _j, c, _d, _dp), count in x.items() if c == 0)
    assert independent == independent_pair_count(g)


@settings(max_examples=200, deadline=None)
@given(graphs(4))
def test_fold_matches_plain_pair_enumeration(g):
    # graphs up to 4+4, lopsided both ways, so the fold runs over either side
    plain = Counter()
    for (i, j, contained, _d, _dp), count in x_table(g).items():
        if contained == 0:
            plain[(i, j)] += count
    fold = independent_pairs(g)
    assert fold == plain
    assert sum(fold.values()) == independent_pair_count(g)


def test_pair_cap(monkeypatch):
    g = BipartiteGraph.build([f"u{k}" for k in range(6)], ["w"], [])
    monkeypatch.setenv("QRELIAB_BRUTE_CAP", "5")
    with pytest.raises(CapExceededError):
        independent_pair_count(g)
