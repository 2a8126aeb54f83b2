import os
import subprocess
import sys
from pathlib import Path

import pytest

import qreliab
from qreliab.bipartite import (
    BipartiteGraph,
    independent_pair_count,
    parse_graph,
    profile_of_masks,
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
    p = profile_stats(g, ["u1"], ["w1"])
    assert (p.i, p.j, p.c, p.d, p.d_prime, p.e) == (1, 1, 1, 1, 1, 0)
    full = profile_stats(g, ["u1", "u2"], ["w1", "w2"])
    assert (full.c, full.e) == (3, 0)
    empty = profile_stats(g, [], [])
    assert (empty.c, empty.d, empty.d_prime, empty.e) == (0, 0, 0, 3)


def test_profile_stats_rejects_foreign_vertices():
    with pytest.raises(GraphFormatError):
        profile_stats(EDGE, ["zzz"], [])


def test_profile_of_masks_agrees_with_stats():
    g = parse_graph(
        "left u1\nleft u2\nright w1\nright w2\nedge u1 w2\nedge u2 w1\n"
    )
    for r_mask in range(4):
        for t_mask in range(4):
            subset_l = [g.left[k] for k in range(2) if r_mask >> k & 1]
            subset_r = [g.right[k] for k in range(2) if t_mask >> k & 1]
            assert profile_of_masks(g, r_mask, t_mask) == profile_stats(
                g, subset_l, subset_r
            )


def test_profile_e_is_residual():
    p = profile_stats(EDGE, ["u"], [])
    assert p.c + p.d + p.d_prime + p.e == EDGE.m


def test_x_table_single_edge():
    table = x_table(EDGE, 1, 1)
    assert sum(table.x.values()) == 4
    assert table.x[(1, 1, 1, 0, 0)] == 1
    assert table.x[(0, 0, 0, 0, 0)] == 1
    # (2^1 - 1) weights are all 1, so X = Y here
    assert table.y == table.x


def test_x_table_weights():
    table = x_table(EDGE, 2, 1)
    # dropped left vertex contributes (2^2 - 1)
    assert table.y[(0, 0, 0, 0, 0)] == 3 * table.x[(0, 0, 0, 0, 0)]


def test_pair_cap():
    g = BipartiteGraph.build([f"u{k}" for k in range(6)], ["w"], [])
    with pytest.raises(CapExceededError):
        independent_pair_count(g, cap=5)
