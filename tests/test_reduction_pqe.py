from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from qreliab import bipartite
from qreliab.bipartite import BipartiteGraph, independent_pair_count
from qreliab.errors import ProbabilityError, QReliabError
from qreliab.instances import Fact, parse_instance
from qreliab.reduction_pqe import (
    build_Icd,
    kron_system,
    pi_value,
    run_reduction_pqe,
)

EDGE = BipartiteGraph.build(["u"], ["w"], [("u", "w")])
HALF = Fraction(1, 2)


def test_build_Icd_base_encoding():
    instance, phi = build_Icd(EDGE, 0, 0, HALF, HALF)
    assert instance == parse_instance("R(u)\nS(u,w)\nT(w)\n")
    assert phi.prob_of(Fact("S", ("u", "w"))) == 1
    assert phi.prob_of(Fact("R", ("u",))) == HALF


def test_build_Icd_padding():
    instance, _ = build_Icd(EDGE, 1, 1, HALF, HALF)
    assert len(instance) == 7
    assert Fact("T", ("@w.u.1",)) in instance
    assert Fact("S", ("u", "@w.u.1")) in instance
    assert Fact("R", ("@u.w.1",)) in instance
    assert Fact("S", ("@u.w.1", "w")) in instance


def test_build_Icd_no_edges():
    g = BipartiteGraph.build(["u"], [], [])
    instance, _ = build_Icd(g, 2, 5, HALF, HALF)
    # d-padding applies to right vertices only, and there are none
    assert instance == parse_instance(
        "R(u)\nT(@w.u.1)\nS(u,@w.u.1)\nT(@w.u.2)\nS(u,@w.u.2)\n"
    )


def test_build_Icd_rejects_negative():
    with pytest.raises(QReliabError):
        build_Icd(EDGE, -1, 0, HALF, HALF)


def test_pi_values_single_edge():
    assert pi_value(EDGE, 0, 0, HALF, HALF) == Fraction(3, 4)
    assert pi_value(EDGE, 1, 1, HALF, HALF) == Fraction(1, 2)


def test_pi_value_no_sfact_graph():
    g = BipartiteGraph.build(["u"], ["w"], [])
    assert pi_value(g, 0, 0, HALF, HALF) == 1


def test_pi_oracles_agree():
    g = BipartiteGraph.build(
        ["u1", "u2"], ["w1", "w2"], [("u1", "w1"), ("u2", "w1")]
    )
    for c in range(3):
        for d in range(3):
            for r, t in [(HALF, HALF), (Fraction(1, 3), Fraction(2, 3))]:
                assert pi_value(g, c, d, r, t, oracle="brute") == pi_value(
                    g, c, d, r, t, oracle="formula"
                )


@pytest.mark.parametrize("oracle", ["brute", "formula"])
def test_pi_value_rejects_negative_padding(oracle):
    with pytest.raises(QReliabError, match="non-negative"):
        pi_value(EDGE, -1, 0, HALF, HALF, oracle=oracle)


def test_pi_value_unknown_oracle():
    with pytest.raises(QReliabError):
        pi_value(EDGE, 0, 0, HALF, HALF, oracle="guess")


def cell(system, c, d, i, j):
    return system.a**i * system.b**j * system.nodes_left[i] ** c * system.nodes_right[j] ** d


def test_kron_system_half():
    system = kron_system(1, 1, HALF, HALF)
    assert system.nodes_left == (Fraction(1), HALF)
    assert system.nodes_right == (Fraction(1), HALF)
    assert (system.a, system.b) == (1, 1)
    assert cell(system, 1, 1, 1, 1) == Fraction(1, 4)
    assert cell(system, 0, 1, 0, 0) == 1


def test_kron_system_third():
    system = kron_system(1, 0, Fraction(1, 3), Fraction(1, 4))
    assert system.nodes_left == (1, Fraction(3, 4))
    assert system.nodes_right == (1,)
    assert (system.a, system.b) == (Fraction(1, 2), Fraction(1, 3))
    assert cell(system, 1, 0, 1, 0) == Fraction(1, 2) * Fraction(3, 4)


def test_kron_system_rejects_boundary_probabilities():
    for r, t in [(Fraction(1), HALF), (HALF, Fraction(1)), (Fraction(0), HALF)]:
        with pytest.raises(ProbabilityError):
            kron_system(1, 1, r, t)


def test_run_reduction_pqe_single_edge():
    run = run_reduction_pqe(EDGE, Fraction(1, 3), Fraction(2, 3))
    assert run.p_result == 3
    assert run.x == {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 0}


def test_run_reduction_pqe_formula_oracle():
    g = BipartiteGraph.build(["u1", "u2"], ["w"], [("u1", "w")])
    for oracle in ("brute", "formula"):
        run = run_reduction_pqe(g, HALF, Fraction(1, 3), oracle=oracle)
        assert run.p_result == independent_pair_count(g)


def test_run_reduction_pqe_empty_graph():
    g = BipartiteGraph.build([], [], [])
    assert run_reduction_pqe(g, HALF, HALF).p_result == 1


def test_run_reduction_pqe_formula_enumerates_pairs_once(monkeypatch):
    calls = []
    iter_pairs = bipartite.iter_pairs

    def counted(g, cap=None):
        calls.append(g)
        return iter_pairs(g, cap)

    monkeypatch.setattr(bipartite, "iter_pairs", counted)
    g = BipartiteGraph.build(
        ["u1", "u2", "u3"], ["w1", "w2", "w3"], [("u1", "w1"), ("u2", "w1"), ("u3", "w3")]
    )
    run = run_reduction_pqe(g, HALF, Fraction(1, 3), oracle="formula")
    assert len(calls) == 1
    assert run.p_result == independent_pair_count(g)


@st.composite
def graphs(draw, max_side=4):
    left = [f"u{k}" for k in range(draw(st.integers(0, max_side)))]
    right = [f"w{k}" for k in range(draw(st.integers(0, max_side)))]
    possible = [(u, w) for u in left for w in right]
    edges = draw(st.lists(st.sampled_from(possible), unique=True) if possible else st.just([]))
    return BipartiteGraph.build(left, right, edges)


@settings(max_examples=100, deadline=None)
@given(
    graphs(3),
    st.sampled_from([Fraction(1, 3), HALF, Fraction(2, 3)]),
    st.sampled_from([Fraction(1, 3), HALF, Fraction(2, 3)]),
)
def test_run_reduction_pqe_forward_map_matches_pi_value(g, r, t):
    # the formula oracle's pi, built by two nested power sums, against the
    # closed form cell by cell, and against the brute oracle up to 2+2
    pi = run_reduction_pqe(g, r, t, oracle="formula").pi
    small = len(g.left) <= 2 and len(g.right) <= 2
    for (c, d), value in pi.items():
        assert value == pi_value(g, c, d, r, t, oracle="formula")
        if small:
            assert value == pi_value(g, c, d, r, t, oracle="brute")


@settings(max_examples=100, deadline=None)
@given(
    graphs(),
    st.sampled_from([Fraction(1, 3), HALF, Fraction(2, 3), Fraction(1, 7)]),
    st.sampled_from([Fraction(1, 3), HALF, Fraction(3, 4)]),
)
def test_run_reduction_pqe_formula_matches_pair_count(g, r, t):
    run = run_reduction_pqe(g, r, t, oracle="formula")
    assert run.p_result == independent_pair_count(g)
    sizes = Counter(
        (len(r_sub), len(t_sub))
        for r_sub in _subsets(g.left)
        for t_sub in _subsets(g.right)
        if not any((u, w) in g.edges for u in r_sub for w in t_sub)
    )
    assert run.x == {
        (i, j): sizes[(i, j)]
        for i in range(len(g.left) + 1)
        for j in range(len(g.right) + 1)
    }


def _subsets(vertices):
    return [s for k in range(len(vertices) + 1) for s in combinations(vertices, k)]
