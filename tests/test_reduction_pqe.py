import random
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from qreliab import bipartite, evaluate, reduction_pqe, vandermonde
from qreliab.bipartite import BipartiteGraph, independent_pair_count
from qreliab.errors import CapExceededError, ProbabilityError, QReliabError
from qreliab.instances import Fact, parse_instance
from qreliab.reduction_pqe import (
    build_Icd,
    kron_system,
    pi_value,
    run_reduction_pqe,
)

EDGE = BipartiteGraph.build(["u"], ["w"], [("u", "w")])
HALF = Fraction(1, 2)
SOLVER_PRIME = vandermonde._PRIMES[0]  # the smallest listed prime, 2**30 - 35


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


def test_run_reduction_pqe_formula_folds_pairs_once(monkeypatch):
    calls = []
    fold = reduction_pqe.independent_pairs

    def counted(g):
        calls.append(g)
        return fold(g)

    monkeypatch.setattr(reduction_pqe, "independent_pairs", counted)
    g = BipartiteGraph.build(
        ["u1", "u2", "u3"], ["w1", "w2", "w3"], [("u1", "w1"), ("u2", "w1"), ("u3", "w3")]
    )
    run = run_reduction_pqe(g, HALF, Fraction(1, 3), oracle="formula")
    assert calls == [g]
    assert run.p_result == independent_pair_count(g)


def test_fold_checks_the_pair_cap_on_the_smaller_side():
    # 25 > 24 vertices on each side: refused before any subset is formed
    wide = BipartiteGraph.build([f"u{k}" for k in range(25)], [f"w{k}" for k in range(25)], [])
    with pytest.raises(CapExceededError):
        run_reduction_pqe(wide, HALF, HALF, oracle="formula")
    # 2 + 30 = 32 vertices: over the cap for every pair, not for the fold
    lopsided = BipartiteGraph.build(["u0", "u1"], [f"w{k}" for k in range(30)], [])
    with pytest.raises(CapExceededError):
        next(bipartite.iter_pairs(lopsided))
    run = run_reduction_pqe(lopsided, HALF, Fraction(1, 3), oracle="formula")
    assert run.x == {(i, j): comb(2, i) * comb(30, j) for i in range(3) for j in range(31)}
    assert run.p_result == 2**32


def test_fold_obeys_the_cap_setting(monkeypatch):
    monkeypatch.setenv("QRELIAB_BRUTE_CAP", "2")
    g = BipartiteGraph.build(["u0", "u1", "u2"], ["w0", "w1", "w2", "w3"], [("u0", "w0")])
    with pytest.raises(CapExceededError):
        run_reduction_pqe(g, HALF, HALF, oracle="formula")
    monkeypatch.setenv("QRELIAB_BRUTE_CAP", "3")
    assert run_reduction_pqe(g, HALF, HALF, oracle="formula").p_result == 2**7 - 2**5


def test_formula_on_16_plus_16_is_symmetric_under_transposition():
    # each run folds over its own left side: the transposed graph's run
    # enumerates the other side of the same graph
    rng = random.Random(16)
    left, right = [f"u{k}" for k in range(16)], [f"w{k}" for k in range(16)]
    edges = [(u, w) for u in left for w in right if rng.random() < 0.2]
    g = BipartiteGraph.build(left, right, edges)
    flipped = BipartiteGraph.build(right, left, [(w, u) for u, w in edges])
    r, t = Fraction(1, 3), Fraction(3, 4)
    run = run_reduction_pqe(g, r, t, oracle="formula")
    other = run_reduction_pqe(flipped, t, r, oracle="formula")
    assert run.x == {(i, j): count for (j, i), count in other.x.items()}
    assert run.p_result == other.p_result > 2**16


def test_solver_prime_dividing_a_denominator_is_skipped(monkeypatch):
    primes = []
    solver = vandermonde.dual_solver

    def spy(nodes, prime):
        primes.append(prime)
        return solver(nodes, prime)

    monkeypatch.setattr(vandermonde, "dual_solver", spy)
    g = BipartiteGraph.build(["u1", "u2"], ["w1", "w2", "w3"], [("u1", "w1"), ("u2", "w3")])
    run = run_reduction_pqe(g, Fraction(1, SOLVER_PRIME), HALF, oracle="formula")
    assert run.x == _sizes_of_independent_pairs(g)
    assert primes and SOLVER_PRIME not in primes


@pytest.mark.parametrize("cell", [(0, 0), (1, 1), (2, 1)])
def test_tampered_brute_pi_is_rejected(monkeypatch, cell):
    brute_pi = reduction_pqe._brute_pi

    def tampered(g, r, t, cells):
        values = brute_pi(g, r, t, cells)
        values[cell] += Fraction(1, 1000)
        return values

    monkeypatch.setattr(reduction_pqe, "_brute_pi", tampered)
    g = BipartiteGraph.build(["u1", "u2"], ["w1", "w2"], [("u1", "w1")])
    with pytest.raises(QReliabError):
        run_reduction_pqe(g, HALF, Fraction(1, 3), oracle="brute")


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
    # closed form cell by cell; the brute oracle's, from one lineage under
    # one conditioning per cell, against a fresh instance per cell
    pi = run_reduction_pqe(g, r, t, oracle="formula").pi
    brute = run_reduction_pqe(g, r, t, oracle="brute").pi
    assert brute.keys() == pi.keys()
    for (c, d), value in pi.items():
        assert value == pi_value(g, c, d, r, t, oracle="formula")
        assert brute[(c, d)] == pi_value(g, c, d, r, t, oracle="brute") == value


def test_brute_oracle_enumerates_matches_once(monkeypatch):
    calls = []
    enumerate_matches = evaluate.enumerate_matches

    def counted(q, instance):
        calls.append(len(instance))
        return enumerate_matches(q, instance)

    monkeypatch.setattr(evaluate, "enumerate_matches", counted)
    g = BipartiteGraph.build(["u1", "u2"], ["w1", "w2", "w3"], [("u1", "w1"), ("u2", "w3")])
    run = run_reduction_pqe(g, HALF, Fraction(1, 3), oracle="brute")
    assert run.p_result == independent_pair_count(g)
    # the largest padded instance: 5 vertices, 2 edges, 2 * (2*2 + 3*3) pendant facts
    assert calls == [33]


def test_brute_oracle_cap_matches_the_first_failing_cell(monkeypatch):
    # a lineage widens with the padding, so a lowered cap first fails
    # inside the grid; the run must fail there, not on the widest cell
    monkeypatch.setenv("QRELIAB_BRUTE_CAP", "5")
    g = BipartiteGraph.build(["u1", "u2"], ["w1", "w2"], [("u1", "w1"), ("u2", "w1"), ("u2", "w2")])
    r, t = Fraction(1, 3), HALF
    required = []  # per failing cell, in the run's cell order
    for c in range(3):
        for d in range(3):
            try:
                pi_value(g, c, d, r, t, oracle="brute")
            except CapExceededError as err:
                required.append(err.required)
    assert required[0] < required[-1]
    with pytest.raises(CapExceededError) as info:
        run_reduction_pqe(g, r, t, oracle="brute")
    assert info.value.required == required[0]


@settings(max_examples=100, deadline=None)
@given(
    graphs(),
    st.sampled_from([Fraction(1, 3), HALF, Fraction(2, 3), Fraction(1, 7)]),
    st.sampled_from([Fraction(1, 3), HALF, Fraction(3, 4)]),
)
def test_run_reduction_pqe_formula_matches_pair_count(g, r, t):
    run = run_reduction_pqe(g, r, t, oracle="formula")
    assert run.p_result == independent_pair_count(g)
    assert run.x == _sizes_of_independent_pairs(g)


def _sizes_of_independent_pairs(g):
    """X[i, j] for every i, j, by enumerating named subsets."""
    sizes = Counter(
        (len(r_sub), len(t_sub))
        for r_sub in _subsets(g.left)
        for t_sub in _subsets(g.right)
        if not any((u, w) in g.edges for u in r_sub for w in t_sub)
    )
    return {(i, j): sizes[(i, j)] for i in range(len(g.left) + 1) for j in range(len(g.right) + 1)}


def _subsets(vertices):
    return [s for k in range(len(vertices) + 1) for s in combinations(vertices, k)]
