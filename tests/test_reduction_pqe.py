import math
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from qreliab import bipartite, evaluate, kernels, reduction_pqe, vandermonde
from qreliab.bipartite import BipartiteGraph, independent_pair_count
from qreliab.errors import CapExceededError, ProbabilityError, QReliabError
from qreliab.evaluate import fact_weights, lineage, lineage_counts
from qreliab.gadgets import q1_query
from qreliab.instances import Fact, parse_instance
from qreliab.reduction_pqe import build_Icd, pi_value, run_reduction_pqe
from qreliab.vandermonde import kron_power_sums

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


def relative_cell(factors, weights, c, d, i, j):
    """The share of one pair with |R'| = i, |T'| = j in N(c, d), relative
    to the empty pair's: (r/(1-r))**i (t/(1-t))**j ((1-t)**i)**c ((1-r)**j)**d."""
    (rows, columns), (left, right) = factors, weights
    return Fraction(
        left[i] * right[j] * rows[i] ** c * columns[j] ** d,
        left[0] * right[0] * rows[0] ** c * columns[0] ** d,
    )


def test_kron_system_half():
    # every fact weighs (1, 1): rows 1**i * 2**(1 - i), columns likewise
    factors, weights = reduction_pqe._system(1, 1, HALF, HALF)
    assert factors == [[2, 1], [2, 1]]
    assert weights == [[1, 1], [1, 1]]
    assert relative_cell(factors, weights, 1, 1, 1, 1) == Fraction(1, 4)
    assert relative_cell(factors, weights, 0, 1, 0, 0) == 1


def test_kron_system_third():
    # r = 1/3 weighs (1, 2) and t = 1/4 weighs (1, 3)
    factors, weights = reduction_pqe._system(1, 0, Fraction(1, 3), Fraction(1, 4))
    assert factors == [[4, 3], [1]]
    assert weights == [[2, 1], [1]]
    assert relative_cell(factors, weights, 1, 0, 1, 0) == Fraction(1, 2) * Fraction(3, 4)


def test_kron_system_rejects_boundary_probabilities():
    for r, t in [(Fraction(1), HALF), (HALF, Fraction(1)), (Fraction(0), HALF)]:
        with pytest.raises(ProbabilityError):
            run_reduction_pqe(EDGE, r, t, oracle="formula")
        with pytest.raises(ProbabilityError):
            pi_value(EDGE, 0, 0, r, t, oracle="formula")


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
    solve = vandermonde.dual_solve

    def spy(nodes, rows, prime):
        primes.append(prime)
        return solve(nodes, rows, prime)

    monkeypatch.setattr(vandermonde, "dual_solve", spy)
    g = BipartiteGraph.build(["u1", "u2"], ["w1", "w2", "w3"], [("u1", "w1"), ("u2", "w3")])
    run = run_reduction_pqe(g, Fraction(1, SOLVER_PRIME), HALF, oracle="formula")
    assert run.x == _sizes_of_independent_pairs(g)
    assert primes and SOLVER_PRIME not in primes
    # with no left vertex every bound is small, so the solver prime is
    # tried, but q_r = SOLVER_PRIME makes the columns (q_r - 1)**j *
    # q_r**(3 - j) with j < 3 vanish there: they collide, and the prime is
    # skipped before any solve
    primes.clear()
    g = BipartiteGraph.build([], ["w1", "w2", "w3"], [])
    run = run_reduction_pqe(g, Fraction(1, SOLVER_PRIME), HALF, oracle="formula")
    assert run.p_result == 8
    assert primes == [(1 << 61) - 1] * 2


@pytest.mark.parametrize("cell", [(0, 0), (1, 1), (2, 1)])
def test_tampered_brute_pi_is_rejected(monkeypatch, cell):
    # one cell's violating weight, the numerator of its pi, one too large
    brute_counts = reduction_pqe._brute_counts

    def tampered(g, r, t, cells):
        counts = brute_counts(g, r, t, cells)
        counts[cells.index(cell)] += 1
        return counts

    monkeypatch.setattr(reduction_pqe, "_brute_counts", tampered)
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


def test_brute_oracle_counts_in_one_pass(monkeypatch):
    passes = []
    count = kernels.count_avoiding

    def counted(masks, weights, cap=None, trace=None):
        passes.append(len(weights))
        return count(masks, weights, cap, trace)

    monkeypatch.setattr(kernels, "count_avoiding", counted)
    g = BipartiteGraph.build(["u1", "u2"], ["w1", "w2", "w3"], [("u1", "w1"), ("u2", "w3")])
    brute_counts = reduction_pqe._brute_counts
    cells = [(i, j) for i in range(3) for j in range(4)]
    assert len(brute_counts(g, HALF, Fraction(1, 3), cells)) == 12
    assert len(passes) == 1
    run = run_reduction_pqe(g, HALF, Fraction(1, 3), oracle="brute")
    assert run.p_result == independent_pair_count(g)
    assert len(passes) == 2


def test_pi_reads_the_system_the_run_solved(monkeypatch):
    calls = []
    system = reduction_pqe._system

    def counted(*args):
        calls.append(args)
        return system(*args)

    monkeypatch.setattr(reduction_pqe, "_system", counted)
    g = BipartiteGraph.build(["u1", "u2"], ["w1", "w2"], [("u1", "w1")])
    run = run_reduction_pqe(g, HALF, Fraction(1, 3), oracle="formula")
    pi = run.pi
    assert len(calls) == 1
    assert (run.factors, run.pair_weights) == system(2, 2, HALF, Fraction(1, 3))
    for (c, d), value in pi.items():
        assert value == pi_value(g, c, d, HALF, Fraction(1, 3), oracle="formula")


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


def violating_weight(g, c, d, r, t):
    """The weight of the worlds of I_{c,d} with no match, every fact
    weighing its integer pair: the miss of its own lineage times the total
    weight of the facts outside it."""
    instance, phi = build_Icd(g, c, d, r, t)
    weights = fact_weights(instance, phi)
    lin = lineage(q1_query(), instance)
    miss, _total = lineage_counts(lin, weights)
    inside = set(lin.facts)
    return miss * math.prod(sum(weights[f]) for f in instance.facts if f not in inside)


PROPER_FRACTIONS = st.fractions(min_value=0, max_value=1, max_denominator=9).filter(
    lambda v: 0 < v < 1
)


@settings(max_examples=60, deadline=None)
@given(graphs(3), PROPER_FRACTIONS, PROPER_FRACTIONS)
def test_violating_weight_is_the_integer_forward_map(g, r, t):
    # N(c, d), counted on each padded instance alone, is the forward map of
    # the weighted pair counts Y over the integer rows and columns, and the
    # brute run's right-hand side
    factors, (left, right) = reduction_pqe._system(len(g.left), len(g.right), r, t)
    x = _sizes_of_independent_pairs(g)
    y = [left[i] * right[j] * count for (i, j), count in x.items()]
    counts = kron_power_sums(y, factors, list(map(len, factors)))
    assert [violating_weight(g, c, d, r, t) for c, d in x] == counts
    assert run_reduction_pqe(g, r, t, oracle="brute").oracle_counts == counts


def test_brute_run_recovers_x_where_no_weight_is_one():
    # r = 2/7 weighs (2, 5) and t = 5/9 weighs (5, 4): no node and no pair
    # weight is 1, so every X_ij is recovered by a division
    g = BipartiteGraph.build(["u1", "u2"], ["w1", "w2", "w3"], [("u1", "w1"), ("u2", "w3")])
    r, t = Fraction(2, 7), Fraction(5, 9)
    factors, weights = reduction_pqe._system(2, 3, r, t)
    assert 1 not in [v for side in factors + weights for v in side]
    run = run_reduction_pqe(g, r, t, oracle="brute")
    assert run.x == _sizes_of_independent_pairs(g)
    assert run.p_result == independent_pair_count(g)
