import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qreliab.bipartite import BipartiteGraph, independent_pair_count
from qreliab.cq import parse_query
from qreliab.errors import (
    DuplicateNodeError,
    InvalidProfileError,
    QReliabError,
    SchemaMismatchError,
)
from qreliab.evaluate import pqe_brute, ur_brute
from qreliab.gadgets import closed_counts, q1_query, qrst_query
from qreliab.instances import Fact, Instance, ProbAssignment, parse_instance
from qreliab.reduction_ur import (
    _recover_counts,
    alpha_coefficient,
    build_Dp,
    lemma_binary_transform,
    merge_power2,
    np_analytic,
    override_params,
    profile_cells,
    reduction_params,
    run_reduction,
)
from qreliab.vandermonde import solve_vandermonde

EDGE = BipartiteGraph.build(["u"], ["w"], [("u", "w")])


def test_reduction_params_single_edge():
    p = reduction_params(EDGE, 1, 1, 1)
    assert (p.M1, p.M2, p.M3, p.M) == (5, 26, 84, 32)


def test_reduction_params_larger():
    g = BipartiteGraph.build(["u1", "u2"], ["w"], [("u1", "w"), ("u2", "w")])
    p = reduction_params(g, 1, 1, 1)
    assert (p.M1, p.M2, p.M3) == (9, 82, 420)
    assert p.M == 3 * 2 * 27


def test_build_Dp_p0_is_base_encoding():
    d0 = build_Dp(EDGE, 1, 1, 1, 0)
    assert d0 == parse_instance("R1(u)\nT1(w)\n")


def test_build_Dp_single_edge_sizes():
    params = reduction_params(EDGE, 1, 1, 1)
    d1 = build_Dp(EDGE, 1, 1, 1, 1, params)
    # 2 base facts + 5 chain facts + (M1 + M2 + M3) two-element gadgets,
    # each contributing 3 facts of which the endpoint fact on the graph
    # vertex coincides with a base fact
    assert len(d1) == 2 + 5 + 2 * (5 + 26 + 84)


def test_build_Dp_override_sizes():
    tiny = override_params(reduction_params(EDGE, 1, 1, 1), 1, 1, 1)
    assert len(build_Dp(EDGE, 1, 1, 1, 1, tiny)) == 13


def test_alpha_coefficient_rejects_invalid_profile():
    params = reduction_params(EDGE, 1, 1, 1)
    counts = closed_counts(1, 1, 1)
    with pytest.raises(InvalidProfileError):
        alpha_coefficient((0, 0, 1, 1, 0), counts, params)
    with pytest.raises(InvalidProfileError):
        alpha_coefficient((2, 0, 0, 0, 0), counts, params)


def test_alpha_coefficient_independent_pair():
    params = override_params(reduction_params(EDGE, 1, 1, 1), 1, 1, 1)
    counts = closed_counts(1, 1, 1)
    # empty pair: the edge is excluded (e = 1)
    value = alpha_coefficient((0, 0, 0, 0, 0), counts, params)
    assert value == counts.delta_bot * counts.lam_rbar**2 * counts.lam_tbar


def test_profile_cells_count_and_order():
    params = reduction_params(EDGE, 1, 1, 1)
    cells = profile_cells(params)
    assert len(cells) == params.M
    assert cells[0] == (0, 0, 0, 0, 0)
    assert cells == tuple(sorted(cells))


def test_np_analytic_matches_brute_downsized():
    tiny = override_params(reduction_params(EDGE, 1, 1, 1), 1, 1, 1)
    query = qrst_query(1, 1, 1)
    for p in (0, 1):
        dp = build_Dp(EDGE, 1, 1, 1, p, tiny)
        brute = (1 << len(dp)) - ur_brute(query, dp)
        assert np_analytic(EDGE, 1, 1, 1, p, tiny) == brute


def dual_rhs(nodes, y):
    return [sum(yk * n**p for yk, n in zip(y, nodes)) for p in range(len(nodes))]


def test_solve_vandermonde_roundtrip():
    nodes = [2, 3, 5, 7]
    y = [4, 0, 1, 9]
    rhs = [sum(yk * n**p for yk, n in zip(y, nodes)) for p in range(4)]
    assert solve_vandermonde(nodes, rhs) == y


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.integers(-50, 50), min_size=1, max_size=6, unique=True),
    st.data(),
)
def test_solve_vandermonde_random(nodes, data):
    y = [
        Fraction(data.draw(st.integers(-9, 9)), data.draw(st.integers(1, 9)))
        for _ in nodes
    ]
    rhs = [sum(yk * n**p for yk, n in zip(y, nodes)) for p in range(len(nodes))]
    assert solve_vandermonde(nodes, rhs) == y


def test_solve_vandermonde_rejects_duplicates():
    with pytest.raises(DuplicateNodeError):
        solve_vandermonde([1, 1], [0, 0])


def test_run_reduction_single_edge_satisfies_every_equation():
    run = run_reduction(EDGE, 1, 1, 1)
    assert run.p_result == 3
    assert len(run.n_vector) == run.params.M
    for p, n_p in enumerate(run.n_vector):
        assert sum(y * run.alpha[key] ** p for key, y in run.y_vector.items()) == n_p


SOLVER_PRIME = (1 << 61) - 1  # the smallest listed prime
NODES = [2, 3, 5, 7, 11, 13, 17]


def test_recover_counts_returns_planted_solution():
    y = [4, 0, 1, 9, 99, 7, 3]
    assert _recover_counts(NODES, dual_rhs(NODES, y), 100) == y


def test_recover_counts_past_two_primes():
    bound = 1 << 200
    y = [bound - 1, 0, 1 << 150, 5, (1 << 199) + 3, 1, bound // 3]
    assert _recover_counts(NODES, dual_rhs(NODES, y), bound) == y


def test_recover_counts_skips_a_prime_where_nodes_collide():
    nodes = [1, SOLVER_PRIME + 1]  # equal modulo the smallest listed prime
    assert _recover_counts(nodes, dual_rhs(nodes, [3, 4]), 10) == [3, 4]


def test_recover_counts_rejects_bound_past_every_prime():
    with pytest.raises(QReliabError, match="no solver prime"):
        _recover_counts([2, 3], dual_rhs([2, 3], [1, 1]), 1 << 5000)


def test_recover_counts_rejects_entry_past_bound():
    y = [4, 0, 100, 9, 1, 7, 3]
    with pytest.raises(QReliabError, match="bound"):
        _recover_counts(NODES, dual_rhs(NODES, y), 100)


def test_recover_counts_rejects_entry_that_wraps():
    # the entry reduces to 5 modulo the solver prime, which is within bound
    y = [4, SOLVER_PRIME + 5, 1, 9, 1, 7, 3]
    with pytest.raises(QReliabError, match="equation"):
        _recover_counts(NODES, dual_rhs(NODES, y), 100)


def test_recover_counts_checks_every_equation():
    # Equation 5 is off by a multiple of the solver prime: the modular solve,
    # the bound and the first four equations cannot see it.
    y = [4, 0, 1, 9, 1, 7, 3]
    rhs = dual_rhs(NODES, y)
    rhs[5] += SOLVER_PRIME
    with pytest.raises(QReliabError, match="p=5"):
        _recover_counts(NODES, rhs, 100)


def test_run_reduction_brute_oracle_downscaled_graph():
    # brute oracle is only tractable on the empty graph, where every D_p
    # stays tiny
    g = BipartiteGraph.build(["u"], [], [])
    run = run_reduction(g, 1, 1, 1, oracle="brute")
    assert run.p_result == independent_pair_count(g) == 2
    # D_0 = {R1(u)} never satisfies the query, so both of its worlds violate
    assert run.n_vector[0] == 2


def test_run_reduction_recovers_y_histogram():
    run = run_reduction(EDGE, 1, 1, 1)
    # independent pairs: (0,0), (1,0), (0,1); the dependent pair (1,1) has
    # its edge contained, so it sits in a c=1 cell
    assert run.y_vector[(0, 0, 0, 0, 0)] == 1
    assert run.y_vector[(1, 0, 0, 1, 0)] == 1
    assert run.y_vector[(0, 1, 0, 0, 1)] == 1
    assert run.y_vector[(1, 1, 1, 0, 0)] == 1
    assert sum(run.y_vector.values()) == 4


def test_run_reduction_emits_instances(tmp_path):
    g = BipartiteGraph.build(["u"], [], [])
    out = tmp_path / "emitted"
    run_reduction(g, 1, 1, 1, oracle="brute", emit_dir=str(out))
    files = sorted(f.name for f in out.iterdir())
    assert files == [f"D_{p}.facts" for p in range(2)]
    assert (out / "D_0.facts").read_text() == "R1(u)\n"


TRANSFORM_Q = parse_query("A(x,z), S(x,y), B(y,w), U(v)")


def test_lemma_binary_transform_example():
    i = parse_instance("R1(a)\nS1(a,b)\nT1(b)\n")
    mapped = lemma_binary_transform(TRANSFORM_Q, i)
    assert mapped == Instance(
        [
            Fact("A", ("a", "@c0")),
            Fact("S", ("a", "b")),
            Fact("B", ("b", "@c0")),
            Fact("U", ("@c0",)),
        ]
    )


def test_lemma_binary_transform_preserves_model_count():
    rng = random.Random(7)
    elements = ["a", "b", "c"]
    for _ in range(20):
        facts = []
        for x in elements:
            if rng.random() < 0.6:
                facts.append(Fact("R1", (x,)))
            if rng.random() < 0.6:
                facts.append(Fact("T1", (x,)))
            for y in elements:
                if rng.random() < 0.4:
                    facts.append(Fact("S1", (x, y)))
        i = Instance(facts)
        mapped = lemma_binary_transform(TRANSFORM_Q, i)
        assert len(mapped) == len(i) + 1  # the mandatory U-fact
        assert ur_brute(qrst_query(1, 1, 1), i) == ur_brute(TRANSFORM_Q, mapped)


def test_lemma_binary_transform_schema_mismatch():
    with pytest.raises(SchemaMismatchError):
        lemma_binary_transform(TRANSFORM_Q, parse_instance("R2(a)\n"))
    with pytest.raises(SchemaMismatchError):
        lemma_binary_transform(TRANSFORM_Q, parse_instance("S1(a)\n"))


def test_merge_power2_example():
    q211 = qrst_query(2, 1, 1)
    i = parse_instance("R1(a)\nR2(a)\nR1(b)\nS1(a,b)\nT1(b)\n")
    merged, phi = merge_power2(q211, i)
    # R1(b) has no R2(b) partner: dropped as useless
    assert merged == parse_instance("R(a)\nS(a,b)\nT(b)\n")
    assert phi.prob_of(Fact("R", ("a",))) == Fraction(1, 4)
    assert phi.prob_of(Fact("S", ("a", "b"))) == Fraction(1, 2)


def test_merge_power2_identity():
    q122 = qrst_query(1, 2, 2)
    i = parse_instance(
        "R1(a)\nS1(a,b)\nS2(a,b)\nT1(b)\nT2(b)\nS1(a,c)\nT1(c)\n"
    )
    merged, phi = merge_power2(q122, i)
    lhs = ur_brute(q122, i)
    rhs = (1 << len(i)) * pqe_brute(q1_query(), merged, phi)
    assert lhs == rhs


def test_merge_power2_rejects_foreign_query():
    with pytest.raises(SchemaMismatchError):
        merge_power2(TRANSFORM_Q, Instance())
