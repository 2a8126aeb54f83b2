import itertools
import random
from dataclasses import replace
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from qreliab import reduction_ur, vandermonde
from qreliab.bipartite import BipartiteGraph, independent_pair_count, x_table
from qreliab.cq import parse_query
from qreliab.errors import (
    CapExceededError,
    DuplicateNodeError,
    InvalidProfileError,
    QReliabError,
    SchemaMismatchError,
)
from qreliab.evaluate import pqe_brute, ur_brute
from qreliab.gadgets import closed_counts, q1_query, qrst_query
from qreliab.instances import Fact, Instance, ProbAssignment, parse_instance
from qreliab.reduction_ur import (
    alpha_coefficient,
    build_Dp,
    lemma_binary_transform,
    merge_power2,
    np_analytic,
    profile_cells,
    reduction_params,
    run_reduction,
    weighted_profiles,
)
from qreliab.vandermonde import kron_power_sums, recover_counts, solve_vandermonde

EDGE = BipartiteGraph.build(["u"], ["w"], [("u", "w")])


def test_reduction_params_single_edge():
    p = reduction_params(EDGE, 1, 1, 1)
    assert (p.M1, p.M2, p.M3, p.M) == (5, 26, 84, 16)


def test_reduction_params_larger():
    g = BipartiteGraph.build(["u1", "u2"], ["w"], [("u1", "w"), ("u2", "w")])
    p = reduction_params(g, 1, 1, 1)
    assert (p.M1, p.M2, p.M3) == (9, 82, 420)
    assert p.M == 3 * 2 * 10


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
    tiny = replace(reduction_params(EDGE, 1, 1, 1), M1=1, M2=1, M3=1)
    assert len(build_Dp(EDGE, 1, 1, 1, 1, tiny)) == 13


def test_alpha_coefficient_rejects_invalid_profile():
    params = reduction_params(EDGE, 1, 1, 1)
    counts = closed_counts(1, 1, 1)
    with pytest.raises(InvalidProfileError):
        alpha_coefficient((0, 0, 1, 1, 0), counts, params)
    with pytest.raises(InvalidProfileError):
        alpha_coefficient((2, 0, 0, 0, 0), counts, params)


def test_alpha_coefficient_independent_pair():
    params = replace(reduction_params(EDGE, 1, 1, 1), M1=1, M2=1, M3=1)
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
    tiny = replace(reduction_params(EDGE, 1, 1, 1), M1=1, M2=1, M3=1)
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
    assert solve_vandermonde(nodes, rhs, SOLVER_PRIME) == y


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
    solution = solve_vandermonde(nodes, [residue(b, SOLVER_PRIME) for b in rhs], SOLVER_PRIME)
    assert solution == [residue(v, SOLVER_PRIME) for v in y]


def test_solve_vandermonde_rejects_duplicates():
    with pytest.raises(DuplicateNodeError):
        solve_vandermonde([1, 1], [0, 0], SOLVER_PRIME)


def grid_sums(run, y):
    """sum_k y_k * row_i**p_left * column_j**p_right * cell_k**p on every
    grid point, in row-major order of (p_left, p_right, p), each power
    taken directly over the run's exact factors."""
    rows, columns, parts = run.alpha
    per_row = len(columns) * len(parts)
    entries = [
        (v, rows[k // per_row], columns[k // len(parts) % len(columns)], parts[k % len(parts)])
        for k, v in enumerate(y)
    ]
    grid = itertools.product(range(len(rows)), range(len(columns)), range(len(parts)))
    return [
        sum(v * a**p_left * b**p_right * c**p for v, a, b, c in entries)
        for p_left, p_right, p in grid
    ]


def test_run_reduction_single_edge_satisfies_every_equation():
    run = run_reduction(EDGE, 1, 1, 1)
    assert run.p_result == 3
    assert len(run.n_vector) == run.params.M
    assert grid_sums(run, [run.y_vector[key] for key in run.cells]) == run.n_vector


SOLVER_PRIME = vandermonde._PRIMES[0]  # the smallest listed prime, 2**30 - 35
MERSENNE_61 = (1 << 61) - 1  # the smallest listed prime above it
SYSTEM_PRIMES = vandermonde._PRIMES[:3]  # the three smallest
NODES = [2, 3, 5, 7, 11, 13, 17]


def residue(x, prime):
    """A rational modulo a prime: its numerator times the inverse of its
    denominator (ValueError if the prime divides the denominator)."""
    x = Fraction(x)
    return x.numerator * pow(x.denominator, -1, prime) % prime


def recover(nodes, rhs, bound):
    """recover_counts on a one-factor system given by exact nodes and
    right-hand side, checked exactly on its first four equations."""
    return recover_counts([nodes], [bound] * len(nodes), 4, rhs)


def test_recover_counts_takes_exactly_one_of_rhs_and_terms():
    y = [4, 0, 1]
    nodes = NODES[:3]
    args = ([nodes], [10] * 3, 4)
    assert recover_counts(*args, rhs=dual_rhs(nodes, y)) == y
    assert recover_counts(*args, terms=y) == y
    with pytest.raises(QReliabError, match="exactly one"):
        recover_counts(*args)
    with pytest.raises(QReliabError, match="exactly one"):
        recover_counts(*args, rhs=dual_rhs(nodes, y), terms=y)


def test_recover_counts_returns_planted_solution():
    y = [4, 0, 1, 9, 99, 7, 3]
    assert recover(NODES, dual_rhs(NODES, y), 100) == y


def test_recover_counts_past_two_primes():
    bound = 1 << 200
    y = [bound - 1, 0, 1 << 150, 5, (1 << 199) + 3, 1, bound // 3]
    assert recover(NODES, dual_rhs(NODES, y), bound) == y


def test_recover_counts_skips_a_prime_where_nodes_collide():
    nodes = [1, SOLVER_PRIME + 1]  # equal modulo the smallest listed prime
    assert recover(nodes, dual_rhs(nodes, [3, 4]), 10) == [3, 4]
    # the same collision between the first and the last of 100 nodes, which
    # the solve holds in different leaf blocks of its subproduct tree
    nodes = list(range(1, 100)) + [SOLVER_PRIME + 1]
    y = [k % 7 for k in range(100)]
    assert recover(nodes, dual_rhs(nodes, y), 10) == y


def test_recover_counts_rejects_nodes_colliding_at_every_prime():
    with pytest.raises(QReliabError, match="no solver prime"):
        recover([5, 5], [2, 10], 10)


def test_recover_counts_rejects_bound_past_every_prime():
    with pytest.raises(QReliabError, match="no solver prime"):
        recover([2, 3], dual_rhs([2, 3], [1, 1]), 1 << 5000)


def test_recover_counts_rejects_entry_past_bound():
    y = [4, 0, 100, 9, 1, 7, 3]
    with pytest.raises(QReliabError, match="bound"):
        recover(NODES, dual_rhs(NODES, y), 100)


def test_recover_counts_rejects_entry_that_wraps():
    # the entry reduces to 5 modulo the solver prime, which is within bound
    y = [4, SOLVER_PRIME + 5, 1, 9, 1, 7, 3]
    with pytest.raises(QReliabError, match="equation"):
        recover(NODES, dual_rhs(NODES, y), 100)


def test_recover_counts_checks_every_equation():
    # Equation 5 is off by a multiple of the solver prime: the modular solve,
    # the bound and the first four equations cannot see it.
    y = [4, 0, 1, 9, 1, 7, 3]
    rhs = dual_rhs(NODES, y)
    rhs[5] += SOLVER_PRIME
    with pytest.raises(QReliabError, match="p=5"):
        recover(NODES, rhs, 100)


def test_run_reduction_brute_oracle_downscaled_graph():
    # The default width cap refuses the one-edge graph's instances with
    # p >= 2 (each is one lineage component of 32 facts or more), so this
    # run takes an edgeless graph, whose instances stay tiny; the one-edge
    # graph's full run is test_run_reduction_brute_oracle_full_multiplicity.
    g = BipartiteGraph.build(["u"], [], [])
    run = run_reduction(g, 1, 1, 1, oracle="brute")
    assert run.p_result == independent_pair_count(g) == 2
    # D_{0,0,0} = {R1(u)} never satisfies the query, so both of its worlds violate
    assert run.n_vector[0] == 2
    with pytest.raises(CapExceededError):
        run_reduction(EDGE, 1, 1, 1, oracle="brute")


def assert_brute_counts_are_the_forward_map_of_y(g, rst):
    """The brute oracle's count of every grid instance is the forward map
    of Y over the three exact factors, and the run recovers P."""
    run = run_reduction(g, *rst, oracle="brute")
    y = weighted_profiles(g, rst[0], rst[2])
    terms = [y.get(key, 0) for key in run.cells]
    shape = list(map(len, run.alpha))
    assert len(run.n_vector) == run.params.M
    assert run.n_vector == kron_power_sums(terms, run.alpha, shape)
    assert run.p_result == independent_pair_count(g)
    return run


def test_run_reduction_brute_oracle_full_multiplicity(monkeypatch):
    # The counter's width cap lifted, so every instance of the one-edge
    # graph's grid is counted: the brute oracle agrees with the per-pair
    # formula on each of the M' = 16 equations.
    monkeypatch.setenv("QRELIAB_BRUTE_CAP", "100000")
    for rst in [(1, 1, 1), (2, 1, 1)]:
        run = assert_brute_counts_are_the_forward_map_of_y(EDGE, rst)
        assert run.params.M == 16
        assert run.n_vector == run_reduction(EDGE, *rst).n_vector


def test_run_reduction_brute_oracle_on_a_two_matching(monkeypatch):
    # past the single edge: a 3 x 3 x 10 grid of instances, counted in a
    # fraction of a second, recovers P = 9
    monkeypatch.setenv("QRELIAB_BRUTE_CAP", "100000")
    run = assert_brute_counts_are_the_forward_map_of_y(matching(2), (1, 1, 1))
    assert (run.params.M, run.p_result) == (90, 9)


def test_weighted_profiles():
    g = BipartiteGraph.build(["u1", "u2"], ["w"], [("u1", "w")])
    x = x_table(g)
    # at r = t = 1 every weight (2^1 - 1)^k is 1
    assert weighted_profiles(g, 1, 1) == x
    y = weighted_profiles(g, 2, 3)
    assert set(y) == set(x)
    # each dropped left vertex contributes 2^2 - 1, the dropped right one 2^3 - 1
    assert y[(0, 0, 0, 0, 0)] == 3**2 * 7 * x[(0, 0, 0, 0, 0)]
    assert y[(1, 0, 0, 1, 0)] == 3 * 7
    assert y[(2, 1, 1, 0, 0)] == 1


def test_run_reduction_recovers_y_histogram():
    run = run_reduction(EDGE, 1, 1, 1)
    # independent pairs: (0,0), (1,0), (0,1); the dependent pair (1,1) has
    # its edge contained, so it sits in a c=1 cell
    assert run.y_vector[(0, 0, 0, 0, 0)] == 1
    assert run.y_vector[(1, 0, 0, 1, 0)] == 1
    assert run.y_vector[(0, 1, 0, 0, 1)] == 1
    assert run.y_vector[(1, 1, 1, 0, 0)] == 1
    assert sum(run.y_vector.values()) == 4


def assert_recovers_weighted_histogram(run, g):
    """The recovered y is the weighted histogram Y, cell by cell, and zero
    on every other cell."""
    y = weighted_profiles(g, run.params.r, run.params.t)
    assert set(y) <= set(run.cells)
    for key in run.cells:
        assert run.y_vector[key] == y.get(key, 0), key


def small_graphs():
    """Every graph with up to 2 + 2 vertices and up to 2 edges."""
    for n_left, n_right in itertools.product(range(3), repeat=2):
        left = [f"u{k}" for k in range(n_left)]
        right = [f"w{k}" for k in range(n_right)]
        possible = [(u, w) for u in left for w in right]
        for size in range(min(2, len(possible)) + 1):
            for edges in itertools.combinations(possible, size):
                yield BipartiteGraph.build(left, right, edges)


def test_run_reduction_recovers_weighted_histogram_on_small_graphs():
    graphs = list(small_graphs())
    assert len(graphs) == 26
    for g in graphs:
        for rst in [(1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2)]:
            assert_recovers_weighted_histogram(run_reduction(g, *rst), g)


@st.composite
def graphs_up_to_2x2(draw):
    left = [f"u{k}" for k in range(draw(st.integers(0, 2)))]
    right = [f"w{k}" for k in range(draw(st.integers(0, 2)))]
    possible = [(u, w) for u in left for w in right]
    edges = draw(st.lists(st.sampled_from(possible), unique=True) if possible else st.just([]))
    return BipartiteGraph.build(left, right, edges)


@settings(max_examples=30, deadline=None)
@given(graphs_up_to_2x2(), st.tuples(*[st.integers(1, 2)] * 3))
def test_run_reduction_matches_pair_count(g, rst):
    run = run_reduction(g, *rst)
    assert run.p_result == independent_pair_count(g)
    assert_recovers_weighted_histogram(run, g)


def matching(n):
    left, right = [f"u{k}" for k in range(n)], [f"w{k}" for k in range(n)]
    return BipartiteGraph.build(left, right, list(zip(left, right)))


def test_run_reduction_three_edge_matching():
    g = matching(3)
    run = run_reduction(g, 1, 1, 1)
    assert run.params.M == 320
    assert run.p_result == 27
    assert_recovers_weighted_histogram(run, g)


def test_run_reduction_four_edge_matching():
    g = matching(4)
    run = run_reduction(g, 1, 1, 1)
    assert run.params.M == 875
    assert run.p_result == 81 == independent_pair_count(g)
    assert_recovers_weighted_histogram(run, g)


def test_run_reduction_skips_a_prime_dividing_a_gadget_count(monkeypatch):
    # 61 divides s + t, so 2**61 - 1 divides lam_r = 2**(s + t) - 1: modulo
    # that prime the cell nodes with c + d >= 1 vanish, two of them collide,
    # and the solve moves on to the next prime.  The bound has 42 bits, so
    # 2**61 - 1 is the first prime tried, and it is skipped before the
    # forward map of Y or any solver is built there; a correct run checks
    # at no other prime.
    assert closed_counts(20, 41, 20).lam_r % MERSENNE_61 == 0
    primes = {"solver": [], "forward": []}
    solver, forward = vandermonde.dual_solver, vandermonde.kron_power_sums

    def solver_spy(nodes, prime):
        primes["solver"].append(prime)
        return solver(nodes, prime)

    def forward_spy(terms, factors, lengths, prime=None):
        primes["forward"].append(prime)
        return forward(terms, factors, lengths, prime)

    monkeypatch.setattr(vandermonde, "dual_solver", solver_spy)
    monkeypatch.setattr(vandermonde, "kron_power_sums", forward_spy)
    run = run_reduction(EDGE, 20, 41, 20)
    assert run.p_result == 3
    assert primes == {"solver": [(1 << 89) - 1] * 3, "forward": [(1 << 89) - 1]}
    assert_recovers_weighted_histogram(run, EDGE)


@pytest.mark.parametrize("rst", [(14, 15, 14), (20, 21, 20)])
def test_run_reduction_single_edge_at_large_multiplicities(rst):
    # the bound lies just below the word-size prime at (14, 15, 14) and has
    # 42 bits at (20, 21, 20), where the run solves modulo 2**61 - 1; the
    # exact cell nodes have up to 1,842 and 3,588 bits (M1 = 61 and 85)
    run = run_reduction(EDGE, *rst)
    assert run.p_result == 3
    nonzero = {key: y for key, y in run.y_vector.items() if y}
    assert nonzero == weighted_profiles(EDGE, rst[0], rst[2])


def solver_system(monkeypatch, g, rst):
    """run_reduction(g, *rst) and the system it hands to the solver:
    (run, factors, lead, rhs, terms), the factors' exact node lists."""
    systems = []

    def spy(factors, bounds, lead, rhs=None, terms=None):
        systems.append((factors, lead, rhs, terms))
        return recover_counts(factors, bounds, lead, rhs, terms)

    monkeypatch.setattr(reduction_ur, "recover_counts", spy)
    run = run_reduction(g, *rst)
    [system] = systems
    return (run, *system)


ONE_OF_TWO = BipartiteGraph.build(["u"], ["w1", "w2"], [("u", "w2")])


@pytest.mark.parametrize(
    "g, rst",
    [
        (EDGE, (1, 1, 1)),
        (EDGE, (30, 1, 30)),
        (ONE_OF_TWO, (2, 1, 1)),
        (BipartiteGraph.build(["u1", "u2"], ["w1", "w2"], [("u1", "w1"), ("u2", "w1")]), (1, 2, 1)),
    ],
)
def test_node_residues_match_exact_coefficients(monkeypatch, g, rst):
    run, factors, *_ = solver_system(monkeypatch, g, rst)
    assert factors == run.alpha
    assert all(type(value) is int for nodes in factors for value in nodes)
    shape = [len(g.left) + 1, len(g.right) + 1, comb(g.m + 3, 3)]
    assert [len(nodes) for nodes in factors] == shape
    # the paper's coefficient is the diagonal's: row**M2 * column**M3 * cell
    (rows, columns, parts), params = factors, run.params
    for k, key in enumerate(run.cells):
        node = rows[key[0]] ** params.M2 * columns[key[1]] ** params.M3 * parts[k % len(parts)]
        assert node == alpha_coefficient(key, run.counts, params)


@pytest.mark.parametrize("g, rst", [(EDGE, (1, 1, 1)), (EDGE, (2, 1, 3)), (ONE_OF_TWO, (1, 1, 2))])
def test_rhs_residues_match_exact_counts(monkeypatch, g, rst):
    # grid_sums powers each factor directly, apart from the power sums that
    # build every right-hand side and n_vector; the right-hand side is the
    # forward map of the terms, which recover_counts computes in residues,
    # and the exactly checked equations are those with every power below 4
    run, exact, lead, rhs, terms = solver_system(monkeypatch, g, rst)
    assert run.params.M in (16, 24)
    counts = grid_sums(run, terms)
    assert (lead, rhs) == (4, None)
    assert run.n_vector == counts
    shape = list(map(len, exact))
    for prime in SYSTEM_PRIMES:
        factors = [[x % prime for x in nodes] for nodes in exact]
        rhs = kron_power_sums(terms, factors, shape, prime)
        assert rhs == [n % prime for n in counts]


def test_n_vector_reads_the_recovered_y(monkeypatch):
    # one pair histogram per run: n_vector is the forward map of the y
    # the run recovered, not of a second x_table
    calls = []
    table = reduction_ur.x_table

    def counted(g):
        calls.append(g)
        return table(g)

    monkeypatch.setattr(reduction_ur, "x_table", counted)
    g = matching(2)
    run = run_reduction(g, 1, 1, 1)
    assert run.n_vector == grid_sums(run, [run.y_vector[key] for key in run.cells])
    assert calls == [g]


def test_run_reduction_emits_instances(tmp_path):
    g = BipartiteGraph.build(["u"], [], [])
    out = tmp_path / "emitted"
    run_reduction(g, 1, 1, 1, oracle="brute", emit_dir=str(out))
    files = sorted(f.name for f in out.iterdir())
    assert files == [f"D_{p_left}_0_0.facts" for p_left in range(2)]
    assert (out / "D_0_0_0.facts").read_text() == "R1(u)\n"
    # one (a,b)-gadget on u: R1(u), S1(u, b) and T1(b)
    assert len(parse_instance((out / "D_1_0_0.facts").read_text())) == 3


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


@pytest.mark.parametrize(
    "query", ["R(x), S1(x,y), S2(y,x), T(y)", "R(x), S1(x,y,z), T(y)", "R(x), S1(x,y,'c'), T(y)"]
)
def test_merge_power2_rejects_shared_atoms_other_than_x_y(query):
    # with S2(y,x), S1(a,b) and S2(b,a) form the one match of the query
    # (ur_brute gives 1), but no merged S fact could stand for the pair
    i = parse_instance("R(a)\nS1(a,b)\nS2(b,a)\nT(b)\n")
    with pytest.raises(SchemaMismatchError):
        merge_power2(parse_query(query), i)


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
