import itertools
import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from qreliab import reduction_pqe, vandermonde
from qreliab.bipartite import BipartiteGraph, independent_pair_count
from qreliab.errors import DuplicateNodeError, QReliabError
from qreliab.gadgets import closed_counts
from qreliab.reduction_pqe import run_reduction_pqe
from qreliab.reduction_ur import grid_factors, reduction_params, run_reduction
from qreliab.vandermonde import dual_solve, kron_power_sums, mod_inverses, recover_counts

WORD_PRIME = vandermonde._PRIMES[0]  # the smallest listed prime, 2**30 - 35
PRIME = (1 << 61) - 1  # the smallest listed prime above it
MODULI = [WORD_PRIME, PRIME, (1 << 521) - 1, 10007]


def quadratic_dual_solve(nodes, rows, prime):
    """The reference solve of each right-hand side of ``rows`` in O(n^2)
    operations (Bjorck & Pereyra, Math. Comp. 24, 1970).  With
    P(x) = prod_k (x - x_k) and the synthetic quotients Q_k = P / (x - x_k),
    Q_k vanishes at every node but x_k, hence
    y_k = sum_p Q_k[p] b_p / Q_k(x_k).  P, the Q_k and 1 / Q_k(x_k) are
    built once per node set."""
    n = len(nodes)
    if any(len(rhs) != n for rhs in rows):
        raise QReliabError("nodes and right-hand side differ in length")
    nodes = [x % prime for x in nodes]
    if len(set(nodes)) != n:
        raise DuplicateNodeError(f"nodes are not pairwise distinct modulo {prime}")
    master = [1]  # coefficients of P, low to high
    for x in nodes:
        master = [0] + master
        for p in range(len(master) - 1):
            master[p] = (master[p] - x * master[p + 1]) % prime
    quotients, scales = [], []
    for x in nodes:
        quotient = [0] * n  # coefficients of Q_k, low to high
        quotient[n - 1] = master[n]
        for p in range(n - 1, 0, -1):
            quotient[p - 1] = (master[p] + x * quotient[p]) % prime
        value = 0  # Q_k(x_k)
        for q in reversed(quotient):
            value = (value * x + q) % prime
        quotients.append(quotient)
        scales.append(pow(value, -1, prime))
    solutions = []
    for rhs in rows:
        rhs = [b % prime for b in rhs]
        solutions.append([
            sum(map(operator.mul, quotient, rhs)) % prime * scale % prime
            for quotient, scale in zip(quotients, scales)
        ])
    return solutions


def dual_rhs(nodes, y):
    return [sum(yk * x**p for yk, x in zip(y, nodes)) for p in range(len(nodes))]


def distinct(draw_one, n, rnd, zero=False):
    """n distinct values from ``draw_one(rnd)``, with 0 among them at a random
    place if ``zero``.  Large systems come from a drawn seed, not value by
    value, which would overrun Hypothesis's input buffer."""
    values = {0} if zero else set()
    while len(values) < n:
        values.add(draw_one(rnd))
    values = sorted(values)
    rnd.shuffle(values)
    return values


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(MODULI),
    st.one_of(st.integers(0, 300), st.sampled_from([0, 32, 33, 64, 65, 96, 97])),
    st.sampled_from([0, 1, 2, 3, 4, 5, 40]),
    st.booleans(),
    st.integers(0, 1 << 32),
)
@example(WORD_PRIME, 0, 3, False, 0)
@example(PRIME, 97, 40, True, 1)
def test_solve_matches_quadratic_solve(prime, n, batch, zero, seed):
    # sizes at and just past the leaf blocks of the subproduct tree, moduli
    # of one CPython digit, of one machine word, of many, and one below
    # every solver prime; every right-hand side of a batch of up to 40,
    # solved in one call, matches its own reference solve
    rnd = random.Random(seed)
    nodes = distinct(lambda r: r.randrange(prime), n, rnd, zero and n > 0)
    rows = [[rnd.randrange(prime) for _ in nodes] for _ in range(batch)]
    solutions = dual_solve(nodes, rows, prime)
    assert solutions == quadratic_dual_solve(nodes, rows, prime)
    if rows:
        assert dual_solve(nodes, rows[:1], prime) == solutions[:1]


def residue(x, prime=PRIME):
    """A rational modulo a prime: its numerator times the inverse of its
    denominator."""
    x = Fraction(x)
    return x.numerator * pow(x.denominator, -1, prime) % prime


@settings(max_examples=5, deadline=None)
@given(st.integers(33, 40), st.integers(0, 1 << 32))
def test_solve_over_fractions_past_one_block(n, seed):
    # the remainder tree and its Newton inverses on the residues of a
    # rational system, whose exact right-hand side comes from kron_power_sums
    # over one factor
    rnd = random.Random(seed)
    nodes = distinct(lambda r: Fraction(r.randint(-50, 50), r.randint(1, 4)), n, rnd)
    y = [Fraction(rnd.randint(-9, 9), rnd.randint(1, 9)) for _ in nodes]
    rhs = kron_power_sums(y, [nodes], [n])
    [solution] = dual_solve([residue(x) for x in nodes], [[residue(b) for b in rhs]], PRIME)
    assert solution == [residue(v) for v in y]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=12, unique=True),
    st.integers(1, 1 << 60),
    st.data(),
)
def test_modular_dual_solve_matches_exact(nodes, bound, data):
    y = [data.draw(st.integers(0, bound - 1)) for _ in nodes]
    rhs = dual_rhs(nodes, y)
    assert dual_solve(nodes, [rhs], PRIME) == [y]
    # kron_power_sums over one factor is the forward map of the solve,
    # exactly and modulo PRIME
    n = len(nodes)
    assert kron_power_sums(y, [nodes], [n]) == rhs
    residues = kron_power_sums(y, [nodes], [n], PRIME)
    assert residues == [b % PRIME for b in rhs]
    assert dual_solve(nodes, [residues], PRIME) == [y]


@st.composite
def fraction_systems(draw):
    """Distinct Fraction nodes and a Fraction solution of the same length."""
    nodes = draw(
        st.lists(
            st.fractions(min_value=-50, max_value=50, max_denominator=12),
            min_size=1,
            max_size=7,
            unique=True,
        )
    )
    fractions = st.fractions(min_value=-50, max_value=50, max_denominator=9)
    return nodes, [draw(fractions) for _ in nodes]


@settings(max_examples=200, deadline=None)
@given(fraction_systems())
@example(([2, 3, 5, 7], [4, 0, 1, 9]))
def test_power_sums_roundtrip_over_fractions(system):
    nodes, y = system
    rhs = kron_power_sums(y, [nodes], [len(nodes)])
    assert rhs == dual_rhs(nodes, y)
    [solution] = dual_solve([residue(x) for x in nodes], [[residue(b) for b in rhs]], PRIME)
    assert solution == [residue(v) for v in y]


MOD_INVERSE_PRIMES = [(1 << e) - 1 for e in (61, 89, 521)]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(MOD_INVERSE_PRIMES), st.lists(st.integers(min_value=0), max_size=40))
@example(MOD_INVERSE_PRIMES[0], [])
@example(MOD_INVERSE_PRIMES[1], [3, MOD_INVERSE_PRIMES[1] * 5, 7])
def test_mod_inverses_match_pow(prime, values):
    # one inverse per list, value by value the same as pow's; a value that
    # is 0 modulo the prime raises ValueError, as pow does
    if any(v % prime == 0 for v in values):
        with pytest.raises(ValueError):
            mod_inverses(values, prime)
    else:
        assert mod_inverses(values, prime) == [pow(v, -1, prime) for v in values]


def test_empty_systems():
    for prime in MODULI:
        assert dual_solve([], [[]], prime) == [[]]
        assert dual_solve([1, 2], [], prime) == []


def test_a_factor_without_nodes_is_a_valid_system():
    # no unknowns: every power sum is 0, and there is nothing to recover,
    # alone or beside a factor with nodes
    assert kron_power_sums([], [[]], [3]) == [0, 0, 0]
    assert kron_power_sums([], [[], [1, 2]], [3, 2]) == [0] * 6
    assert kron_power_sums([], [[1, 2], []], [2, 1], PRIME) == [0, 0]
    assert recover_counts([[]], [], 4, terms=[]) == []
    assert recover_counts([[]], [], 4, rhs=[]) == []
    assert recover_counts([[1, 2], []], [], 4, terms=[]) == []


def test_kron_power_sums_checks_lengths():
    # terms of the product of the factors' lengths, one length per factor
    for terms, factors, lengths in [
        ([1, 2, 3], [[1, 2]], [2]),  # one term too many
        ([1], [[1, 2]], [2]),  # one term too few
        ([1, 2], [[1, 2]], [2, 3]),  # one length too many
        ([1, 2, 3, 4], [[1, 2], [3, 4]], [2]),  # one length too few
    ]:
        for prime in (None, PRIME):
            with pytest.raises(QReliabError):
                kron_power_sums(terms, factors, lengths, prime)


def test_recover_counts_checks_lengths():
    # bounds, rhs and terms each of the product of the factors' lengths: a
    # y past the bounds is not dropped unseen, nor a missing term taken as 0
    nodes = [1, 2, 3]
    rhs = kron_power_sums([1, 2, 50], [nodes], [3])
    assert recover_counts([nodes], [100] * 3, 4, rhs=rhs) == [1, 2, 50]
    for bounds, given in [
        ([10], {"rhs": rhs}),
        ([100] * 3, {"terms": [3, 6]}),
        ([100] * 3, {"terms": [3, 6, 0, 0]}),
        ([100] * 3, {"rhs": rhs[:2]}),
        ([100] * 3, {"rhs": [*rhs, 0]}),
        ([100] * 4, {"terms": [1, 2, 50]}),
    ]:
        with pytest.raises(QReliabError):
            recover_counts([nodes], bounds, 4, **given)


def test_modular_solve_rejects_nodes_colliding_modulo_the_prime():
    dual_solve([1, 1 + 7], [[0, 0]], PRIME)  # distinct modulo PRIME
    with pytest.raises(DuplicateNodeError):
        dual_solve([1, 1 + 7], [[0, 0]], 7)
    with pytest.raises(DuplicateNodeError):
        dual_solve([1, 1], [[0, 0]], PRIME)
    with pytest.raises(DuplicateNodeError):
        dual_solve([residue(Fraction(1, 2)), residue(Fraction(2, 4))], [[0, 0]], PRIME)
    # first and last node, in different leaf blocks: only the check before
    # any polynomial work tells this from a division by zero in the tree
    nodes = list(range(2, 102))
    nodes[-1] = nodes[0] + PRIME
    with pytest.raises(DuplicateNodeError):
        dual_solve(nodes, [[0] * 100], PRIME)


def test_length_mismatch():
    with pytest.raises(QReliabError):
        dual_solve([1, 2], [[0]], PRIME)
    with pytest.raises(QReliabError):
        dual_solve([1, 2], [[0, 1, 2]], PRIME)
    # one short or one long row among right length rows fails the batch
    for bad in ([0, 1], [0, 1, 2, 3]):
        for rows in ([bad, [0, 1, 2]], [[0, 1, 2], [3, 4, 5], bad]):
            with pytest.raises(QReliabError):
                dual_solve([1, 2, 3], rows, PRIME)


@st.composite
def kron_systems(draw):
    """Two or three factors of distinct integer nodes and non-negative
    integer counts."""
    factors = [
        draw(st.lists(st.integers(-9, 9), min_size=1, max_size=4, unique=True))
        for _ in range(draw(st.integers(2, 3)))
    ]
    size = math.prod(map(len, factors))
    counts = draw(st.lists(st.integers(0, 20), min_size=size, max_size=size))
    return factors, counts


@settings(max_examples=100, deadline=None)
@given(kron_systems(), st.integers(1, 3))
def test_kron_power_sums_and_recover_counts(system, lead):
    # the forward map against the sum it stands for, and recover_counts
    # undoing it over two and three factors, checked exactly on the
    # leading block of equations, every power below lead
    factors, counts = system
    shape = list(map(len, factors))
    indices = list(itertools.product(*map(range, shape)))
    rhs = [
        sum(
            count * math.prod(nodes[k] ** p for nodes, k, p in zip(factors, index, powers))
            for count, index in zip(counts, indices)
        )
        for powers in indices
    ]
    residues = [[x % PRIME for x in nodes] for nodes in factors]
    assert kron_power_sums(counts, factors, shape) == rhs
    assert kron_power_sums(counts, residues, shape, PRIME) == [b % PRIME for b in rhs]

    # b given as is, or as the expected counts, whose forward map it is
    bounds = [21] * len(counts)
    assert recover_counts(factors, bounds, lead, rhs=rhs) == counts
    assert recover_counts(factors, bounds, lead, terms=counts) == counts


# Both reductions with their formula oracles, which hand recover_counts the
# solution they expect, so that its exact check reads y - expected.
EDGE = BipartiteGraph.build(["u"], ["w"], [("u", "w")])
FORMULA_RUNS = {
    "ur": lambda: run_reduction(EDGE, 1, 2, 1),  # every pair weighs 1: P takes any y
    "pqe": lambda: run_reduction_pqe(EDGE, Fraction(1, 3), Fraction(3, 4), oracle="formula"),
}


@pytest.fixture()
def exact_reads(monkeypatch):
    """What is computed exactly, in call order: "forward" for each exact
    forward map, and the nodes of each non-empty exact table of node
    powers, which are the exact nodes that the forward map reads."""
    reads = []
    table, forward = vandermonde._power_table, vandermonde.kron_power_sums

    def table_spy(nodes, n, prime=None):
        if prime is None and nodes:
            reads.append(tuple(nodes))
        return table(nodes, n, prime)

    def forward_spy(terms, factors, lengths, prime=None):
        if prime is None:
            reads.append("forward")
        return forward(terms, factors, lengths, prime)

    monkeypatch.setattr(vandermonde, "_power_table", table_spy)
    monkeypatch.setattr(vandermonde, "kron_power_sums", forward_spy)
    return reads


def test_formula_runs_build_no_exact_node(exact_reads):
    # a correct run's y equals the expected solution, so no exact check
    # runs: no exact forward map is taken and no exact node is read
    for run in FORMULA_RUNS.values():
        assert run().p_result == 3
    assert exact_reads == []


@pytest.mark.parametrize("name", FORMULA_RUNS)
def test_exact_check_rejects_a_planted_error(monkeypatch, exact_reads, name):
    # the first cell of Y, 1 for ur and 2 for pqe, one too small: within
    # its bound, so only the checks can see it
    solve = vandermonde._kron_solve

    def off_by_one(factors, rhs, prime):
        solution = solve(factors, rhs, prime)
        solution[0] -= 1
        return solution

    monkeypatch.setattr(vandermonde, "_kron_solve", off_by_one)
    with pytest.raises(QReliabError, match="fails exact equation"):
        FORMULA_RUNS[name]()
    # the failed check took one exact forward map, which read the exact
    # nodes of the wrong cell alone: the first node of each factor
    factors = {
        "ur": lambda: grid_factors(closed_counts(1, 2, 1), reduction_params(EDGE, 1, 2, 1)),
        "pqe": lambda: reduction_pqe._system(1, 1, Fraction(1, 3), Fraction(3, 4))[0],
    }[name]()
    assert exact_reads[0] == "forward" and "forward" not in exact_reads[1:]
    assert set(exact_reads[1:]) == {(nodes[0],) for nodes in factors}


@pytest.mark.parametrize("run", FORMULA_RUNS.values(), ids=FORMULA_RUNS)
def test_exact_check_rejects_an_error_every_prime_agrees_with(monkeypatch, run):
    # modulo every prime, the forward map drops the first cell, whose
    # expected entry is not 0: the right-hand side at the solver prime is that
    # of the first cell one too small, and the check modulo a second prime
    # sees no difference either, so only the exact check can reject it
    forward = vandermonde.kron_power_sums

    def planted(terms, factors, lengths, prime=None):
        if prime is not None:
            terms = [0, *terms[1:]]
        return forward(terms, factors, lengths, prime)

    monkeypatch.setattr(vandermonde, "kron_power_sums", planted)
    with pytest.raises(QReliabError, match="fails exact equation"):
        run()


def test_correct_formula_runs_work_at_one_prime(monkeypatch):
    # the solver prime's solves and right-hand side are all a correct run
    # computes in residues: y equals the expected solution, so the check
    # modulo a second prime has nothing to sum
    solver_primes, forward_primes = [], []
    solve, forward = vandermonde.dual_solve, vandermonde.kron_power_sums

    def solver_spy(nodes, rows, prime):
        solver_primes.append(prime)
        return solve(nodes, rows, prime)

    def forward_spy(terms, factors, lengths, prime=None):
        if prime is not None:
            forward_primes.append(prime)
        return forward(terms, factors, lengths, prime)

    monkeypatch.setattr(vandermonde, "dual_solve", solver_spy)
    monkeypatch.setattr(vandermonde, "kron_power_sums", forward_spy)
    for name, run in FORMULA_RUNS.items():
        solver_primes.clear()
        forward_primes.clear()
        assert run().p_result == 3
        assert solver_primes == [WORD_PRIME] * {"ur": 3, "pqe": 2}[name]  # one per factor
        assert forward_primes == [WORD_PRIME]


def test_each_axis_is_solved_in_one_call(monkeypatch):
    # dual_solve is called once per axis, on all the rows along it: 3 calls
    # for the 3 x 3 x 10 system of the 2-matching at (1, 1, 1), not one per
    # row (9 + 30 + 30), and 2 for a PQE formula run
    calls = []
    solve = vandermonde.dual_solve

    def solve_spy(nodes, rows, prime):
        calls.append(len(rows))
        return solve(nodes, rows, prime)

    monkeypatch.setattr(vandermonde, "dual_solve", solve_spy)
    matching = BipartiteGraph.build(["u1", "u2"], ["w1", "w2"], [("u1", "w1"), ("u2", "w2")])
    assert run_reduction(matching, 1, 1, 1).p_result == 9
    assert calls == [9, 30, 30]
    calls.clear()
    assert FORMULA_RUNS["pqe"]().p_result == 3
    assert calls == [2, 2]


def test_modular_check_rejects_an_error_the_exact_check_cannot_see(monkeypatch):
    # On a 2+2 graph the PQE system has 9 cells and 4 exactly checked
    # equations, c, d < 2.  At r = t = 1/2 the left factor's nodes are
    # 2**(2 - i) and every pair weighs 1, so Y = X, and (-1, 3, -2) along i
    # (at j = 1) is orthogonal to 1 and to (4, 2, 1): added to Y, it leaves
    # every exactly checked equation as it is, and its one positive entry
    # takes Y_11 from 1 to 4, below the cell's bound of 5.
    g = BipartiteGraph.build(["u1", "u2"], ["w1", "w2"], [("u1", "w1"), ("u1", "w2"), ("u2", "w1")])
    half = Fraction(1, 2)
    cells = [(i, j) for i in range(3) for j in range(3)]
    planted = {(0, 1): -1, (1, 1): 3, (2, 1): -2}
    solve = vandermonde._kron_solve

    def off_kernel(factors, rhs, prime):
        solution = solve(factors, rhs, prime)
        return [y + planted.get(cell, 0) for y, cell in zip(solution, cells)]

    assert run_reduction_pqe(g, half, half, oracle="formula").x[1, 1] == 1
    monkeypatch.setattr(vandermonde, "_kron_solve", off_kernel)
    with pytest.raises(QReliabError, match="modulo"):
        run_reduction_pqe(g, half, half, oracle="formula")


def test_listed_primes():
    # 2**30 - 35 is prime (trial division up to its square root) and no
    # number between it and 2**30 is, so each residue is one 30-bit digit;
    # the list is smallest first, the Mersenne primes after it
    def is_prime(n):
        return all(n % d for d in range(2, math.isqrt(n) + 1))

    assert WORD_PRIME == (1 << 30) - 35
    assert is_prime(WORD_PRIME)
    assert not any(is_prime(n) for n in range(WORD_PRIME + 1, 1 << 30))
    assert vandermonde._PRIMES[1] == PRIME
    assert all(a < b for a, b in zip(vandermonde._PRIMES, vandermonde._PRIMES[1:]))


@pytest.fixture()
def modular_primes(monkeypatch):
    """The prime of every solve and of every forward map taken modulo a
    prime, in call order."""
    primes = {"solve": [], "forward": []}
    solve, forward = vandermonde._kron_solve, vandermonde.kron_power_sums

    def solve_spy(factors, rhs, prime):
        primes["solve"].append(prime)
        return solve(factors, rhs, prime)

    def forward_spy(terms, factors, lengths, prime=None):
        if prime is not None:
            primes["forward"].append(prime)
        return forward(terms, factors, lengths, prime)

    monkeypatch.setattr(vandermonde, "_kron_solve", solve_spy)
    monkeypatch.setattr(vandermonde, "kron_power_sums", forward_spy)
    return primes


def test_recover_counts_skips_a_colliding_prime_before_any_forward_map(modular_primes):
    # the nodes collide modulo the word-size prime, which is skipped before
    # the forward map of terms is computed there
    nodes = [1, WORD_PRIME + 1]
    assert recover_counts([nodes], [10, 10], 4, terms=[3, 4]) == [3, 4]
    assert modular_primes == {"solve": [PRIME], "forward": [PRIME]}


def test_bound_at_the_word_prime_solves_past_it(modular_primes):
    # the solver prime lies above every bound: a bound of W - 1 solves at
    # W = 2**30 - 35, a bound of W and a PQE bound past it at 2**61 - 1
    nodes = [2, 3, 5]
    for bound in (WORD_PRIME - 1, WORD_PRIME):
        y = [bound - 1, 0, 7]
        assert recover_counts([nodes], [bound] * 3, 4, terms=y) == y
    # X_0,17 = C(34, 17) = 2,333,606,220 on an edgeless 1+34 graph
    g = BipartiteGraph.build(["u"], [f"w{k}" for k in range(34)], [])
    assert run_reduction_pqe(g, Fraction(1, 3), Fraction(1, 2), oracle="formula").p_result == 2**35
    assert modular_primes["solve"] == [WORD_PRIME, PRIME, PRIME]


def test_reduce_sized_runs_solve_at_the_word_prime(modular_primes):
    # a 2-matching at (r, s, t) = (1, 1, 1), M' = 90, and the PQE formula
    # run on a 6+6 graph: both correct, so neither checks at a second prime
    left, right = [f"u{k}" for k in range(6)], [f"w{k}" for k in range(6)]
    matching = BipartiteGraph.build(left[:2], right[:2], list(zip(left[:2], right[:2])))
    run = run_reduction(matching, 1, 1, 1)
    assert (run.params.M, run.p_result) == (90, 9)
    g = BipartiteGraph.build(left, right, [*zip(left, right), (left[0], right[1]), (left[2], right[5])])
    run = run_reduction_pqe(g, Fraction(1, 3), Fraction(2, 3), oracle="formula")
    assert run.p_result == independent_pair_count(g)
    assert modular_primes == {"solve": [WORD_PRIME] * 2, "forward": [WORD_PRIME] * 2}


def test_brute_pqe_run_checks_modulo_the_next_listed_prime(modular_primes):
    # solved modulo the word-size prime, checked modulo 2**61 - 1: no check
    # runs modulo a prime below it
    g = BipartiteGraph.build(["u1", "u2"], ["w1", "w2"], [("u1", "w1")])
    run = run_reduction_pqe(g, Fraction(1, 2), Fraction(1, 3), oracle="brute")
    assert run.p_result == independent_pair_count(g)
    assert modular_primes == {"solve": [WORD_PRIME], "forward": [PRIME]}
