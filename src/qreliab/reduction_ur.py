"""The main counting reduction: from bipartite independent-set-pair counting
to uniform reliability of the R*/S*/T* query family.

Builds the oracle instances D_p, assembles the linear system whose matrix is
a Vandermonde in the per-pair coefficients, directly in residues modulo a
prime above the solution's combinatorial bound, solves it there, and
recovers the independent-set-pair count.  Also provides the
query-generalization transform (arbitrary non-hierarchical query <- R*/S*/T*
family) and the power-of-two probability merge.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cache, cached_property
from typing import Callable, Iterator, Mapping, Sequence

from .bipartite import BipartiteGraph, ProfileKey, ordered_edges, x_table
from .cq import Query, noncomparable_pair_and_rst
from .errors import (
    DuplicateNodeError,
    InvalidProfileError,
    NonIntegralResultError,
    QReliabError,
    SchemaMismatchError,
)
from .gadgets import GadgetCounts, closed_counts, count_violating, gadget_facts, qrst_query
from .instances import Fact, Instance, ProbAssignment, fresh_constant
from .vandermonde import solve_vandermonde

# Mersenne primes, smallest first.  The system is solved modulo one of them
# and checked modulo a later one, so the last one only ever checks.
_MERSENNE_PRIMES = tuple(
    (1 << e) - 1
    for e in (61, 89, 107, 127, 521, 607, 1279, 2203, 2281, 3217, 4253, 4423, 9689)
)


@dataclass(frozen=True)
class ReductionParams:
    r: int
    s: int
    t: int
    m: int
    n_left: int
    n_right: int
    M1: int
    M2: int
    M3: int
    M: int


@dataclass(frozen=True)
class ReductionRun:
    params: ReductionParams
    counts: GadgetCounts
    cells: tuple[ProfileKey, ...]
    graph: BipartiteGraph
    oracle_counts: list[int] | None  # N_0..N_{M-1} counted on D_p (brute oracle)
    y_vector: Mapping[ProfileKey, int]
    p_result: int

    @cached_property
    def alpha(self) -> dict[ProfileKey, Fraction]:
        """Each cell's exact coefficient, computed on first access."""
        return {key: _alpha_cell(key, self.counts, self.params) for key in self.cells}

    @cached_property
    def n_vector(self) -> list[int]:
        """N_0..N_{M-1}: the brute oracle's counts, or else the analytic
        formula's, computed exactly on first access."""
        if self.oracle_counts is not None:
            return self.oracle_counts
        weights = x_table(self.graph, self.params.r, self.params.t).y
        nodes = [alpha_coefficient(key, self.counts, self.params) for key in weights]
        return _power_sums(list(weights.values()), nodes, self.params.M)


def reduction_params(g: BipartiteGraph, r: int, s: int, t: int) -> ReductionParams:
    if r < 1 or s < 1 or t < 1:
        raise QReliabError("r, s, t must all be positive")
    m = g.m
    n_left, n_right = len(g.left), len(g.right)
    m1 = 4 * m * s + 1
    m2 = m1 + 2 * m * (t + s) * m1 + 1
    m3 = m1 + m2 + n_left * (t + s) * m2 + 1
    big_m = (n_left + 1) * (n_right + 1) * (m + 1) ** 3
    return ReductionParams(r, s, t, m, n_left, n_right, m1, m2, m3, big_m)


def override_params(params: ReductionParams, M1: int, M2: int, M3: int) -> ReductionParams:
    """Replace the multiplicities with tiny test values.

    Breaks the invertibility guarantees of the full reduction; intended only
    for downsized verification of the per-pair count formula.
    """
    return replace(params, M1=M1, M2=M2, M3=M3)


def build_Dp(
    g: BipartiteGraph,
    r: int,
    s: int,
    t: int,
    p: int,
    params: ReductionParams | None = None,
) -> Instance:
    """The p-th oracle instance: graph vertices as R*/T* bundles, plus the
    gadget copies whose multiplicities encode p into the world counts.  The
    gadgets come from ``gadget_facts``, whose counts ``brute_counts`` checks.

    ``params`` from ``override_params`` give downsized test instances, which
    are not usable for the full reduction.
    """
    if p < 0:
        raise QReliabError("p must be non-negative")
    if params is None:
        params = reduction_params(g, r, s, t)
    facts: list[Fact] = []
    for u in g.left:
        facts += [Fact(f"R{k}", (u,)) for k in range(1, r + 1)]
    for w in g.right:
        facts += [Fact(f"T{k}", (w,)) for k in range(1, t + 1)]
    for ei, (u, w) in enumerate(ordered_edges(g)):
        for copy in range(1, p + 1):
            b = fresh_constant(f"e{ei}.b", [copy])
            c = fresh_constant(f"e{ei}.c", [copy])
            facts += gadget_facts("abcd_trimmed", r, s, t, (u, b, c, w))
        for copy in range(1, params.M1 * p + 1):
            b = fresh_constant(f"e{ei}.m", [copy])
            facts += gadget_facts("ab", r, s, t, (u, b))
    for ui, u in enumerate(g.left):
        for copy in range(1, params.M2 * p + 1):
            b = fresh_constant(f"u{ui}.b", [copy])
            facts += gadget_facts("ab", r, s, t, (u, b))
    for wi, w in enumerate(g.right):
        for copy in range(1, params.M3 * p + 1):
            a = fresh_constant(f"w{wi}.a", [copy])
            facts += gadget_facts("ab", r, s, t, (a, w))
    return Instance(facts)


def profile_cells(params: ReductionParams) -> tuple[ProfileKey, ...]:
    """All (i, j, c, d, d') index cells in lexicographic order."""
    m = params.m
    return tuple(
        (i, j, c, d, dp)
        for i in range(params.n_left + 1)
        for j in range(params.n_right + 1)
        for c in range(m + 1)
        for d in range(m + 1)
        for dp in range(m + 1)
    )


def _alpha_factors(
    key: ProfileKey, counts: GadgetCounts, params: ReductionParams
) -> tuple[tuple[int, int], ...]:
    """The (gadget count, exponent) pairs whose product is the per-pair
    world-count coefficient of a cell, extended to the full index grid.

    Cells with c + d + d' > m have no realizing pair (their count variable is
    identically zero) and get a negative excluded-edge exponent; the product
    is then a non-integer rational, which is fine since only its distinctness
    matters for the system matrix.
    """
    i, j, c, d, dp = key
    e = params.m - c - d - dp
    return (
        (counts.gamma, c),
        (counts.delta_r, d),
        (counts.delta_t, dp),
        (counts.delta_bot, e),
        (counts.lam_r, params.M1 * (c + d) + params.M2 * i),
        (counts.lam_t, params.M3 * j),
        (counts.lam_rbar, params.M1 * (dp + e) + params.M2 * (params.n_left - i)),
        (counts.lam_tbar, params.M3 * (params.n_right - j)),
    )


def _alpha_cell(
    key: ProfileKey, counts: GadgetCounts, params: ReductionParams, prime: int | None = None
) -> Fraction | int:
    """The coefficient of a cell: the exact ``Fraction``, or its residue
    modulo ``prime`` if one is given, a numerator times the inverse of its
    denominator.  Raises ValueError if a denominator is a multiple of
    ``prime``: a negative exponent on a gadget count that ``prime`` divides.
    """
    value = Fraction(1) if prime is None else 1
    for base, exponent in _alpha_factors(key, counts, params):
        if prime is None:
            value *= Fraction(base) ** exponent
        else:
            value = value * pow(base, exponent, prime) % prime
    return value


def alpha_coefficient(
    profile_key: ProfileKey,
    counts: GadgetCounts,
    params: ReductionParams,
) -> int:
    """The coefficient for a realizable profile (c + d + d' <= m)."""
    i, j, c, d, dp = profile_key
    if min(i, j, c, d, dp) < 0 or c + d + dp > params.m:
        raise InvalidProfileError(f"profile {profile_key} is not realizable")
    if i > params.n_left or j > params.n_right:
        raise InvalidProfileError(f"profile {profile_key} is out of range")
    # The exponent layering that makes coefficients distinct needs no check:
    # realizability gives d + d' + 2e <= 2m, so s * (d + d' + 2e) < 4ms + 1,
    # which is M1 unless override_params replaced it.
    value = _alpha_cell(profile_key, counts, params)
    if value.denominator != 1:
        raise NonIntegralResultError(f"coefficient of profile {profile_key} is {value}")
    return value.numerator


def np_analytic(
    g: BipartiteGraph,
    r: int,
    s: int,
    t: int,
    p: int,
    params: ReductionParams | None = None,
) -> int:
    """Violating-world count of D_p predicted by the per-pair formula."""
    if params is None:
        params = reduction_params(g, r, s, t)
    counts = closed_counts(r, s, t)
    total = 0
    for key, weight in x_table(g, params.r, params.t).y.items():
        total += weight * alpha_coefficient(key, counts, params) ** p
    return total


def _power_sums(terms: Sequence, nodes: Sequence, n: int, prime: int | None = None) -> list:
    """sum_k terms_k * nodes_k**p for p = 0..n-1, exactly or modulo ``prime``,
    each power by one multiply from the one before."""
    if prime is not None:
        terms = [term % prime for term in terms]
    sums = []
    for p in range(n):
        if p:
            pairs = zip(terms, nodes)
            if prime is None:
                terms = [term * x for term, x in pairs]
            else:
                terms = [term * x % prime for term, x in pairs]
        sums.append(sum(terms) if prime is None else sum(terms) % prime)
    return sums


def _recover_counts(
    residues: Callable[[int], tuple[list[int], list[int]]],
    node: Callable[[int], Fraction | int],
    head: Sequence[int],
    bound: int,
) -> list[int]:
    """The solution of sum_k y_k * x_k**p = b_p, p = 0..n-1, whose entries
    are integers in [0, bound).

    ``residues(q)`` gives the nodes x_k and the right-hand side b_p modulo
    the prime q, and raises ValueError if some node is undefined modulo q;
    ``node(k)`` is x_k exactly and ``head`` is b_0..b_3 exactly.

    Solved modulo the smallest listed prime above ``bound`` at which the
    nodes are defined and distinct, so every residue is the entry itself.
    Distinct residues imply distinct nodes, so the system is regular.
    Checked exactly on the first four equations, and on all of them modulo
    the next listed prime at which the nodes are defined.
    """
    solvers = _defined_residues(residues, [q for q in _MERSENNE_PRIMES[:-1] if q > bound])
    for prime, nodes, rhs in solvers:
        try:
            solution = solve_vandermonde(nodes, rhs, prime)
        except DuplicateNodeError:
            continue
        break
    else:
        raise QReliabError("no solver prime exceeds the solution bound with distinct nodes")
    if any(y >= bound for y in solution):
        raise QReliabError("recovered value exceeds its combinatorial bound")
    support = [k for k, y in enumerate(solution) if y]
    lhs = _power_sums([solution[k] for k in support], [node(k) for k in support], len(head))
    for p, (a, b) in enumerate(zip(lhs, head)):
        if a != b:
            raise QReliabError(f"modular solution fails exact equation p={p}")
    checks = _defined_residues(residues, [q for q in _MERSENNE_PRIMES if q > prime])
    for check, nodes, rhs in checks:
        break
    else:
        raise QReliabError("no check prime above the solver prime has every node defined")
    lhs = _power_sums(
        [solution[k] for k in support], [nodes[k] for k in support], len(rhs), check
    )
    for p, (a, b) in enumerate(zip(lhs, rhs)):
        if a != b:
            raise QReliabError(f"modular solution fails equation p={p} modulo {check}")
    return solution


def _defined_residues(
    residues: Callable[[int], tuple[list[int], list[int]]], primes: Sequence[int]
) -> Iterator[tuple[int, list[int], list[int]]]:
    """(q, nodes, rhs) for each of ``primes`` at which every node is defined."""
    for prime in primes:
        try:
            nodes, rhs = residues(prime)
        except ValueError:
            continue
        yield prime, nodes, rhs


def run_reduction(
    g: BipartiteGraph,
    r: int,
    s: int,
    t: int,
    oracle: str = "analytic",
    emit_dir: str | None = None,
) -> ReductionRun:
    """End-to-end reduction: oracle counts N_p, Vandermonde solve, recovery
    of the independent-set-pair count.

    The system sum_k y_k * alpha_k**p = N_p is built only modulo the solver
    and check primes: node residues by modular powers of the gadget counts,
    and with the analytic oracle N_p = sum_k Y_k * alpha_k**p, Y the weighted
    pair-profile histogram, by one modular multiply per (cell of Y, p).  Exact
    coefficients are computed only for the exact check of N_0..N_3.
    """
    if oracle not in ("analytic", "brute"):
        raise QReliabError(f"unknown oracle {oracle!r}")
    params = reduction_params(g, r, s, t)
    counts = closed_counts(r, s, t)
    cells = profile_cells(params)

    query = qrst_query(r, s, t)
    oracle_counts: list[int] = []
    if oracle == "brute" or emit_dir is not None:
        for p in range(params.M):
            dp_inst = build_Dp(g, r, s, t, p, params)
            if emit_dir is not None:
                os.makedirs(emit_dir, exist_ok=True)
                path = os.path.join(emit_dir, f"D_{p}.facts")
                with open(path, "w") as fh:
                    fh.write(dp_inst.serialize())
            if oracle == "brute":
                oracle_counts.append(count_violating(dp_inst, query))

    node = cache(lambda k: _alpha_cell(cells[k], counts, params))
    if oracle == "brute":
        head = oracle_counts[:4]
    else:
        weights = x_table(g, r, t).y
        index = {key: k for k, key in enumerate(cells)}
        support = [index[key] for key in weights]
        head = _power_sums(
            list(weights.values()), [node(k) for k in support], min(4, params.M)
        )

    def residues(prime: int) -> tuple[list[int], list[int]]:
        nodes = [_alpha_cell(key, counts, params, prime) for key in cells]
        if oracle == "brute":
            return nodes, [n_p % prime for n_p in oracle_counts]
        rhs = _power_sums(list(weights.values()), [nodes[k] for k in support], params.M, prime)
        return nodes, rhs

    pr = (1 << r) - 1
    pt = (1 << t) - 1
    # no entry of y exceeds the weight of all 2**(n_left + n_right) pairs
    bound = (2 * pr) ** params.n_left * (2 * pt) ** params.n_right + 1
    y_vector = dict(zip(cells, _recover_counts(residues, node, head, bound)))
    p_result = 0
    for (i, j, c, d, dp), y in y_vector.items():
        if c != 0:
            continue
        weight = pr ** (params.n_left - i) * pt ** (params.n_right - j)
        if y % weight != 0:
            raise QReliabError("non-integral division during count recovery")
        p_result += y // weight
    return ReductionRun(
        params, counts, cells, g, oracle_counts if oracle == "brute" else None,
        y_vector, p_result,
    )


def _qrst_role_relations(q: Query) -> tuple[str, str, list[int], list[int], list[int], list[int]]:
    """Witness pair and the atom indices per role (x-only, shared, y-only, rest)."""
    x, y, _r, _s, _t = noncomparable_pair_and_rst(q)
    ax = {i for i, a in enumerate(q.atoms) if x in a.variables}
    ay = {i for i, a in enumerate(q.atoms) if y in a.variables}
    x_only = sorted(ax - ay)
    shared = sorted(ax & ay)
    y_only = sorted(ay - ax)
    rest = sorted(set(range(len(q.atoms))) - ax - ay)
    return x, y, x_only, shared, y_only, rest


def lemma_binary_transform(q: Query, i_prime: Instance) -> Instance:
    """Map an instance of the R*/S*/T* family to an instance of q with the
    same number of satisfying subsets.

    The k-th relation of each family role corresponds to the k-th atom (in
    query order) of the matching role of q.  All variables other than the
    witness pair are filled with one shared generated constant, and every atom
    containing neither witness variable receives a single mandatory fact.
    """
    x, y, x_only, shared, y_only, rest = _qrst_role_relations(q)
    r, s, t = len(x_only), len(shared), len(y_only)
    expected = qrst_query(r, s, t).schema  # the witness makes r, s, t >= 1
    for fact in i_prime.facts:
        if fact.relation not in expected or len(fact.args) != expected[fact.relation]:
            raise SchemaMismatchError(
                f"fact {fact} does not fit the R*/S*/T* schema for (r,s,t)="
                f"({r},{s},{t})"
            )

    c0 = fresh_constant("c0", [])

    def instantiate(atom_idx: int, binding: dict[str, str]) -> Fact:
        atom = q.atoms[atom_idx]
        args = tuple(
            binding.get(term.name, c0) if term.is_variable else term.name
            for term in atom.args
        )
        return Fact(atom.relation, args)

    facts = []
    for k in range(1, r + 1):
        for fact in i_prime.facts_of(f"R{k}"):
            facts.append(instantiate(x_only[k - 1], {x: fact.args[0]}))
    for k in range(1, s + 1):
        for fact in i_prime.facts_of(f"S{k}"):
            facts.append(instantiate(shared[k - 1], {x: fact.args[0], y: fact.args[1]}))
    for k in range(1, t + 1):
        for fact in i_prime.facts_of(f"T{k}"):
            facts.append(instantiate(y_only[k - 1], {y: fact.args[0]}))
    for atom_idx in rest:
        facts.append(instantiate(atom_idx, {}))
    return Instance(facts)


def merge_power2(q_rst: Query, i_prime: Instance) -> tuple[Instance, ProbAssignment]:
    """Merge each complete R*/S*/T* bundle into one fact with a power-of-two
    probability, after discarding facts from incomplete bundles (which can
    never join a query match)."""
    _x, _y, x_only, shared, y_only, _rest = _qrst_role_relations(q_rst)
    r, s, t = len(x_only), len(shared), len(y_only)
    if _rest or any(len(q_rst.atoms[i].args) != 1 for i in x_only + y_only):
        raise SchemaMismatchError("query is not of the R*/S*/T* family shape")

    r_names = [q_rst.atoms[i].relation for i in x_only]
    s_names = [q_rst.atoms[i].relation for i in shared]
    t_names = [q_rst.atoms[i].relation for i in y_only]

    merged: list[Fact] = []
    elems = {f.args[0] for name in r_names for f in i_prime.facts_of(name)}
    for a in elems:
        if all(Fact(name, (a,)) in i_prime for name in r_names):
            merged.append(Fact("R", (a,)))
    pairs = {f.args for name in s_names for f in i_prime.facts_of(name)}
    for ab in pairs:
        if all(Fact(name, ab) in i_prime for name in s_names):
            merged.append(Fact("S", ab))
    elems = {f.args[0] for name in t_names for f in i_prime.facts_of(name)}
    for b in elems:
        if all(Fact(name, (b,)) in i_prime for name in t_names):
            merged.append(Fact("T", (b,)))

    phi = ProbAssignment.for_relations(
        {"R": Fraction(1, 1 << r), "S": Fraction(1, 1 << s), "T": Fraction(1, 1 << t)}
    )
    return Instance(merged), phi
