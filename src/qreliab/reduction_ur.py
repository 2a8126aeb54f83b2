"""The main counting reduction: from bipartite independent-set-pair counting
to uniform reliability of the R*/S*/T* query family.

Builds the oracle instances D_p, assembles the linear system whose matrix is
a Vandermonde in the per-pair coefficients, directly in residues modulo a
prime above the solution's combinatorial bound, solves it there, and
recovers the independent-set-pair count.  Also provides the
query-generalization transform (arbitrary non-hierarchical query <- R*/S*/T*
family) and the power-of-two probability merge.

The system has one unknown per realizable profile cell (i, j, c, d, d'),
c + d + d' <= m, so M' = (n_left+1)(n_right+1)(m+1)(m+2)(m+3)/6 equations
p = 0..M'-1.  The paper indexes it by the whole grid, (n_left+1)(n_right+1)
(m+1)^3 cells, but a cell with c + d + d' > m has no realizing pair and its
unknown is zero.  Only the number of oracle calls changes: the
multiplicities M1, M2, M3 and every D_p are the paper's.
"""

from __future__ import annotations

import math
import os
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property

from .bipartite import BipartiteGraph, ProfileKey, ordered_edges, x_table
from .cq import Query, Term, noncomparable_pair_and_rst
from .errors import InvalidProfileError, QReliabError, SchemaMismatchError
from .gadgets import GadgetCounts, closed_counts, count_violating, gadget_facts, qrst_query
from .instances import Fact, Instance, ProbAssignment, fresh_constant
from .vandermonde import Factor, power_sums, recover_counts


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
    def alpha(self) -> dict[ProfileKey, int]:
        """Each cell's exact coefficient, computed on first access."""
        return {key: alpha_coefficient(key, self.counts, self.params) for key in self.cells}

    @cached_property
    def n_vector(self) -> list[int]:
        """N_0..N_{M-1}: the brute oracle's counts, or else the analytic
        formula's, computed exactly on first access."""
        if self.oracle_counts is not None:
            return self.oracle_counts
        weights = weighted_profiles(self.graph, self.params.r, self.params.t)
        nodes = [alpha_coefficient(key, self.counts, self.params) for key in weights]
        return power_sums(list(weights.values()), nodes, self.params.M)


def reduction_params(g: BipartiteGraph, r: int, s: int, t: int) -> ReductionParams:
    if r < 1 or s < 1 or t < 1:
        raise QReliabError("r, s, t must all be positive")
    m = g.m
    n_left, n_right = len(g.left), len(g.right)
    m1 = 4 * m * s + 1
    m2 = m1 + 2 * m * (t + s) * m1 + 1
    m3 = m1 + m2 + n_left * (t + s) * m2 + 1
    big_m = (n_left + 1) * (n_right + 1) * (m + 1) * (m + 2) * (m + 3) // 6
    return ReductionParams(r, s, t, m, n_left, n_right, m1, m2, m3, big_m)


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

    ``params`` with the multiplicities M1, M2, M3 replaced by smaller values
    (``dataclasses.replace``) give downsized test instances; that breaks the
    invertibility of the full reduction, so they serve only to check the
    per-pair count formula.
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


def _pair_weight(r: int, t: int, outside_left: int, outside_right: int) -> int:
    """(2^r-1)^outside_left * (2^t-1)^outside_right: the choices of a
    non-full R- or T-bundle on each vertex outside a pair."""
    return ((1 << r) - 1) ** outside_left * ((1 << t) - 1) ** outside_right


def weighted_profiles(g: BipartiteGraph, r: int, t: int) -> dict[ProfileKey, int]:
    """The weighted histogram Y: each count of ``x_table`` with profile key
    (i, j, ...) times ``_pair_weight`` of the n_left - i and n_right - j
    vertices outside the pair."""
    n_left, n_right = len(g.left), len(g.right)
    return {
        key: _pair_weight(r, t, n_left - key[0], n_right - key[1]) * count
        for key, count in x_table(g).items()
    }


def profile_cells(params: ReductionParams) -> tuple[ProfileKey, ...]:
    """The realizable (i, j, c, d, d') cells, c + d + d' <= m, in
    lexicographic order: one per unknown of the system."""
    m = params.m
    return tuple(
        (i, j, c, d, dp)
        for i in range(params.n_left + 1)
        for j in range(params.n_right + 1)
        for c in range(m + 1)
        for d in range(m + 1 - c)
        for dp in range(m + 1 - c - d)
    )


def alpha_coefficient(
    profile_key: ProfileKey, counts: GadgetCounts, params: ReductionParams
) -> int:
    """The per-pair world-count coefficient of a realizable profile
    (c + d + d' <= m), a product of gadget counts raised to multiplicity
    exponents.  ``run_reduction``'s residues take the product of the same
    factors modulo a prime."""
    i, j, c, d, dp = profile_key
    if min(i, j, c, d, dp) < 0 or c + d + dp > params.m:
        raise InvalidProfileError(f"profile {profile_key} is not realizable")
    if i > params.n_left or j > params.n_right:
        raise InvalidProfileError(f"profile {profile_key} is out of range")
    return (
        _row_factor(i, counts, params, None)
        * _column_factor(j, counts, params, None)
        * _cell_factor((c, d, dp), counts, params, None)
    )


# alpha(i, j, c, d, d') = row(i) * column(j) * cell(c, d, d'), exactly or
# modulo a prime; the powers of lam_r and lam_rbar split into the M2 parts of
# the row and the M1 parts of the cell.
def _row_factor(i: int, counts: GadgetCounts, params: ReductionParams, prime: int | None) -> int:
    powers = [(counts.lam_r, params.M2 * i), (counts.lam_rbar, params.M2 * (params.n_left - i))]
    return _power_product(powers, prime)


def _column_factor(
    j: int, counts: GadgetCounts, params: ReductionParams, prime: int | None
) -> int:
    powers = [(counts.lam_t, params.M3 * j), (counts.lam_tbar, params.M3 * (params.n_right - j))]
    return _power_product(powers, prime)


def _cell_factor(
    cell: tuple[int, int, int], counts: GadgetCounts, params: ReductionParams, prime: int | None
) -> int:
    # The exponent layering that makes coefficients distinct needs no check:
    # realizability gives d + d' + 2e <= 2m, so s * (d + d' + 2e) < 4ms + 1,
    # which is M1 unless a downsized test replaced it.
    c, d, dp = cell
    e = params.m - c - d - dp
    powers = [
        (counts.gamma, c),
        (counts.delta_r, d),
        (counts.delta_t, dp),
        (counts.delta_bot, e),
        (counts.lam_r, params.M1 * (c + d)),
        (counts.lam_rbar, params.M1 * (dp + e)),
    ]
    return _power_product(powers, prime)


def _power_product(powers: list[tuple[int, int]], prime: int | None) -> int:
    """The product of base**exponent over ``powers``, exactly or modulo
    ``prime``."""
    value = math.prod(pow(base, exponent, prime) for base, exponent in powers)
    return value if prime is None else value % prime


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
    for key, weight in weighted_profiles(g, params.r, params.t).items():
        total += weight * alpha_coefficient(key, counts, params) ** p
    return total


class _Lazy(Sequence):
    """value(0), ..., value(n - 1), each computed when first read."""

    def __init__(self, value: Callable[[int], int], n: int):
        self._value, self._n = cache(value), n

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, k: int) -> int:
        return self._value(k)


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

    The system sum_k y_k * alpha_k**p = N_p is built only in residues:
    ``residues(q)`` gives the nodes modulo q and nothing else.  A node is
    the product of its row, column and cell factors, so a prime costs
    (n_left+1) + (n_right+1) + C(m+3, 3) modular powers of the gadget
    counts and one product per cell.  The brute oracle hands
    ``recover_counts`` its counts N_p as the right-hand side.  The analytic
    oracle hands it Y, the weighted pair-profile histogram, as the expected
    solution: N_p = sum_k Y_k * alpha_k**p is Y's forward map, computed at
    the solver prime alone, and a y equal to Y needs no residue at a
    second prime.  The exact check of N_0..N_3 (``lead`` 4) reads exact
    coefficients only where y differs from Y (from 0 with the brute
    oracle, whose counts are checked modulo a second prime as well).  The
    M' nodes, one per cell, are distinct integers, so the first M'
    equations form a regular system.
    """
    if oracle not in ("analytic", "brute"):
        raise QReliabError(f"unknown oracle {oracle!r}")
    params = reduction_params(g, r, s, t)
    counts = closed_counts(r, s, t)
    cells = profile_cells(params)

    query = qrst_query(r, s, t)
    oracle_counts: list[int] = []
    if emit_dir is not None:
        os.makedirs(emit_dir, exist_ok=True)
    if oracle == "brute" or emit_dir is not None:
        for p in range(params.M):
            dp_inst = build_Dp(g, r, s, t, p, params)
            if emit_dir is not None:
                path = os.path.join(emit_dir, f"D_{p}.facts")
                with open(path, "w") as fh:
                    fh.write(dp_inst.serialize())
            if oracle == "brute":
                oracle_counts.append(count_violating(dp_inst, query))

    rhs = terms = None
    if oracle == "brute":
        rhs = oracle_counts
    else:  # Y is the expected solution: the exact check reads y - Y
        weights = weighted_profiles(g, r, t)
        terms = [weights.get(key, 0) for key in cells]

    def residues(prime: int) -> list[Factor]:
        rows = [_row_factor(i, counts, params, prime) for i in range(params.n_left + 1)]
        columns = [_column_factor(j, counts, params, prime) for j in range(params.n_right + 1)]
        corner = [key[2:] for key in cells if key[:2] == (0, 0)]  # every (c, d, d')
        parts = {part: _cell_factor(part, counts, params, prime) for part in corner}
        return [([rows[key[0]] * columns[key[1]] * parts[key[2:]] % prime for key in cells], None)]

    # no entry of y exceeds the weight of all 2**(n_left + n_right) pairs
    heaviest = _pair_weight(r, t, params.n_left, params.n_right)
    bounds = [2 ** (params.n_left + params.n_right) * heaviest + 1] * params.M
    node = _Lazy(lambda k: alpha_coefficient(cells[k], counts, params), params.M)
    solution = recover_counts(residues, [(node, None)], bounds, 4, rhs, terms)  # exact on N_0..N_3
    y_vector = dict(zip(cells, solution))
    p_result = 0
    for (i, j, c, d, dp), y in y_vector.items():
        if c != 0:
            continue
        weight = _pair_weight(r, t, params.n_left - i, params.n_right - j)
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
    x, y, x_only, shared, y_only, rest = _qrst_role_relations(q_rst)
    r, s, t = len(x_only), len(shared), len(y_only)
    x, y = Term("variable", x), Term("variable", y)
    shapes = [(x,)] * r + [(x, y)] * s + [(y,)] * t  # R_k(x), S_k(x, y), T_k(y)
    if rest or [q_rst.atoms[i].args for i in x_only + shared + y_only] != shapes:
        raise SchemaMismatchError("query is not of the R*/S*/T* family shape")

    merged: list[Fact] = []
    for merged_name, atoms in (("R", x_only), ("S", shared), ("T", y_only)):
        names = [q_rst.atoms[i].relation for i in atoms]
        for args in {f.args for name in names for f in i_prime.facts_of(name)}:
            if all(Fact(name, args) in i_prime for name in names):
                merged.append(Fact(merged_name, args))

    phi = ProbAssignment.for_relations(
        {"R": Fraction(1, 1 << r), "S": Fraction(1, 1 << s), "T": Fraction(1, 1 << t)}
    )
    return Instance(merged), phi
