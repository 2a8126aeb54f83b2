"""The main counting reduction: from bipartite independent-set-pair counting
to uniform reliability of the R*/S*/T* query family, solved directly in
residues modulo a prime above the solution's combinatorial bound.  Also
provides the query-generalization transform (arbitrary non-hierarchical
query <- R*/S*/T* family) and the power-of-two probability merge.

The system has one unknown per realizable profile cell (i, j, c, d, d'),
c + d + d' <= m: M' = (n_left+1)(n_right+1)(m+1)(m+2)(m+3)/6 of them, where
the paper has (n_left+1)(n_right+1)(m+1)^3, since a cell with c + d + d' > m
has no realizing pair.  The paper's D_p ties every multiplicity to p; here
each vertex side has its own, and the run and ``--emit-instances`` use the
M' instances D_{p_left, p_right, p} of the grid p_left <= n_left,
p_right <= n_right, p < C(m+3, 3), in files D_{p_left}_{p_right}_{p}.facts.
The paper's D_p is the diagonal p_left = M2 * p, p_right = M3 * p.  The
system is then a Kronecker product of row, column and cell systems, and M2
and M3 drop out of the run.  Each instance has polynomially many facts, so
the reduction stays a polynomial Turing reduction.
"""

from __future__ import annotations

import itertools
import os
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .bipartite import (
    BipartiteGraph,
    ProfileKey,
    ordered_edges,
    pair_count,
    side_weights,
    x_table,
)
from .cq import Query, Term, noncomparable_pair_and_rst
from .errors import InvalidProfileError, QReliabError, SchemaMismatchError
from .gadgets import GadgetCounts, closed_counts, count_violating, gadget_facts, qrst_query
from .instances import Fact, Instance, ProbAssignment, fresh_constant
from .vandermonde import kron_power_sums, recover_counts


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
    oracle_counts: list[int] | None  # N on the grid, counted on each D (brute oracle)
    y_vector: Mapping[ProfileKey, int]
    p_result: int

    @cached_property
    def alpha(self) -> list[list[int]]:
        """The exact ``grid_factors``, computed on first access."""
        return grid_factors(self.counts, self.params)

    @cached_property
    def n_vector(self) -> list[int]:
        """N over the grid, in row-major order of (p_left, p_right, p): the
        brute oracle's counts, or else the analytic formula's, the forward
        map of the recovered y, computed exactly on first access."""
        if self.oracle_counts is not None:
            return self.oracle_counts
        y = [self.y_vector[key] for key in self.cells]
        return kron_power_sums(y, self.alpha, list(map(len, self.alpha)))


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
    p_left: int | None = None,
    p_right: int | None = None,
) -> Instance:
    """The oracle instance D_{p_left, p_right, p}: graph vertices as R*/T*
    bundles, p chains and M1 * p (a,b)-gadgets per edge, p_left per left
    vertex and p_right per right vertex, all from ``gadget_facts``.  The
    defaults M2 * p and M3 * p give the paper's D_p.

    ``params`` with the multiplicities M1, M2, M3 replaced by smaller values
    (``dataclasses.replace``) give downsized test instances; that breaks the
    invertibility of the paper's reduction, so they serve only to check the
    per-pair count formula.
    """
    if params is None:
        params = reduction_params(g, r, s, t)
    p_left = params.M2 * p if p_left is None else p_left
    p_right = params.M3 * p if p_right is None else p_right
    if min(p, p_left, p_right) < 0:
        raise QReliabError("multiplicities must be non-negative")
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
        for copy in range(1, p_left + 1):
            b = fresh_constant(f"u{ui}.b", [copy])
            facts += gadget_facts("ab", r, s, t, (u, b))
    for wi, w in enumerate(g.right):
        for copy in range(1, p_right + 1):
            a = fresh_constant(f"w{wi}.a", [copy])
            facts += gadget_facts("ab", r, s, t, (a, w))
    return Instance(facts)


def _pair_weights(r: int, t: int, n_left: int, n_right: int) -> tuple[list[int], list[int]]:
    """The weights of a pair's i left and j right vertices, by i and by j:
    (2^r-1)^(n_left-i) and (2^t-1)^(n_right-j), the choices of a non-full
    R- or T-bundle on each vertex outside the pair."""
    return side_weights(1, (1 << r) - 1, n_left), side_weights(1, (1 << t) - 1, n_right)


def weighted_profiles(g: BipartiteGraph, r: int, t: int) -> dict[ProfileKey, int]:
    """The weighted histogram Y: each count of ``x_table`` with profile key
    (i, j, ...) times the weight of its pair, ``_pair_weights``."""
    left, right = _pair_weights(r, t, len(g.left), len(g.right))
    return {key: left[key[0]] * right[key[1]] * count for key, count in x_table(g).items()}


def _cell_parts(m: int) -> list[tuple[int, int, int]]:
    """The (c, d, d') with c + d + d' <= m, in lexicographic order."""
    return [
        (c, d, dp) for c in range(m + 1) for d in range(m + 1 - c) for dp in range(m + 1 - c - d)
    ]


def profile_cells(params: ReductionParams) -> tuple[ProfileKey, ...]:
    """The realizable (i, j, c, d, d') cells, c + d + d' <= m, in
    lexicographic order: one per unknown of the system."""
    sides = itertools.product(range(params.n_left + 1), range(params.n_right + 1))
    return tuple((i, j, *part) for (i, j), part in itertools.product(sides, _cell_parts(params.m)))


def grid_factors(counts: GadgetCounts, params: ReductionParams) -> list[list[int]]:
    """The grid system's factors: rows lam_r**i * lam_rbar**(n_left - i),
    columns lam_t**j * lam_tbar**(n_right - j), cells ``_cell_factor``.  In
    the count of D_{p_left, p_right, p}, cell (i, j, c, d, d') weighs
    row**p_left * column**p_right * cell**p.  Rows differ since
    lam_r != lam_rbar, columns likewise, and cells by M1's exponent
    layering."""
    rows = side_weights(counts.lam_r, counts.lam_rbar, params.n_left)
    columns = side_weights(counts.lam_t, counts.lam_tbar, params.n_right)
    return [rows, columns, [_cell_factor(part, counts, params) for part in _cell_parts(params.m)]]


def alpha_coefficient(
    profile_key: ProfileKey, counts: GadgetCounts, params: ReductionParams
) -> int:
    """The per-pair world-count coefficient of a realizable profile
    (c + d + d' <= m) in the paper's D_p, where p_left = M2 * p and
    p_right = M3 * p: row(i)**M2 * column(j)**M3 * cell(c, d, d'), over
    the factors of ``grid_factors``."""
    i, j, c, d, dp = profile_key
    if min(i, j, c, d, dp) < 0 or c + d + dp > params.m:
        raise InvalidProfileError(f"profile {profile_key} is not realizable")
    if i > params.n_left or j > params.n_right:
        raise InvalidProfileError(f"profile {profile_key} is out of range")
    row = side_weights(counts.lam_r, counts.lam_rbar, params.n_left)[i]
    column = side_weights(counts.lam_t, counts.lam_tbar, params.n_right)[j]
    return row**params.M2 * column**params.M3 * _cell_factor((c, d, dp), counts, params)


def _cell_factor(cell: tuple[int, int, int], counts: GadgetCounts, params: ReductionParams) -> int:
    # The exponent layering that makes coefficients distinct needs no check:
    # realizability gives d + d' + 2e <= 2m, so s * (d + d' + 2e) < 4ms + 1,
    # which is M1 unless a downsized test replaced it.
    c, d, dp = cell
    e = params.m - c - d - dp
    return (
        counts.gamma**c
        * counts.delta_r**d
        * counts.delta_t**dp
        * counts.delta_bot**e
        * counts.lam_r ** (params.M1 * (c + d))
        * counts.lam_rbar ** (params.M1 * (dp + e))
    )


def np_analytic(
    g: BipartiteGraph,
    r: int,
    s: int,
    t: int,
    p: int,
    params: ReductionParams | None = None,
) -> int:
    """Violating-world count of the paper's D_p predicted by the per-pair
    formula."""
    if params is None:
        params = reduction_params(g, r, s, t)
    counts = closed_counts(r, s, t)
    total = 0
    for key, weight in weighted_profiles(g, params.r, params.t).items():
        total += weight * alpha_coefficient(key, counts, params) ** p
    return total


def run_reduction(
    g: BipartiteGraph,
    r: int,
    s: int,
    t: int,
    oracle: str = "analytic",
    emit_dir: str | None = None,
) -> ReductionRun:
    """End-to-end reduction: oracle counts N on the grid, the solve of the
    Kronecker product of the three dual systems of ``grid_factors``, and
    the recovery of the independent-set-pair count.

    The brute oracle hands ``recover_counts`` its counts as the right-hand
    side, in row-major order of (p_left, p_right, p).  The analytic oracle
    hands it Y, the weighted pair-profile histogram, as the expected
    solution: N is Y's forward map, computed at the solver prime alone, and
    a y equal to Y is checked no further.  Any other y is checked exactly
    on the equations whose every power is below 4, and modulo a second
    prime on all of them.
    """
    if oracle not in ("analytic", "brute"):
        raise QReliabError(f"unknown oracle {oracle!r}")
    params = reduction_params(g, r, s, t)
    counts = closed_counts(r, s, t)
    cells = profile_cells(params)
    exact = grid_factors(counts, params)
    shape = list(map(len, exact))

    query = qrst_query(r, s, t)
    oracle_counts: list[int] = []
    if emit_dir is not None:
        os.makedirs(emit_dir, exist_ok=True)
    if oracle == "brute" or emit_dir is not None:
        for p_left, p_right, p in itertools.product(*map(range, shape)):
            instance = build_Dp(g, r, s, t, p, params, p_left, p_right)
            if emit_dir is not None:
                path = os.path.join(emit_dir, f"D_{p_left}_{p_right}_{p}.facts")
                with open(path, "w") as fh:
                    fh.write(instance.serialize())
            if oracle == "brute":
                oracle_counts.append(count_violating(instance, query))

    rhs = terms = None
    if oracle == "brute":
        rhs = oracle_counts
    else:  # Y is the expected solution: the exact check reads y - Y
        weights = weighted_profiles(g, r, t)
        terms = [weights.get(key, 0) for key in cells]

    # no entry of y exceeds the weight of all 2**(n_left + n_right) pairs
    left, right = _pair_weights(r, t, params.n_left, params.n_right)
    bounds = [2 ** (params.n_left + params.n_right) * left[0] * right[0] + 1] * params.M
    solution = recover_counts(exact, bounds, 4, rhs, terms)  # exact on powers < 4
    y_vector = dict(zip(cells, solution))
    p_result = sum(
        pair_count(y, left[i] * right[j]) for (i, j, c, _d, _dp), y in y_vector.items() if c == 0
    )
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
