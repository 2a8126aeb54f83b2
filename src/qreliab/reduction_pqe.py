"""The probability-based reduction: from bipartite independent-set-pair
counting to exact probability evaluation of R(x),S(x,y),T(y) with certain
S-facts and per-relation probabilities (r, 1, t).

The oracle instance I_{c,d} pads each left vertex with c fresh pendant
neighbors and each right vertex with d.  With r = p_r/q_r and
t = p_t/q_t, every fact weighs the integer pair (w_in, w_out) =
(num, den - num) of ``evaluate.fact_weights``, so the violating weight of
I_{c,d}, the weight of its worlds with no match, is an integer,
N(c, d) = sum_{i,j} Y_ij * row_i**c * column_j**d, with

    row_i = (q_t - p_t)**i * q_t**(n_left - i),
    column_j = (q_r - p_r)**j * q_r**(n_right - j),
    Y_ij = p_r**i (q_r - p_r)**(n_left - i) * p_t**j (q_t - p_t)**(n_right - j) * X_ij,

X_ij the independent pairs (R', T') with |R'| = i, |T'| = j: each pendant
of a vertex in the pair is absent, and each pair weighs Y_ij / X_ij.
Rows, columns and both sides of that weight are
``bipartite.side_weights``.  That is the uniform-reliability reduction's
shape, a Kronecker product of two dual Vandermonde systems over integer
nodes whose unknowns are weighted pair counts, and it is solved the same
way, by ``vandermonde.recover_counts``: in residues modulo the smallest
listed prime above every bound C(n_left, i) * C(n_right, j) * weight + 1
on Y_ij, checked exactly on the cells c, d < 2 and modulo a second prime
on every cell.  X_ij is Y_ij over the pair's weight, an exact division.
The brute oracle enumerates the matches of the largest padded instance
once, counts that lineage in one counter pass, evaluates the pass's trace
under each cell's padding (``_brute_counts``) and hands over each N(c, d)
as the right-hand side.  The formula oracle
gets X from the fold ``bipartite.independent_pairs`` and hands over Y as
the expected solution: the right-hand side is its forward map, computed at
the solver prime only, and a correct check reads no node and computes
nothing at the second prime.  pi(c, d) is N(c, d) over the weight of all
worlds of I_{c,d}.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb
from typing import Mapping

from .bipartite import BipartiteGraph, independent_pairs, pair_count, side_weights
from .errors import ProbabilityError, QReliabError
from .evaluate import fact_weights, lineage, lineage_counts_without, pqe_brute
from .gadgets import q1_query
from .instances import Fact, Instance, ProbAssignment, fresh_constant
from .vandermonde import kron_power_sums, recover_counts


@dataclass(frozen=True)
class PqeReductionRun:
    r: Fraction
    t: Fraction
    graph: BipartiteGraph
    factors: list[list[int]]  # the system's rows and columns, from ``_system``
    pair_weights: list[list[int]]  # a pair's weight by i and by j, from ``_system``
    oracle_counts: list[int] | None  # N(c, d) per cell, counted by the brute oracle
    x: Mapping[tuple[int, int], int]
    p_result: int

    @cached_property
    def pi(self) -> Mapping[tuple[int, int], Fraction]:
        """pi(c, d) for every padding, N(c, d) over the weight of all worlds
        of I_{c,d}: N is the brute oracle's, or else the forward map of the
        weighted x, computed exactly on first access."""
        n_left, n_right = len(self.graph.left), len(self.graph.right)
        counts = self.oracle_counts
        if counts is None:  # x is in row-major order of (i, j), and the system is square
            left, right = self.pair_weights
            y = [left[i] * right[j] * x for (i, j), x in self.x.items()]
            counts = kron_power_sums(y, self.factors, list(map(len, self.factors)))
        q_r, q_t = self.r.denominator, self.t.denominator
        return {
            (c, d): Fraction(n, q_r ** (n_left + d * n_right) * q_t ** (n_right + c * n_left))
            for (c, d), n in zip(self.x, counts)
        }


def build_Icd(
    g: BipartiteGraph, c: int, d: int, r: Fraction, t: Fraction
) -> tuple[Instance, ProbAssignment]:
    """Graph encoding with c fresh right neighbors per left vertex and d
    fresh left neighbors per right vertex; S-facts are certain."""
    if c < 0 or d < 0:
        raise QReliabError("c and d must be non-negative")
    facts = [Fact("R", (u,)) for u in g.left]
    facts += [Fact("T", (w,)) for w in g.right]
    facts += [Fact("S", (u, w)) for u, w in g.edges]
    for k in range(1, max(c, d) + 1):
        left, right = _pendants(g, k)
        if k <= c:
            facts += left
        if k <= d:
            facts += right
    phi = ProbAssignment.for_relations(
        {"R": Fraction(r), "S": Fraction(1), "T": Fraction(t)}
    )
    return Instance(facts), phi


def _pendants(g: BipartiteGraph, k: int) -> tuple[list[Fact], list[Fact]]:
    """The k-th pendants: T(w') and S(u, w') for a fresh neighbor w' of
    each left vertex u, and R(u') and S(u', w) for a fresh neighbor u' of
    each right vertex w."""
    left, right = [], []
    for u in g.left:
        fresh = fresh_constant(f"w.{u}", [k])
        left += [Fact("T", (fresh,)), Fact("S", (u, fresh))]
    for w in g.right:
        fresh = fresh_constant(f"u.{w}", [k])
        right += [Fact("R", (fresh,)), Fact("S", (fresh, w))]
    return left, right


def _brute_counts(
    g: BipartiteGraph, r: Fraction, t: Fraction, cells: list[tuple[int, int]]
) -> list[int]:
    """N(c, d) on the cells, in order, from the one lineage of the largest
    padded instance.  ``build_Icd`` numbers each vertex's pendants from 1,
    so the instance padded by (c, d) is the largest one without the
    pendants numbered above c or d.  A pendant goes whole: every support
    that holds its certain S-fact holds its T- or R-fact too.  So
    ``lineage_counts_without`` counts the largest cell's conditioned
    lineage in one pass, with one cap check, and evaluates that pass's
    trace for every other cell, its removed pendants weighing (0, 1).
    That lineage holds every fact of the instance, so its miss is the
    instance's violating weight."""
    n_left, n_right = len(g.left), len(g.right)
    instance, phi = build_Icd(g, n_left, n_right, r, t)
    pendants = [_pendants(g, k) for k in range(1, max(n_left, n_right) + 1)]
    removals = []
    for c, d in cells:
        gone = [f for left, _ in pendants[c:n_left] for f in left]
        removals.append(gone + [f for _, right in pendants[d:n_right] for f in right])
    lin = lineage(q1_query(), instance)
    counts = lineage_counts_without(lin, fact_weights(instance, phi), removals)
    return [miss for miss, _total in counts]


def pi_value(
    g: BipartiteGraph,
    c: int,
    d: int,
    r: Fraction,
    t: Fraction,
    oracle: str = "brute",
) -> Fraction:
    """Probability that a sampled world of the padded encoding has no match.

    The per-cell reference: the brute oracle builds the padded instance
    and counts it alone, the formula oracle evaluates the closed form
    (1-r)**n_left (1-t)**n_right sum_{i,j} X_ij (a (1-t)**c)**i (b (1-r)**d)**j,
    with a = r/(1-r) and b = t/(1-t)."""
    r, t = Fraction(r), Fraction(t)
    if oracle == "brute":
        instance, phi = build_Icd(g, c, d, r, t)
        return 1 - pqe_brute(q1_query(), instance, phi)
    if oracle == "formula":
        if c < 0 or d < 0:
            raise QReliabError("c and d must be non-negative")
        _system(0, 0, r, t)  # checks r and t
        alpha, beta = r / (1 - r) * (1 - t) ** c, t / (1 - t) * (1 - r) ** d
        total = sum(
            count * alpha**i * beta**j for (i, j), count in independent_pairs(g).items()
        )
        return (1 - r) ** len(g.left) * (1 - t) ** len(g.right) * total
    raise QReliabError(f"unknown oracle {oracle!r}")


def _system(
    n_left: int, n_right: int, r: Fraction, t: Fraction
) -> tuple[list[list[int]], list[list[int]]]:
    """The system's two factors, rows and columns, and the weights of a
    pair's i left and j right vertices, by i and by j.  Raises
    ProbabilityError unless r and t lie strictly between 0 and 1."""
    for name, value in (("r", r), ("t", t)):
        if not 0 < value < 1:
            raise ProbabilityError(f"{name} must lie strictly between 0 and 1, got {value}")
    p_r, q_r, p_t, q_t = r.numerator, r.denominator, t.numerator, t.denominator
    factors = [side_weights(q_t - p_t, q_t, n_left), side_weights(q_r - p_r, q_r, n_right)]
    weights = [side_weights(p_r, q_r - p_r, n_left), side_weights(p_t, q_t - p_t, n_right)]
    return factors, weights


def run_reduction_pqe(
    g: BipartiteGraph,
    r: Fraction,
    t: Fraction,
    oracle: str = "brute",
) -> PqeReductionRun:
    """End-to-end: every violating weight N(c, d) (brute oracle) or the
    independent-pair counts X (formula oracle), the Kronecker-Vandermonde
    solve in residues for the weighted counts Y, and the recovered
    independent-set-pair count.  The brute oracle hands ``recover_counts``
    N as the right-hand side, the formula oracle Y, whose forward map the
    right-hand side is."""
    r, t = Fraction(r), Fraction(t)
    n_left, n_right = len(g.left), len(g.right)
    factors, pair_weights = _system(n_left, n_right, r, t)
    left, right = pair_weights
    cells = [(i, j) for i in range(n_left + 1) for j in range(n_right + 1)]
    weights = [left[i] * right[j] for i, j in cells]

    oracle_counts = terms = None
    if oracle == "formula":  # one fold serves every cell; Y is the expected solution
        independent = independent_pairs(g)
        terms = [weight * independent.get(cell, 0) for cell, weight in zip(cells, weights)]
    elif oracle == "brute":
        oracle_counts = _brute_counts(g, r, t, cells)
    else:
        raise QReliabError(f"unknown oracle {oracle!r}")

    bounds = [comb(n_left, i) * comb(n_right, j) * w + 1 for (i, j), w in zip(cells, weights)]
    solution = recover_counts(factors, bounds, 2, oracle_counts, terms)  # exact on c, d < 2
    x = {cell: pair_count(y, weight) for cell, y, weight in zip(cells, solution, weights)}
    return PqeReductionRun(r, t, g, factors, pair_weights, oracle_counts, x, sum(x.values()))
