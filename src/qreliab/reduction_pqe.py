"""The probability-based reduction: from bipartite independent-set-pair
counting to exact probability evaluation of R(x),S(x,y),T(y) with certain
S-facts and per-relation probabilities (r, 1, t).

Each oracle instance pads every graph vertex with fresh pendant neighbors.
With a = r/(1-r), b = t/(1-t) and the nodes x_i = (1-t)**i, y_j = (1-r)**j,
the violation probability of the instance padded by (c, d) is
scale * sum_{i,j} a**i * b**j * X_ij * x_i**c * y_j**d, X_ij the independent
pairs with |R'| = i, |T'| = j.  That is a Kronecker product of two dual
Vandermonde systems, with column weights a**i and b**j, and it is solved as
the uniform-reliability reduction's system is, by
``vandermonde.recover_counts``: in residues modulo the smallest listed
prime above every bound C(|R|, i) * C(|T|, j) + 1 on X_ij (2**30 - 35 for
any graph with up to 17 vertices a side), checked exactly on the cells
c, d < 2 and modulo a second prime on every cell.  This module reduces
the factors alone modulo a prime, a list at a time by
``vandermonde.mod_values``; each oracle hands ``recover_counts`` its b
once.  The brute oracle enumerates the matches of the largest padded
instance once, conditions that lineage on each cell's padding
(``_brute_pi``) and hands over the right-hand side pi / scale.  The formula
oracle gets X from the fold ``bipartite.independent_pairs`` and hands it
over as the expected solution: the right-hand side is its forward map,
computed at the solver prime only, and a correct check reads no node and
computes nothing at the second prime.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb
from typing import Mapping

from .bipartite import BipartiteGraph, independent_pairs
from .errors import ProbabilityError, QReliabError
from .evaluate import fact_weights, lineage, lineage_counts, pqe_brute
from .gadgets import q1_query
from .instances import Fact, Instance, ProbAssignment, fresh_constant
from .vandermonde import Factor, kron_power_sums, mod_values, recover_counts


@dataclass(frozen=True)
class KronSystem:
    """The system in dual form: the cell (c, d, i, j) is
    a**i * b**j * nodes_left[i]**c * nodes_right[j]**d."""

    nodes_left: tuple[Fraction, ...]  # (1 - t)**i, i = 0..|R|
    nodes_right: tuple[Fraction, ...]  # (1 - r)**j, j = 0..|T|
    a: Fraction  # r / (1 - r)
    b: Fraction  # t / (1 - t)

    def factors(self) -> list[Factor]:
        """Both factors, nodes with their column weights a**i and b**j."""
        return [
            (self.nodes_left, [self.a**i for i in range(len(self.nodes_left))]),
            (self.nodes_right, [self.b**j for j in range(len(self.nodes_right))]),
        ]


@dataclass(frozen=True)
class PqeReductionRun:
    r: Fraction
    t: Fraction
    graph: BipartiteGraph
    oracle_pi: Mapping[tuple[int, int], Fraction] | None  # pi(c, d) by the brute oracle
    x: Mapping[tuple[int, int], int]
    p_result: int

    @cached_property
    def pi(self) -> Mapping[tuple[int, int], Fraction]:
        """pi(c, d) for every padding: the brute oracle's values, or else
        the formula's, computed exactly from x on first access."""
        if self.oracle_pi is not None:
            return self.oracle_pi
        system = kron_system(len(self.graph.left), len(self.graph.right), self.r, self.t)
        shape = (len(system.nodes_left), len(system.nodes_right))
        # x is in row-major order of (i, j), and the system is square
        sums = kron_power_sums(list(self.x.values()), system.factors(), shape)
        scale = _scale(self.graph, self.r, self.t)
        return {cell: scale * value for cell, value in zip(self.x, sums)}


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
    for k in range(1, c + 1):
        facts += _pendants(g, k)[0]
    for k in range(1, d + 1):
        facts += _pendants(g, k)[1]
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


def _brute_pi(
    g: BipartiteGraph, r: Fraction, t: Fraction, cells: list[tuple[int, int]]
) -> dict[tuple[int, int], Fraction]:
    """pi(c, d) on the cells, in order, from the one lineage of the
    largest padded instance.  ``build_Icd`` numbers each vertex's pendants
    from 1, so the instance padded by (c, d) is the largest one without
    the pendants numbered above c or d; its lineage is the largest one with
    those pendants weighing (0, 1), impossible, and the width cap is
    checked on it."""
    n_left, n_right = len(g.left), len(g.right)
    instance, phi = build_Icd(g, n_left, n_right, r, t)
    lin = lineage(q1_query(), instance)
    weights = fact_weights(instance, phi)
    pendants = [_pendants(g, k) for k in range(1, max(n_left, n_right) + 1)]
    pi = {}
    for c, d in cells:
        impossible = [f for left, _ in pendants[c:n_left] for f in left]
        impossible += [f for _, right in pendants[d:n_right] for f in right]
        miss, total = lineage_counts(lin, weights | dict.fromkeys(impossible, (0, 1)))
        pi[(c, d)] = Fraction(miss, total)
    return pi


def _scale(g: BipartiteGraph, r: Fraction, t: Fraction) -> Fraction:
    """(1 - r)**|L| * (1 - t)**|R|, the factor that every cell shares."""
    return (1 - r) ** len(g.left) * (1 - t) ** len(g.right)


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
    and counts it alone, the formula oracle evaluates the closed form."""
    r, t = Fraction(r), Fraction(t)
    if oracle == "brute":
        instance, phi = build_Icd(g, c, d, r, t)
        return 1 - pqe_brute(q1_query(), instance, phi)
    if oracle == "formula":
        if c < 0 or d < 0:
            raise QReliabError("c and d must be non-negative")
        system = kron_system(0, 0, r, t)  # checks r and t
        alpha, beta = system.a * (1 - t) ** c, system.b * (1 - r) ** d
        total = sum(
            count * alpha**i * beta**j for (i, j), count in independent_pairs(g).items()
        )
        return _scale(g, r, t) * total
    raise QReliabError(f"unknown oracle {oracle!r}")


def kron_system(n_left: int, n_right: int, r: Fraction, t: Fraction) -> KronSystem:
    """The (|R|+1)(|T|+1) square system in dual Kronecker form."""
    r, t = Fraction(r), Fraction(t)
    for name, value in (("r", r), ("t", t)):
        if not 0 < value < 1:
            raise ProbabilityError(f"{name} must lie strictly between 0 and 1, got {value}")
    nodes_left = tuple((1 - t) ** i for i in range(n_left + 1))
    nodes_right = tuple((1 - r) ** j for j in range(n_right + 1))
    return KronSystem(nodes_left, nodes_right, r / (1 - r), t / (1 - t))


def run_reduction_pqe(
    g: BipartiteGraph,
    r: Fraction,
    t: Fraction,
    oracle: str = "brute",
) -> PqeReductionRun:
    """End-to-end: every violation probability (brute oracle) or the
    independent-pair counts X (formula oracle), the Kronecker-Vandermonde
    solve in residues, and the recovered independent-set-pair count.  The
    brute oracle hands ``recover_counts`` the right-hand side pi / scale,
    the formula oracle X, whose forward map the right-hand side is."""
    r, t = Fraction(r), Fraction(t)
    n_left, n_right = len(g.left), len(g.right)
    system = kron_system(n_left, n_right, r, t)
    exact = system.factors()
    shape = (n_left + 1, n_right + 1)
    cells = [divmod(k, shape[1]) for k in range(shape[0] * shape[1])]

    # rhs(c, d) = pi(c, d) / scale = sum_{i,j} a**i * b**j * X_ij * x_i**c * y_j**d
    oracle_pi = rhs = counts = None
    if oracle == "formula":  # one fold serves every cell; X is the expected solution
        independent = independent_pairs(g)
        counts = [independent.get(cell, 0) for cell in cells]
    elif oracle == "brute":
        oracle_pi = _brute_pi(g, r, t, cells)
        scale = _scale(g, r, t)
        rhs = [oracle_pi[cell] / scale for cell in cells]
    else:
        raise QReliabError(f"unknown oracle {oracle!r}")

    def residues(prime: int) -> list[Factor]:
        if any(v % prime == 0 for f in (r, t, 1 - r, 1 - t) for v in (f.numerator, f.denominator)):
            raise ValueError(f"{prime} divides r, t, 1 - r or 1 - t")
        return [(mod_values(xs, prime), mod_values(weights, prime)) for xs, weights in exact]

    bounds = [comb(n_left, i) * comb(n_right, j) + 1 for i, j in cells]
    solution = recover_counts(residues, exact, bounds, 2, rhs, counts)  # exact on c, d < 2
    return PqeReductionRun(r, t, g, oracle_pi, dict(zip(cells, solution)), sum(solution))
