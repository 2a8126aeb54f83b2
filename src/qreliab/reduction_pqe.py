"""The probability-based reduction: from bipartite independent-set-pair
counting to exact probability evaluation of R(x),S(x,y),T(y) with certain
S-facts and per-relation probabilities (r, 1, t).

Each oracle instance pads every graph vertex with fresh pendant neighbors.
With a = r/(1-r), b = t/(1-t) and the nodes x_i = (1-t)**i, y_j = (1-r)**j,
the violation probability of the instance padded by (c, d) is
scale * sum_{i,j} a**i * b**j * X_ij * x_i**c * y_j**d, X_ij the independent
pairs with |R'| = i, |T'| = j.  That is a Kronecker product of two dual
Vandermonde systems, the form the uniform-reliability reduction solves too,
and it is solved here as two nested one-dimensional dual solves.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .bipartite import BipartiteGraph, x_table
from .errors import ProbabilityError, QReliabError
from .evaluate import pqe_brute
from .gadgets import q1_query
from .instances import Fact, Instance, ProbAssignment, fresh_constant
from .vandermonde import power_sums, solve_vandermonde


@dataclass(frozen=True)
class KronSystem:
    """The system in dual form: the cell (c, d, i, j) is
    a**i * b**j * nodes_left[i]**c * nodes_right[j]**d."""

    nodes_left: tuple[Fraction, ...]  # (1 - t)**i, i = 0..|R|
    nodes_right: tuple[Fraction, ...]  # (1 - r)**j, j = 0..|T|
    a: Fraction  # r / (1 - r)
    b: Fraction  # t / (1 - t)


@dataclass(frozen=True)
class PqeReductionRun:
    r: Fraction
    t: Fraction
    pi: Mapping[tuple[int, int], Fraction]
    x: Mapping[tuple[int, int], int]
    p_result: int


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
    for u in g.left:
        for k in range(1, c + 1):
            fresh = fresh_constant(f"w.{u}", [k])
            facts += [Fact("T", (fresh,)), Fact("S", (u, fresh))]
    for w in g.right:
        for k in range(1, d + 1):
            fresh = fresh_constant(f"u.{w}", [k])
            facts += [Fact("R", (fresh,)), Fact("S", (fresh, w))]
    phi = ProbAssignment.for_relations(
        {"R": Fraction(r), "S": Fraction(1), "T": Fraction(t)}
    )
    return Instance(facts), phi


def _independent_pairs(g: BipartiteGraph) -> dict[tuple[int, int], int]:
    """Independent pairs (no edge contained) per (|R'|, |T'|)."""
    counts: dict[tuple[int, int], int] = {}
    for (i, j, contained, _d, _dp), count in x_table(g).items():
        if contained == 0:
            counts[(i, j)] = counts.get((i, j), 0) + count
    return counts


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
    """Probability that a sampled world of the padded encoding has no match."""
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
            count * alpha**i * beta**j for (i, j), count in _independent_pairs(g).items()
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
    """End-to-end: all violation probabilities, the nested Vandermonde solve,
    and the recovered independent-set-pair count."""
    r, t = Fraction(r), Fraction(t)
    n_left, n_right = len(g.left), len(g.right)
    system = kron_system(n_left, n_right, r, t)
    scale = _scale(g, r, t)

    lefts, rights = range(n_left + 1), range(n_right + 1)
    # rhs[c][d] = pi(c, d) / scale = sum_{i,j} Z_ij * x_i**c * y_j**d,
    # Z_ij = a**i * b**j * X_ij
    if oracle == "formula":  # one pair enumeration serves every cell
        independent = _independent_pairs(g)
        by_c = [  # by_c[j][c] = sum_i Z_ij * x_i**c
            power_sums(
                [independent.get((i, j), 0) * system.a**i * system.b**j for i in lefts],
                system.nodes_left,
                n_left + 1,
            )
            for j in rights
        ]
        rhs = [
            power_sums([by_c[j][c] for j in rights], system.nodes_right, n_right + 1)
            for c in lefts
        ]
        pi = {(c, d): scale * rhs[c][d] for c in lefts for d in rights}
    else:
        pi = {(c, d): pi_value(g, c, d, r, t, oracle=oracle) for c in lefts for d in rights}
        rhs = [[pi[(c, d)] / scale for d in rights] for c in lefts]

    # The same two sums undone: first solve in y along d for every fixed c,
    # then in x along c for every fixed j.
    inner = [solve_vandermonde(system.nodes_right, rhs[c]) for c in lefts]
    z = [solve_vandermonde(system.nodes_left, [inner[c][j] for c in lefts]) for j in rights]

    x: dict[tuple[int, int], int] = {}
    for i in lefts:
        for j in rights:
            value = z[j][i] / (system.a**i * system.b**j)
            if value.denominator != 1 or value < 0:
                raise QReliabError(
                    f"recovered X[{i},{j}] = {value} is not a non-negative integer"
                )
            x[(i, j)] = value.numerator
    return PqeReductionRun(r, t, pi, x, sum(x.values()))
