"""The probability-based reduction: from bipartite independent-set-pair
counting to exact probability evaluation of R(x),S(x,y),T(y) with certain
S-facts and per-relation probabilities (r, 1, t).

Each oracle instance pads every graph vertex with fresh pendant neighbors;
the violation probabilities form a linear system whose matrix is the
Kronecker product of two Vandermonde matrices, solved here as two nested
one-dimensional solves.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .bipartite import BipartiteGraph, x_table
from .errors import ProbabilityError, QReliabError
from .evaluate import _brute_counts, fact_weights
from .gadgets import q1_query
from .instances import Fact, Instance, ProbAssignment, fresh_constant
from .vandermonde import interpolate


@dataclass(frozen=True)
class KronSystem:
    """The two node sequences whose outer powers generate the system: the
    cell (c, d, i, j) is alpha[c]**i * beta[d]**j."""

    alpha: tuple[Fraction, ...]  # indexed by c = 0..|R|
    beta: tuple[Fraction, ...]  # indexed by d = 0..|T|


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
    for (i, j, contained, _d, _dp), count in x_table(g, 1, 1).x.items():
        if contained == 0:
            counts[(i, j)] = counts.get((i, j), 0) + count
    return counts


def _scale(g: BipartiteGraph, r: Fraction, t: Fraction) -> Fraction:
    """(1 - r)**|L| * (1 - t)**|R|, the factor that every cell shares."""
    return (1 - r) ** len(g.left) * (1 - t) ** len(g.right)


def _pi_formula(
    independent: Mapping[tuple[int, int], int], alpha: Fraction, beta: Fraction, scale: Fraction
) -> Fraction:
    """The violation probability of the cell with Kronecker nodes alpha and
    beta, in closed form from the independent-pair counts."""
    total = Fraction(0)
    for (i, j), count in independent.items():
        total += count * alpha**i * beta**j
    return scale * total


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
        miss, total, _ = _brute_counts(q1_query(), instance, fact_weights(instance, phi), None)
        return Fraction(miss, total)
    if oracle == "formula":
        if c < 0 or d < 0:
            raise QReliabError("c and d must be non-negative")
        system = kron_system(c, d, r, t)
        independent = _independent_pairs(g)
        return _pi_formula(independent, system.alpha[c], system.beta[d], _scale(g, r, t))
    raise QReliabError(f"unknown oracle {oracle!r}")


def kron_system(n_left: int, n_right: int, r: Fraction, t: Fraction) -> KronSystem:
    """The (|R|+1)(|T|+1) square system in Kronecker form."""
    r, t = Fraction(r), Fraction(t)
    for name, value in (("r", r), ("t", t)):
        if not 0 < value < 1:
            raise ProbabilityError(f"{name} must lie strictly between 0 and 1, got {value}")
    alpha = tuple(r / (1 - r) * (1 - t) ** c for c in range(n_left + 1))
    beta = tuple(t / (1 - t) * (1 - r) ** d for d in range(n_right + 1))
    return KronSystem(alpha, beta)


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

    if oracle == "formula":  # one pair enumeration serves every cell
        independent = _independent_pairs(g)
    pi = {
        (c, d): _pi_formula(independent, system.alpha[c], system.beta[d], scale)
        if oracle == "formula"
        else pi_value(g, c, d, r, t, oracle=oracle)
        for c in range(n_left + 1)
        for d in range(n_right + 1)
    }

    # Kronecker factorization: first solve in beta along d for every fixed c,
    # then solve in alpha along c for every fixed j.
    inner: list[list[Fraction]] = []  # inner[c][j] = sum_i X_{i,j} alpha_c**i
    for c in range(n_left + 1):
        rhs = [pi[(c, d)] / scale for d in range(n_right + 1)]
        inner.append(interpolate(system.beta, rhs))
    by_j = [
        interpolate(system.alpha, [inner[c][j] for c in range(n_left + 1)])
        for j in range(n_right + 1)
    ]

    x: dict[tuple[int, int], int] = {}
    for i in range(n_left + 1):
        for j in range(n_right + 1):
            value = by_j[j][i]
            if value.denominator != 1 or value < 0:
                raise QReliabError(
                    f"recovered X[{i},{j}] = {value} is not a non-negative integer"
                )
            x[(i, j)] = value.numerator
    return PqeReductionRun(r, t, pi, x, sum(x.values()))
