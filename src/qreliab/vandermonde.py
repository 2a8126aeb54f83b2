"""Vandermonde systems, exactly or modulo a prime.

With P(x) = prod_k (x - x_k) and the synthetic quotients Q_k = P / (x - x_k),
Q_k vanishes at every node but x_k.  Hence y_k = sum_p Q_k[p] b_p / Q_k(x_k)
solves the dual system sum_k y_k x_k**p = b_p (``solve_vandermonde``), and
y = sum_p b_p Q_p / Q_p(x_p), the polynomial through the points (x_p, b_p),
solves the primal system sum_i y_i x_p**i = b_p (``interpolate``).  Both take
O(n^2) operations (Bjorck & Pereyra, Math. Comp. 24, 1970).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Sequence

from .errors import DuplicateNodeError, QReliabError


def _quotients(
    nodes: Sequence, rhs: Sequence, prime: int | None
) -> Iterator[tuple[list, object]]:
    """Per node x_k, one at a time: the coefficients of Q_k, low to high,
    and Q_k(x_k)."""
    n = len(nodes)
    if len(rhs) != n:
        raise QReliabError("nodes and right-hand side differ in length")
    if len(set(nodes)) != n:
        where = "" if prime is None else f" modulo {prime}"
        raise DuplicateNodeError(f"nodes are not pairwise distinct{where}")
    reduce = (lambda v: v) if prime is None else (lambda v: v % prime)
    master = [1]  # coefficients of P, low to high
    for x in nodes:
        master = [0] + master
        for p in range(len(master) - 1):
            master[p] = reduce(master[p] - x * master[p + 1])
    for x in nodes:
        quotient = [0] * n
        quotient[n - 1] = master[n]
        for p in range(n - 1, 0, -1):
            quotient[p - 1] = reduce(master[p] + x * quotient[p])
        value = 0
        for q in reversed(quotient):
            value = reduce(value * x + q)
        yield quotient, value


def solve_vandermonde(nodes: Sequence, rhs: Sequence, prime: int | None = None) -> list:
    """The solution y of sum_k y_k * nodes_k**p = rhs_p, p = 0..n-1: exact
    ``Fraction``s, or residues modulo ``prime`` if one is given.

    Nodes must be pairwise distinct (modulo ``prime``).
    """
    if prime is not None:
        nodes = [x % prime for x in nodes]
        rhs = [b % prime for b in rhs]
    solution = []
    for quotient, value in _quotients(nodes, rhs, prime):
        numer = sum(q * b for q, b in zip(quotient, rhs))
        if prime is None:
            solution.append(Fraction(numer, value))
        else:
            solution.append(numer % prime * pow(value, -1, prime) % prime)
    return solution


def interpolate(nodes: Sequence, values: Sequence) -> list[Fraction]:
    """The coefficients y, low to high, of the polynomial of degree below n
    through the points (nodes_p, values_p): sum_i y_i * nodes_p**i = values_p.
    """
    solution = [Fraction(0)] * len(nodes)
    for (quotient, value), b in zip(_quotients(nodes, values, None), values):
        weight = Fraction(b, value)
        for i, q in enumerate(quotient):
            solution[i] += weight * q
    return solution
