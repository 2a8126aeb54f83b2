"""The dual Vandermonde system sum_k y_k x_k**p = b_p, p = 0..n-1, exactly or
modulo a prime: ``power_sums`` maps y to b and ``solve_vandermonde`` maps b
back to y.

With P(x) = prod_k (x - x_k) and the synthetic quotients Q_k = P / (x - x_k),
Q_k vanishes at every node but x_k, hence y_k = sum_p Q_k[p] b_p / Q_k(x_k).
The solve takes O(n^2) operations (Bjorck & Pereyra, Math. Comp. 24, 1970).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import DuplicateNodeError, QReliabError


def power_sums(terms: Sequence, nodes: Sequence, n: int, prime: int | None = None) -> list:
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


def solve_vandermonde(nodes: Sequence, rhs: Sequence, prime: int | None = None) -> list:
    """The solution y of sum_k y_k * nodes_k**p = rhs_p, p = 0..n-1: exact
    ``Fraction``s, or residues modulo ``prime`` if one is given.

    Nodes must be pairwise distinct (modulo ``prime``).
    """
    n = len(nodes)
    if len(rhs) != n:
        raise QReliabError("nodes and right-hand side differ in length")
    if prime is not None:
        nodes = [x % prime for x in nodes]
        rhs = [b % prime for b in rhs]
    reduce = (lambda v: v) if prime is None else (lambda v: v % prime)
    if len(set(nodes)) != n:
        where = "" if prime is None else f" modulo {prime}"
        raise DuplicateNodeError(f"nodes are not pairwise distinct{where}")
    master = [1]  # coefficients of P, low to high
    for x in nodes:
        master = [0] + master
        for p in range(len(master) - 1):
            master[p] = reduce(master[p] - x * master[p + 1])
    solution = []
    for x in nodes:
        quotient = [0] * n  # coefficients of Q_k, low to high
        quotient[n - 1] = master[n]
        for p in range(n - 1, 0, -1):
            quotient[p - 1] = reduce(master[p] + x * quotient[p])
        value = 0  # Q_k(x_k)
        for q in reversed(quotient):
            value = reduce(value * x + q)
        numer = sum(q * b for q, b in zip(quotient, rhs))
        if prime is None:
            solution.append(Fraction(numer, value))
        else:
            solution.append(numer % prime * pow(value, -1, prime) % prime)
    return solution
