"""The dual Vandermonde system sum_k y_k x_k**p = b_p, p = 0..n-1, exactly or
modulo a prime: ``power_sums`` maps y to b and ``solve_vandermonde`` maps b
back to y.

The solve is the transposed multipoint evaluation of Kaltofen & Lakshman
(ISSAC 1988) and Bostan, Lecerf & Schost (ISSAC 2003).  With
Q(z) = prod_k (z - x_k), the generating series sum_p b_p z**p equals
sum_k y_k / (1 - x_k z) modulo z**n, so N = B * rev(Q) mod z**n is
sum_k y_k prod_{j != k} (1 - x_j z), and its reversal N~ satisfies
N~(x_k) = y_k Q'(x_k).  Q comes from a subproduct tree over blocks of
``_BLOCK`` nodes, N~ and Q' are evaluated at every node by one remainder
tree (dividing by Newton inversion) down to the blocks and by Horner's rule
inside them.  Modulo a prime, polynomials are multiplied by Kronecker
substitution, one multiply of packed Python ints; over the rationals by the
schoolbook product.  Besides the product, the two paths differ only in
reducing each value modulo the prime.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import DuplicateNodeError, QReliabError

# Nodes per leaf of the subproduct tree: the recursion's base case, where
# quadratic loops beat packing small polynomials.
_BLOCK = 32


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
    if len(set(nodes)) != n:
        where = "" if prime is None else f" modulo {prime}"
        raise DuplicateNodeError(f"nodes are not pairwise distinct{where}")
    if not n:
        return []
    reduce = (lambda v: v) if prime is None else (lambda v: v % prime)
    blocks = [nodes[k : k + _BLOCK] for k in range(0, n, _BLOCK)]
    tree = [[_from_roots(block, reduce) for block in blocks]]
    while len(tree[-1]) > 1:
        below = tree[-1]
        level = [
            _product(a, b, len(a) + len(b) - 1, prime) for a, b in zip(below[::2], below[1::2])
        ]
        tree.append(level + below[2 * len(level) :])  # an odd last node moves up as it is
    [master] = tree[-1]  # Q, monic of degree n, coefficients low to high
    numer = _product(rhs, master[::-1], n, prime)[::-1]  # N~
    deriv = [reduce(p * q) for p, q in enumerate(master)][1:]  # Q'
    remainders = [(numer, deriv)]  # both modulo each node of the current level
    for level in reversed(tree[:-1]):
        remainders = [
            below
            for k, pair in enumerate(remainders)
            for below in _split(pair, level[2 * k : 2 * k + 2], prime, reduce)
        ]
    solution = []
    for block, pair in zip(blocks, remainders):
        for numer_k, deriv_k in zip(*(_horner(poly, block, reduce) for poly in pair)):
            if prime is None:
                solution.append(Fraction(numer_k, deriv_k))
            else:
                solution.append(numer_k * pow(deriv_k, -1, prime) % prime)
    return solution


def _from_roots(roots: Sequence, reduce) -> list:
    """prod (z - x) over ``roots``, coefficients low to high, by one linear
    update per root."""
    poly = [1]
    for x in roots:
        poly = [0] + poly
        for p in range(len(poly) - 1):
            poly[p] = reduce(poly[p] - x * poly[p + 1])
    return poly


def _split(pair: tuple, children: list, prime: int | None, reduce) -> list:
    """The remainders of both polynomials of ``pair`` modulo each of the
    (one or two) ``children`` of their tree node.  Each child's inverse is
    computed once, to the precision its sibling's degree asks for."""
    if len(children) == 1:
        return [pair]
    out = []
    for child, sibling in (children, children[::-1]):
        inverse = _inverse(child[::-1], len(sibling) - 1, prime, reduce)
        out.append(tuple(_remainder(poly, child, inverse, prime, reduce) for poly in pair))
    return out


def _inverse(poly: list, precision: int, prime: int | None, reduce) -> list:
    """1 / poly modulo z**precision, for poly with constant term 1, by Newton
    iteration: each step doubles the number of correct coefficients."""
    inverse, known = [1], 1
    while known < precision:
        known = min(2 * known, precision)
        error = _product(poly[:known], inverse, known, prime)
        error[0] -= 1
        correction = _product(inverse, error, known, prime)
        inverse = [reduce(a - b) for a, b in zip(inverse + [0] * known, correction)]
    return inverse


def _remainder(poly: list, divisor: list, inverse: list, prime: int | None, reduce) -> list:
    """poly modulo the monic ``divisor``, given 1 / rev(divisor) to at least
    the quotient's length: the quotient is the head of rev(poly) * inverse."""
    degree = len(divisor) - 1
    length = len(poly) - degree
    if length <= 0:
        return poly
    quotient = _product(poly[: degree - 1 : -1], inverse, length, prime)[::-1]
    low = _product(quotient, divisor, degree, prime)
    return [reduce(a - b) for a, b in zip(poly[:degree], low)]


def _horner(poly: list, xs: Sequence, reduce) -> list:
    """poly at each of ``xs``, by Horner's rule run on all of them at once."""
    values = [0] * len(xs)
    for c in reversed(poly):
        values = [reduce(v * x + c) for v, x in zip(values, xs)]
    return values


def _product(a: list, b: list, length: int, prime: int | None) -> list:
    """The first ``length`` coefficients of the product of two polynomials
    (coefficients low to high, ``length`` at most the product's size): by
    the schoolbook rule over the rationals, or modulo ``prime`` by Kronecker
    substitution.  There each reduced coefficient fills one fixed-width slot
    of a packed int, wide enough that no slot of the product carries into
    the next, so one int multiply does the whole product."""
    if prime is None:
        out = [0] * length
        for i, u in enumerate(a[:length]):
            for j, v in enumerate(b[: length - i]):
                out[i + j] += u * v
        return out
    width = (2 * prime.bit_length() + min(len(a), len(b)).bit_length() + 7) // 8
    a_int, b_int = [
        int.from_bytes(b"".join([c.to_bytes(width, "little") for c in poly]), "little")
        for poly in (a[:length], b[:length])
    ]
    data = (a_int * b_int).to_bytes(width * (len(a) + len(b)), "little")
    return [
        int.from_bytes(data[k : k + width], "little") % prime
        for k in range(0, width * length, width)
    ]
