"""The dual Vandermonde system sum_k y_k x_k**p = b_p, p = 0..n-1, and the
recovery of its integer solutions: ``power_sums`` maps y to b, exactly or
modulo a prime, ``dual_solver`` maps b back to y modulo a prime, and
``recover_counts`` finds the integer solution of a Kronecker product of such
systems from the factors' exact integer nodes and either b, exact, or the
solution a caller expects; it reduces both modulo each prime itself.  Every
value here is an int: both reductions write their systems over integer
nodes.  ``mod_inverses`` inverts a list of residues by one modular inverse.

The solve is the transposed multipoint evaluation of Kaltofen & Lakshman
(ISSAC 1988) and Bostan, Lecerf & Schost (ISSAC 2003).  With
Q(z) = prod_k (z - x_k), the generating series sum_p b_p z**p equals
sum_k y_k / (1 - x_k z) modulo z**n, so N = B * rev(Q) mod z**n is
sum_k y_k prod_{j != k} (1 - x_j z), and its reversal N~ satisfies
N~(x_k) = y_k Q'(x_k).  Q comes from a subproduct tree over blocks of
``_BLOCK`` nodes, N~ and Q' are evaluated at every node by a remainder
tree (dividing by Newton inverses) down to the blocks and by Horner's rule
inside them; all but N~ is built once per node set.  Polynomials are
multiplied by Kronecker substitution, one multiply of packed Python ints.
"""

from __future__ import annotations

import itertools
from typing import Callable, Sequence

from .errors import DuplicateNodeError, QReliabError

# Nodes per leaf of the subproduct tree: the recursion's base case, where
# quadratic loops beat packing small polynomials.
_BLOCK = 32

# The solver and check primes, smallest first: 2**30 - 35, the largest
# prime below 2**30, whose residues are each one 30-bit CPython digit, so
# that a system with small bounds is solved on single-digit ints; then
# Mersenne primes.  A system is solved modulo one of them and checked
# modulo a later one, so the last one only ever checks.
_PRIMES = ((1 << 30) - 35,) + tuple(
    (1 << e) - 1
    for e in (61, 89, 107, 127, 521, 607, 1279, 2203, 2281, 3217, 4253, 4423, 9689)
)


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


def kron_power_sums(
    terms: Sequence[int],
    factors: Sequence[Sequence[int]],
    lengths: Sequence[int],
    prime: int | None = None,
) -> list[int]:
    """The forward map of a Kronecker product of dual systems, exactly or
    modulo ``prime``: b_p = sum_k terms_k * prod_a x_a[k_a]**p_a, with one
    index k_a < len(x_a) and one power p_a < lengths[a] per factor a.
    ``terms`` and b are flat, in row-major order of their indices.

    One ``power_sums`` per row along each factor, over the row's non-zero
    entries only: a factor's nodes are read only where some term with that
    index is non-zero.
    """

    def along(axis: int, row: list) -> list:
        support = [k for k, v in enumerate(row) if v]
        nodes = [factors[axis][k] for k in support]
        return power_sums([row[k] for k in support], nodes, lengths[axis], prime)

    return _along_axes(along, list(map(len, factors)), terms)


def dual_solver(nodes: Sequence[int], prime: int) -> Callable[[Sequence[int]], list[int]]:
    """The solve of sum_k y_k * nodes_k**p = rhs_p, p = 0..n-1, modulo
    ``prime``, as a function of rhs.  The subproduct tree, the inverses its
    remainder tree divides by and 1 / Q'(x_k) are built here, once, so each
    rhs pays for one product and one evaluation.  Nodes must be pairwise
    distinct modulo ``prime``."""
    n = len(nodes)
    nodes = [x % prime for x in nodes]
    if len(set(nodes)) != n:
        raise DuplicateNodeError(f"nodes are not pairwise distinct modulo {prime}")
    blocks = [nodes[k : k + _BLOCK] for k in range(0, n, _BLOCK)]
    tree = [[_from_roots(block, prime) for block in blocks] or [[1]]]  # Q = 1 if n = 0
    while len(tree[-1]) > 1:
        below = tree[-1]
        level = [
            _product(a, b, len(a) + len(b) - 1, prime) for a, b in zip(below[::2], below[1::2])
        ]
        tree.append(level + below[2 * len(level) :])  # an odd last node moves up as it is
    [master] = tree[-1]  # Q, monic of degree n, coefficients low to high
    # each node below the root, and 1 / rev(node) to the precision that its
    # parent's remainder asks for: its sibling's degree, 0 for an odd node
    divisors = [
        [
            (node, _inverse(node[::-1], len(above[k // 2]) - len(node), prime))
            for k, node in enumerate(level)
        ]
        for level, above in zip(tree, tree[1:])
    ][::-1]

    def evaluate(poly: list[int]) -> list[int]:
        """poly at every node: a remainder tree, then Horner's rule per block."""
        remainders = [poly]
        for level in divisors:
            remainders = [
                _remainder(remainders[k // 2], node, inverse, prime)
                for k, (node, inverse) in enumerate(level)
            ]
        return [v for block, rem in zip(blocks, remainders) for v in _horner(rem, block, prime)]

    deriv = [p * q % prime for p, q in enumerate(master)][1:]  # Q'
    scale = mod_inverses(evaluate(deriv), prime)

    def solve(rhs: Sequence[int]) -> list[int]:
        if len(rhs) != n:
            raise QReliabError("nodes and right-hand side differ in length")
        numer = _product([b % prime for b in rhs], master[::-1], n, prime)[::-1]  # N~
        return [a * b % prime for a, b in zip(evaluate(numer), scale)]

    return solve


def solve_vandermonde(nodes: Sequence[int], rhs: Sequence[int], prime: int) -> list[int]:
    """The solution y of sum_k y_k * nodes_k**p = rhs_p, p = 0..n-1, as
    residues modulo ``prime``: ``dual_solver`` applied to one right-hand
    side.  Nodes must be pairwise distinct modulo ``prime``."""
    return dual_solver(nodes, prime)(rhs)


def mod_inverses(values: Sequence[int], prime: int) -> list[int]:
    """The inverse of each of ``values`` modulo ``prime`` by one modular
    inverse in all (Montgomery, Math. Comp. 1987): the inverse of the
    product of them all, then a backward sweep over their prefix products.
    Raises ValueError if some value is 0 modulo ``prime``."""
    prefix = [1]  # prefix[k]: the product of values[:k]
    for value in values:
        prefix.append(prefix[-1] * value % prime)
    inverse = pow(prefix[-1], -1, prime)  # 1 / prefix[k + 1] at step k below
    out = [0] * len(values)
    for k in reversed(range(len(values))):
        out[k] = inverse * prefix[k] % prime
        inverse = inverse * values[k] % prime
    return out


def recover_counts(
    factors: Sequence[Sequence[int]],
    bounds: Sequence[int],
    lead: int,
    rhs: Sequence[int] | None = None,
    terms: Sequence[int] | None = None,
) -> list[int]:
    """The solution y of the Kronecker product of dual systems
    sum_k y_k * prod_a x_a[k_a]**p_a = b_p (see ``kron_power_sums``), whose
    entries y_k are integers in [0, bounds_k).  y, b and ``bounds`` are
    flat, in row-major order of their indices.

    ``factors`` are the exact integer node lists, which are reduced modulo
    each prime here and read exactly only where y differs from ``terms``.
    b is given once: as ``rhs``, ints, or as ``terms``, the solution a
    caller expects, whose forward map b is and is computed here, at the
    solver prime alone.

    Solved modulo the smallest listed prime above every bound at which each
    factor's nodes are distinct, so every residue is the entry itself: the
    word-size prime 2**30 - 35 for bounds below it, else a Mersenne prime.
    A prime whose nodes collide is skipped before the forward map of
    ``terms`` is computed there.  Distinct residues imply distinct nodes,
    so the system is regular.  Checked as the forward map of y less
    ``terms`` (0 if None), which reads the factors only where y differs
    from ``terms``: exactly on the equations whose every power is below
    ``lead``, and on every equation modulo the next listed prime, against
    b less the forward map of ``terms`` (0 given ``terms``).  A y equal to
    ``terms`` has nothing to sum, so it is returned as soon as it is within
    bounds.
    """
    if (rhs is None) == (terms is None):
        raise QReliabError("give exactly one of rhs and terms")
    zeros = itertools.repeat(0)
    top = max(bounds)
    for prime in [q for q in _PRIMES[:-1] if q > top]:
        residues = [[x % prime for x in nodes] for nodes in factors]
        # colliding nodes skip a prime before any forward map or solve
        if all(len(set(nodes)) == len(nodes) for nodes in residues):
            break
    else:
        raise QReliabError("no solver prime exceeds the solution bound with distinct nodes")
    shape = [len(nodes) for nodes in factors]
    if terms is None:
        b = [v % prime for v in rhs]
    else:
        b = kron_power_sums(terms, residues, shape, prime)
    solution = _kron_solve(residues, b, prime)
    if any(y >= bound for y, bound in zip(solution, bounds)):
        raise QReliabError("recovered value exceeds its combinatorial bound")
    if terms is not None and solution == list(terms):
        return solution  # both checks would sum the forward map of 0
    # b less the forward map of terms: on the equations checked exactly,
    # the leading block of rhs in row-major order, or 0 given terms
    lengths = [min(lead, n) for n in shape]
    indices = itertools.product(*map(range, shape))
    head = zeros if rhs is None else [v for v, k in zip(rhs, indices) if max(k) < lead]
    excess = solution if terms is None else [y - t for y, t in zip(solution, terms)]
    lhs = kron_power_sums(excess, factors, lengths)
    for p, (a, v) in enumerate(zip(lhs, head)):
        if a != v:
            raise QReliabError(f"modular solution fails exact equation p={p}")
    check = _PRIMES[_PRIMES.index(prime) + 1]
    residues = [[x % check for x in nodes] for nodes in factors]
    lhs = kron_power_sums(excess, residues, shape, check)
    for p, (a, v) in enumerate(zip(lhs, zeros if rhs is None else rhs)):
        if a != v % check:
            raise QReliabError(f"modular solution fails equation p={p} modulo {check}")
    return solution


def _kron_solve(factors: Sequence[Sequence[int]], rhs: list[int], prime: int) -> list[int]:
    """The inverse of ``kron_power_sums`` modulo ``prime``, for square
    factors: one ``dual_solver`` per factor, applied to every row along
    it."""
    solvers = [dual_solver(nodes, prime) for nodes in factors]
    return _along_axes(lambda axis, row: solvers[axis](row), list(map(len, factors)), rhs)


def _along_axes(along: Callable[[int, list], list], shape: Sequence[int], values: list) -> list:
    """``along(axis, row)`` applied to every row of the flat row-major array
    ``values`` of ``shape`` along each axis in turn, last axis first.  Each
    pass moves the axis it transformed to the front, so after the last pass
    the axes are back in order."""
    for axis in reversed(range(len(shape))):
        n = shape[axis]
        rows = [along(axis, values[s : s + n]) for s in range(0, len(values), n)]
        values = [row[k] for k in range(len(rows[0])) for row in rows]
    return values


def _from_roots(roots: Sequence[int], prime: int) -> list[int]:
    """prod (z - x) over ``roots`` modulo ``prime``, coefficients low to
    high, by one linear update per root."""
    poly = [1]
    for x in roots:
        poly = [0] + poly
        for p in range(len(poly) - 1):
            poly[p] = (poly[p] - x * poly[p + 1]) % prime
    return poly


def _inverse(poly: list[int], precision: int, prime: int) -> list[int]:
    """1 / poly modulo z**precision, for poly with constant term 1, by Newton
    iteration: each step doubles the number of correct coefficients."""
    inverse, known = [1], 1
    while known < precision:
        known = min(2 * known, precision)
        error = _product(poly[:known], inverse, known, prime)
        error[0] -= 1
        correction = _product(inverse, error, known, prime)
        inverse = [(a - b) % prime for a, b in zip(inverse + [0] * known, correction)]
    return inverse


def _remainder(poly: list[int], divisor: list[int], inverse: list[int], prime: int) -> list[int]:
    """poly modulo the monic ``divisor``, given 1 / rev(divisor) to at least
    the quotient's length: the quotient is the head of rev(poly) * inverse."""
    degree = len(divisor) - 1
    length = len(poly) - degree
    if length <= 0:
        return poly
    quotient = _product(poly[: degree - 1 : -1], inverse, length, prime)[::-1]
    low = _product(quotient, divisor, degree, prime)
    return [(a - b) % prime for a, b in zip(poly[:degree], low)]


def _horner(poly: list[int], xs: Sequence[int], prime: int) -> list[int]:
    """poly at each of ``xs``, by Horner's rule run on all of them at once."""
    values = [0] * len(xs)
    for c in reversed(poly):
        values = [(v * x + c) % prime for v, x in zip(values, xs)]
    return values


def _product(a: list[int], b: list[int], length: int, prime: int) -> list[int]:
    """The first ``length`` coefficients of the product of two polynomials
    (coefficients low to high, ``length`` at most the product's size)
    modulo ``prime``, by Kronecker substitution: each reduced coefficient
    fills one fixed-width slot of a packed int, wide enough that no slot of
    the product carries into the next, so one int multiply does the whole
    product."""
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
