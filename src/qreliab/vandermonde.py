"""The dual Vandermonde system sum_k y_k x_k**p = b_p, p = 0..n-1, and the
recovery of its integer solutions.  ``kron_power_sums`` maps y to b for a
Kronecker product of such systems, exactly or modulo a prime;
``dual_solve(nodes, rows, prime)`` maps every right-hand side b of ``rows``
back to its y modulo a prime, in one call; and ``recover_counts`` finds the
integer solution of a Kronecker product of systems from the factors' exact
integer nodes and either b, exact, or the solution a caller expects; it
reduces both modulo each prime itself.  Every value here is an int: both
reductions write their systems over integer nodes.  ``mod_inverses``
inverts a list of residues by one modular inverse.

The solve is the transposed multipoint evaluation of Kaltofen & Lakshman
(ISSAC 1988) and Bostan, Lecerf & Schost (ISSAC 2003).  With
Q(z) = prod_k (z - x_k), the generating series sum_p b_p z**p equals
sum_k y_k / (1 - x_k z) modulo z**n, so N = B * rev(Q) mod z**n is
sum_k y_k prod_{j != k} (1 - x_j z), and its reversal N~ satisfies
N~(x_k) = y_k Q'(x_k).  Q comes from a subproduct tree over blocks of
``_BLOCK`` nodes, N~ and Q' are evaluated at every node by a remainder
tree (dividing by Newton inverses) down to the blocks and by dot products
with each block's table of node powers inside them; all but N~ is built
once per node set.  Polynomials are multiplied by Kronecker substitution,
one multiply of packed Python ints.

A Kronecker product of systems is solved and mapped one factor at a time,
in one batched call per factor on all the rows along it: each of
``dual_solve``'s products packs every row into one int, and the forward
map tables the factor's node powers once and takes each row's power sums
as dot products of its non-zero entries with their nodes' powers.  A factor
with no nodes is a valid system, of no unknowns.
"""

from __future__ import annotations

import itertools
import math
from operator import mul
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


def kron_power_sums(
    terms: Sequence[int],
    factors: Sequence[Sequence[int]],
    lengths: Sequence[int],
    prime: int | None = None,
) -> list[int]:
    """The forward map of a Kronecker product of dual systems, exactly or
    modulo ``prime``: b_p = sum_k terms_k * prod_a x_a[k_a]**p_a, with one
    index k_a < len(x_a) and one power p_a < lengths[a] per factor a.
    ``terms`` and b are flat, in row-major order of their indices; a
    ``terms`` of another length than prod_a len(x_a), or ``lengths`` of
    another length than ``factors``, raises QReliabError.

    One batched call per factor, over every row along it: the powers of the
    factor's nodes are tabled once, over the union of the rows' supports,
    and each row's power sums are dot products of its non-zero entries
    with their nodes' powers.  A factor's nodes are read only where some
    term with that index is non-zero.
    """
    shape = list(map(len, factors))
    if len(lengths) != len(shape) or len(terms) != math.prod(shape):
        raise QReliabError("terms, factors and lengths differ in shape")

    def along(axis: int, rows: list[list]) -> list[list]:
        n = lengths[axis]
        used = [any(column) for column in zip(*rows)]
        powers = iter(_power_table(list(itertools.compress(factors[axis], used)), n, prime))
        table = [next(powers) if u else None for u in used]
        sums = []
        for row in rows:
            # power p of each non-zero entry's node, one tuple per p
            columns = zip(*itertools.compress(table, row)) if any(row) else [()] * n
            nonzero = list(itertools.compress(row, row))
            if prime is None:
                sums.append([sum(map(mul, nonzero, column)) for column in columns])
            else:
                sums.append([sum(map(mul, nonzero, column)) % prime for column in columns])
        return sums

    return _along_axes(along, shape, lengths, terms)


def dual_solve(
    nodes: Sequence[int], rows: Sequence[Sequence[int]], prime: int
) -> list[list[int]]:
    """The solution y of sum_k y_k * nodes_k**p = rhs_p, p = 0..n-1, modulo
    ``prime``, for each right-hand side rhs of ``rows``, each of length n.
    The subproduct tree, the inverses its remainder tree divides by, each
    leaf block's table of node powers and 1 / Q'(x_k) are built once; the
    rows are solved together, each packed multiply taking all of them.
    Nodes must be pairwise distinct modulo ``prime``."""
    n = len(nodes)
    nodes = [x % prime for x in nodes]
    if len(set(nodes)) != n:
        raise DuplicateNodeError(f"nodes are not pairwise distinct modulo {prime}")
    if any(len(rhs) != n for rhs in rows):
        raise QReliabError("nodes and right-hand side differ in length")
    blocks = [nodes[k : k + _BLOCK] for k in range(0, n, _BLOCK)]
    tree = [[_from_roots(block, prime) for block in blocks] or [[1]]]  # Q = 1 if n = 0
    while len(tree[-1]) > 1:
        below = tree[-1]
        level = [
            _products([a], b, len(a) + len(b) - 1, prime)[0]
            for a, b in zip(below[::2], below[1::2])
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
    # per block, each node's powers 0..len(block)-1: at most _BLOCK * n ints
    tables = [_power_table(block, len(block), prime) for block in blocks]

    def evaluate(polys: list[list[int]]) -> list[list[int]]:
        """Each of ``polys`` at every node: a remainder tree over all of
        them, then dot products with each block's power table."""
        remainders = [polys]  # per tree node, each poly's remainder
        for level in divisors:
            remainders = [
                _remainders(remainders[k // 2], node, inverse, prime)
                for k, (node, inverse) in enumerate(level)
            ]
        values = [[] for _ in polys]
        for table, rems in zip(tables, remainders):
            for out, rem in zip(values, rems):
                out += [sum(map(mul, rem, powers)) % prime for powers in table]
        return values

    deriv = [p * q % prime for p, q in enumerate(master)][1:]  # Q'
    scale = mod_inverses(evaluate([deriv])[0], prime)
    rows = [[b % prime for b in rhs] for rhs in rows]
    numers = [numer[::-1] for numer in _products(rows, master[::-1], n, prime)]  # N~
    return [[a * b % prime for a, b in zip(values, scale)] for values in evaluate(numers)]


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
    flat, in row-major order of their indices, each of one entry per
    unknown, or QReliabError is raised.

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
    shape = [len(nodes) for nodes in factors]
    if not len(bounds) == len(terms if rhs is None else rhs) == math.prod(shape):
        raise QReliabError("bounds, right-hand side and factors differ in size")
    zeros = itertools.repeat(0)
    top = max(bounds, default=0)
    for prime in [q for q in _PRIMES[:-1] if q > top]:
        residues = [[x % prime for x in nodes] for nodes in factors]
        # colliding nodes skip a prime before any forward map or solve
        if all(len(set(nodes)) == len(nodes) for nodes in residues):
            break
    else:
        raise QReliabError("no solver prime exceeds the solution bound with distinct nodes")
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
    factors: one ``dual_solve`` per factor, on every row along it."""
    shape = list(map(len, factors))
    return _along_axes(
        lambda axis, rows: dual_solve(factors[axis], rows, prime), shape, shape, rhs
    )


def _along_axes(
    along: Callable[[int, list[list]], list[list]],
    shape: Sequence[int],
    lengths: Sequence[int],
    values: list,
) -> list:
    """``along(axis, rows)`` applied once per axis, last axis first, to all
    the rows of the flat row-major array ``values`` of ``shape`` along that
    axis; it returns one row of ``lengths[axis]`` values per row.  Each
    pass moves the axis it transformed to the front, so after the last
    pass the axes are back in order, of ``lengths``."""
    for axis in reversed(range(len(shape))):
        n = shape[axis]
        if n:
            rows = [values[s : s + n] for s in range(0, len(values), n)]
        else:  # one empty row per index of the other axes
            rows = [[]] * (math.prod(shape[:axis]) * math.prod(lengths[axis + 1 :]))
        rows = along(axis, rows)
        values = [v for column in zip(*rows) for v in column]
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
        error = _products([poly[:known]], inverse, known, prime)[0]
        error[0] -= 1
        correction = _products([inverse], error, known, prime)[0]
        inverse = [(a - b) % prime for a, b in zip(inverse + [0] * known, correction)]
    return inverse


def _power_table(nodes: Sequence, n: int, prime: int | None = None) -> list[tuple]:
    """The powers x**0, ..., x**(n-1) of each of ``nodes``, exactly or
    modulo ``prime``: each power of all nodes by one multiply per node from
    the one before, then one tuple per node."""
    rows = []
    powers = [1] * len(nodes)
    for p in range(n):
        if p:
            powers = list(map(mul, powers, nodes))
            if prime is not None:
                powers = [v % prime for v in powers]
        rows.append(powers)
    return list(zip(*rows)) or [()] * len(nodes)


def _remainders(
    polys: list[list[int]], divisor: list[int], inverse: list[int], prime: int
) -> list[list[int]]:
    """Each of ``polys``, all of one length, modulo the monic ``divisor``,
    given 1 / rev(divisor) to at least the quotients' length: each quotient
    is the head of rev(poly) * inverse."""
    degree = len(divisor) - 1
    length = len(polys[0]) - degree if polys else 0
    if length <= 0:
        return polys
    heads = [poly[: degree - 1 : -1] for poly in polys]
    quotients = [q[::-1] for q in _products(heads, inverse, length, prime)]
    lows = _products(quotients, divisor, degree, prime)
    return [[(a - b) % prime for a, b in zip(poly, low)] for poly, low in zip(polys, lows)]


def _products(rows: list[list[int]], poly: list[int], length: int, prime: int) -> list[list[int]]:
    """The first ``length`` coefficients of each of ``rows`` times ``poly``
    (coefficients low to high, reduced modulo ``prime``) modulo ``prime``,
    by Kronecker substitution: every coefficient fills one fixed-width slot
    of a packed int, wide enough that no slot of a product carries into
    the next, and the rows lie ``span`` slots apart, at least the size of
    one row's product and at least ``length``, so that no row's product
    reaches the next; one int multiply does every product."""
    rows = [row[:length] for row in rows]
    poly = poly[:length]
    size = max(map(len, rows), default=0)
    span = max(size + len(poly) - 1, length)
    width = (2 * prime.bit_length() + min(size, len(poly)).bit_length() + 7) // 8
    step = width * span
    padding = [0] * span
    packed, factor = [
        int.from_bytes(b"".join([c.to_bytes(width, "little") for c in coefficients]), "little")
        for coefficients in ([c for row in rows for c in row + padding[len(row) :]], poly)
    ]
    data = (packed * factor).to_bytes(step * len(rows), "little")
    return [
        [
            int.from_bytes(data[k : k + width], "little") % prime
            for k in range(r * step, r * step + width * length, width)
        ]
        for r in range(len(rows))
    ]
