"""Exact weighted model counting for monotone DNF lineage.

A lineage is a list of masks over fact variables (bit i stands for fact i).
A world, a subset of the variables, satisfies the lineage when it contains
every variable of some mask.  ``count_avoiding`` sums the weights of the
worlds that satisfy no mask.  It drops superset masks, splits the rest into
independent components, branches on the most frequent variable and caches
each component's result for the length of one call: DPLL counting with
component caching (Sang, Beame & Kautz, SAT 2004).
"""

from __future__ import annotations

from typing import Sequence

# Kept because result files of the benchmark record it; there is one kernel.
BACKEND = "python"


def minimize_masks(masks) -> list[int]:
    """Drop masks that are supersets of another mask (they count nothing new)."""
    unique = sorted(set(masks), key=lambda m: (m.bit_count(), m))
    kept: list[int] = []
    for m in unique:
        if not any(m & k == k for k in kept):
            kept.append(m)
    return kept


def _components(masks: list[int]) -> list[tuple[int, list[int]]]:
    """Group masks that share variables, transitively: (variables, masks) pairs."""
    groups: list[tuple[int, list[int]]] = []
    for m in masks:
        variables, members = m, [m]
        rest = []
        for group_vars, group in groups:
            if group_vars & variables:
                variables |= group_vars
                members += group
            else:
                rest.append((group_vars, group))
        rest.append((variables, members))
        groups = rest
    return groups


def lineage_width(masks) -> int:
    """Variables of the widest independent component of the minimised masks:
    the width the counter branches over."""
    return max(
        (variables.bit_count() for variables, _ in _components(minimize_masks(masks))),
        default=0,
    )


def count_avoiding(masks, weights: Sequence[tuple[int, int]]) -> int:
    """Total weight of the worlds that contain no mask.

    Worlds range over the variables 0 .. len(weights) - 1, and every mask must
    lie within them.  ``weights[i]`` is the pair (w_in, w_out) of variable i:
    the factor of a world that contains it, and of one that omits it.  A
    world's weight is the product of its variables' factors.
    """
    w_in: dict[int, int] = {}
    w_out: dict[int, int] = {}
    total: dict[int, int] = {}
    for i, (a, b) in enumerate(weights):
        w_in[1 << i], w_out[1 << i], total[1 << i] = a, b, a + b
    cache: dict[tuple[int, ...], int] = {}

    def product(table: dict[int, int], variables: int) -> int:
        value = 1
        while variables:
            low = variables & -variables
            value *= table[low]
            variables ^= low
        return value

    def avoid(masks: list[int], variables: int) -> int:
        """Weight over ``variables``, a superset of the masks' variables."""
        if 0 in masks:
            return 0
        value = 1
        for comp_vars, comp in _components(minimize_masks(masks)):
            value *= component(tuple(sorted(comp)), comp_vars)
            variables &= ~comp_vars
        return value * product(total, variables)

    def component(masks: tuple[int, ...], variables: int) -> int:
        """Weight of one connected set of minimal, nonzero masks."""
        if len(masks) == 1:
            return product(total, variables) - product(w_in, variables)
        value = cache.get(masks)
        if value is not None:
            return value
        counts: dict[int, int] = {}
        for m in masks:
            while m:
                low = m & -m
                counts[low] = counts.get(low, 0) + 1
                m ^= low
        bit = max(counts, key=counts.__getitem__)
        rest = variables & ~bit
        value = w_in[bit] * avoid([m & ~bit for m in masks], rest)
        value += w_out[bit] * avoid([m for m in masks if not m & bit], rest)
        cache[masks] = value
        return value

    return avoid(list(masks), (1 << len(weights)) - 1)


def count_containing_any(nbits: int, masks) -> int:
    """Number of x in [0, 2**nbits) such that x is a superset of some mask."""
    # A mask reaching past nbits is contained in no such x.
    masks = [m for m in masks if not m >> nbits]
    return (1 << nbits) - count_avoiding(masks, [(1, 1)] * nbits)


__all__ = [
    "BACKEND",
    "count_avoiding",
    "count_containing_any",
    "lineage_width",
    "minimize_masks",
]
