"""Exact weighted model counting for monotone DNF lineage.

A lineage is a list of masks over fact variables (bit i stands for fact i).
A world, a subset of the variables, satisfies the lineage when it contains
every variable of some mask.  ``count_avoiding`` sums the weights of the
worlds that satisfy no mask.  It drops superset masks, splits the rest into
independent components, branches on the most frequent variable and caches
each component's result for the length of one call: DPLL counting with
component caching (Sang, Beame & Kautz, SAT 2004).  It checks its width cap
on the components of its first split, before it branches.
``count_containing_any``, the unweighted complement, has no caller in the
package; it stays because the benchmark's trace mode wraps it by name.
"""

from __future__ import annotations

from typing import Sequence

from .errors import CapExceededError

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


def count_avoiding(masks, weights: Sequence[tuple[int, int]], cap: int | None = None) -> int:
    """Total weight of the worlds that contain no mask.

    Worlds range over the variables 0 .. len(weights) - 1, and every mask must
    lie within them.  ``weights[i]`` is the pair (w_in, w_out) of variable i:
    the factor of a world that contains it, and of one that omits it.  A
    world's weight is the product of its variables' factors.  A widest
    independent component of the minimised masks with more than ``cap``
    variables raises CapExceededError; a zero mask gives 0 at any cap.
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

    def avoid(masks: list[int], variables: int, cap: int | None = None) -> int:
        """Weight over ``variables``, a superset of the masks' variables."""
        if 0 in masks:
            return 0
        components = _components(minimize_masks(masks))
        if cap is not None:
            widest = max((v.bit_count() for v, _ in components), default=0)
            if widest > cap:
                raise CapExceededError(widest, cap)
        value = 1
        for comp_vars, comp in components:
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

    return avoid(list(masks), (1 << len(weights)) - 1, cap)


def count_containing_any(nbits: int, masks) -> int:
    """Number of x in [0, 2**nbits) such that x is a superset of some mask."""
    # A mask reaching past nbits is contained in no such x.
    masks = [m for m in masks if not m >> nbits]
    return (1 << nbits) - count_avoiding(masks, [(1, 1)] * nbits)


__all__ = [
    "BACKEND",
    "count_avoiding",
    "count_containing_any",
    "minimize_masks",
]
