"""Exact weighted model counting for monotone DNF lineage.

A lineage is a list of masks over fact variables (bit i stands for fact i).
A world, a subset of the variables, satisfies the lineage when it contains
every variable of some mask.  ``count_avoiding`` sums the weights of the
worlds that satisfy no mask: DPLL counting with component caching (Sang,
Beame & Kautz, SAT 2004).

* Superset masks are dropped once, at the top split.  ``minimize_masks``
  indexes each kept mask under its least frequent variable and tests a
  candidate only against the masks indexed under its own variables.  Below
  the top split nothing is minimised again: the branch without a variable
  keeps a subset of the masks, and a superset that the branch with it
  leaves behind changes no count.
* The masks split into independent components, each grown from the first
  mask left over; every component's result is cached for the length of one
  call.  The width cap is checked on the components of the top split,
  before any branching.
* A component branches on its most frequent variable, read off a
  bit-sliced count: the masks are added into bit-planes, ints over the
  variables, and the planes are read from the top down.

``count_containing_any``, the unweighted complement, has no caller in the
package; it stays because the benchmark's trace mode wraps it by name.
"""

from __future__ import annotations

from typing import Sequence

from .errors import CapExceededError

# Kept because result files of the benchmark record it; there is one kernel.
BACKEND = "python"


def _bit_planes(masks) -> list[int]:
    """Per-variable mask counts, bit-sliced: bit i of ``planes[j]`` is bit j
    of the number of masks that hold variable i."""
    planes: list[int] = []
    for carry in masks:
        j = 0
        while carry:
            if j == len(planes):
                planes.append(carry)
                break
            plane = planes[j]
            planes[j] = plane ^ carry
            carry &= plane
            j += 1
    return planes


def minimize_masks(masks) -> list[int]:
    """Drop masks that are supersets of another mask (they count nothing new).

    The kept masks come out ordered by size, then value.  Each is indexed
    under its least frequent variable, so a candidate is tested only against
    the kept masks indexed under one of its own variables: a variable that
    nearly every mask holds indexes almost none of them.
    """
    unique = sorted(set(masks), key=lambda m: (m.bit_count(), m))
    if unique and not unique[0]:
        return [0]
    planes = _bit_planes(unique)[::-1]
    index: dict[int, list[int]] = {}
    keys = 0  # the variables that index some kept mask
    kept: list[int] = []
    for m in unique:
        shared = m & keys
        while shared:
            low = shared & -shared
            if any(m & k == k for k in index[low]):
                break
            shared ^= low
        else:
            rarest = m
            for plane in planes:
                if rarest & ~plane:
                    rarest &= ~plane
            rarest &= -rarest
            kept.append(m)
            index.setdefault(rarest, []).append(m)
            keys |= rarest
    return kept


def _components(masks: list[int]) -> list[tuple[int, list[int]]]:
    """Group masks that share variables, transitively: (variables, masks)
    pairs, each component grown from the first mask left over."""
    groups: list[tuple[int, list[int]]] = []
    while masks:
        variables, members = masks[0], []
        grown = True
        while grown and masks:
            before, rest = variables, []
            for m in masks:
                if m & variables:
                    variables |= m
                    members.append(m)
                else:
                    rest.append(m)
            masks, grown = rest, variables != before
        groups.append((variables, members))
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

    def avoid(components: list[tuple[int, list[int]]], variables: int) -> int:
        """Weight over ``variables``, a superset of the components' variables."""
        value = 1
        for comp_vars, comp in components:
            variables &= ~comp_vars
            if len(comp) == 1:  # every world but those holding the whole mask
                every = holding = 1
                while comp_vars:
                    low = comp_vars & -comp_vars
                    every *= total[low]
                    holding *= w_in[low]
                    comp_vars ^= low
                value *= every - holding
            else:
                value *= component(tuple(sorted(comp)), comp_vars)
        while variables:  # the free variables
            low = variables & -variables
            value *= total[low]
            variables ^= low
        return value

    def component(masks: tuple[int, ...], variables: int) -> int:
        """Weight of two or more connected nonzero masks over ``variables``."""
        value = cache.get(masks)
        if value is not None:
            return value
        bit = variables
        for plane in reversed(_bit_planes(masks)):
            if bit & plane:
                bit &= plane
        bit &= -bit
        rest = variables & ~bit
        # Neither branch is minimised again (see the module docstring); the
        # set merges masks that differed only in ``bit``.
        value = w_out[bit] * avoid(_components([m for m in masks if not m & bit]), rest)
        if bit not in masks:  # else a mask is just ``bit``, and no world avoids it
            value += w_in[bit] * avoid(_components(list({m & ~bit for m in masks})), rest)
        cache[masks] = value
        return value

    masks = minimize_masks(masks)
    if masks == [0]:
        return 0
    components = _components(masks)
    if cap is not None:
        widest = max((v.bit_count() for v, _ in components), default=0)
        if widest > cap:
            raise CapExceededError(widest, cap)
    return avoid(components, (1 << len(weights)) - 1)


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
