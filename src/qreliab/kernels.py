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

The branch variables and the component splits depend on the masks alone,
not on the weights, so a pass's trace (Huang & Darwiche, "DPLL with a
trace", JAIR 2007) computes its count under any weights of the same
variables, (1, 0) and (0, 1) included.  ``count_avoiding`` records nothing
unless a caller hands it a list; it then appends the trace there, each
node after its children.  The node kinds:

* decision on a variable: w_out times the branch without it, plus w_in
  times the branch with it (none when a mask is just that variable);
* product of independent parts;
* single mask: Π total − Π w_in over its variables, every world but those
  holding the whole mask (0 for a mask with no variables);
* free variables: Π total.

``evaluate_trace`` evaluates a trace under new weights in one pass over
its nodes, with no branching and no cap check.

``count_containing_any``, the unweighted complement, has no caller in the
package; it stays because the benchmark's trace mode wraps it by name.
"""

from __future__ import annotations

import math
from typing import Sequence

from .errors import CapExceededError

# Kept because result files of the benchmark record it; there is one kernel.
BACKEND = "python"

# The kinds of trace node, each a tuple led by its kind (see the module docstring).
DECISION, PRODUCT, MASK, FREE = "decision", "product", "mask", "free"


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


def _indices(mask: int) -> tuple[int, ...]:
    """The variables of a mask, as indices, lowest first."""
    found = []
    while mask:
        low = mask & -mask
        found.append(low.bit_length() - 1)
        mask ^= low
    return tuple(found)


def _record_decision(trace: list, index: dict, masks, bit: int, without, with_, rest: int) -> None:
    """Record the decision node of ``component(masks, rest | bit)``, after
    the nodes of its branches, ``avoid(without, rest)`` and ``avoid(with_,
    rest)``, and index it under ``masks``."""
    without = _record_product(trace, index, without, rest)
    if with_ is not None:
        with_ = _record_product(trace, index, with_, rest)
    index[masks] = len(trace)
    trace.append((DECISION, bit.bit_length() - 1, without, with_))


def _record_product(trace: list, index: dict, components, variables: int) -> int:
    """Record ``avoid(components, variables)`` once the components' own
    nodes are recorded: a product node, or its one child alone.  Return the
    index of that node."""
    children = []
    for comp_vars, comp in components:
        variables &= ~comp_vars
        if len(comp) == 1:
            children.append(len(trace))
            trace.append((MASK, _indices(comp_vars)))
        else:
            children.append(index[tuple(sorted(comp))])
    if variables:
        children.append(len(trace))
        trace.append((FREE, _indices(variables)))
    if len(children) == 1:
        return children[0]
    trace.append((PRODUCT, tuple(children)))
    return len(trace) - 1


def count_avoiding(
    masks, weights: Sequence[tuple[int, int]], cap: int | None = None, trace: list | None = None
) -> int:
    """Total weight of the worlds that contain no mask.

    Worlds range over the variables 0 .. len(weights) - 1, and every mask must
    lie within them.  ``weights[i]`` is the pair (w_in, w_out) of variable i:
    the factor of a world that contains it, and of one that omits it.  A
    world's weight is the product of its variables' factors.  A widest
    independent component of the minimised masks with more than ``cap``
    variables raises CapExceededError; a zero mask gives 0 at any cap.

    The pass records nothing unless ``trace`` is a list: then it appends
    its trace there, every node after its children, for ``evaluate_trace``.
    """
    w_in: dict[int, int] = {}
    w_out: dict[int, int] = {}
    total: dict[int, int] = {}
    bit = 1
    for a, b in weights:
        w_in[bit] = a
        w_out[bit] = b
        total[bit] = a + b
        bit <<= 1
    cache: dict[tuple[int, ...], int] = {}
    record = trace is not None
    index: dict[tuple[int, ...], int] = {}  # while recording: each cached component's node

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
        without = _components([m for m in masks if not m & bit])
        value = w_out[bit] * avoid(without, rest)
        with_ = None
        if bit not in masks:  # else a mask is just ``bit``, and no world avoids it
            with_ = _components(list({m & ~bit for m in masks}))
            value += w_in[bit] * avoid(with_, rest)
        cache[masks] = value
        if record:
            _record_decision(trace, index, masks, bit, without, with_, rest)
        return value

    masks = minimize_masks(masks)
    if masks == [0]:
        if record:
            trace.append((MASK, ()))  # a mask with no variables: every world holds it
        return 0
    components = _components(masks)
    if cap is not None:
        widest = max((v.bit_count() for v, _ in components), default=0)
        if widest > cap:
            raise CapExceededError(widest, cap)
    everything = (1 << len(weights)) - 1
    value = avoid(components, everything)
    if record:
        _record_product(trace, index, components, everything)
    return value


def evaluate_trace(trace: list[tuple], weights: Sequence[tuple[int, int]]) -> int:
    """``count_avoiding`` of the traced masks under ``weights``, in one pass
    over its nodes."""
    w_in = [a for a, _ in weights]
    total = [a + b for a, b in weights]
    values: list[int] = []
    append, value_of = values.append, values.__getitem__
    total_of, w_in_of = total.__getitem__, w_in.__getitem__
    for node in trace:
        kind = node[0]
        if kind is DECISION:
            _, var, without, with_ = node
            value = weights[var][1] * values[without]
            append(value if with_ is None else value + w_in[var] * values[with_])
        elif kind is PRODUCT:
            append(math.prod(map(value_of, node[1])))
        elif kind is MASK:
            variables = node[1]
            append(math.prod(map(total_of, variables)) - math.prod(map(w_in_of, variables)))
        else:
            append(math.prod(map(total_of, node[1])))
    return values[-1]


def count_containing_any(nbits: int, masks) -> int:
    """Number of x in [0, 2**nbits) such that x is a superset of some mask."""
    # A mask reaching past nbits is contained in no such x.
    masks = [m for m in masks if not m >> nbits]
    return (1 << nbits) - count_avoiding(masks, [(1, 1)] * nbits)


__all__ = [
    "BACKEND",
    "count_avoiding",
    "count_containing_any",
    "evaluate_trace",
    "minimize_masks",
]
