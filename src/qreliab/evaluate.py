"""Exact counting and probability engines.

Three routes are provided: the brute route, exact model counting over the
match supports (the oracle used by the verification suites); a polynomial
safe-plan evaluator for hierarchical queries; and the certain-T rewrite that
makes the (r, s, 1) per-relation setting tractable.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction

from . import kernels
from .cq import Atom, Query, Term, classify_hierarchical, enumerate_matches, parse_query
from .errors import (
    ArityError,
    CapExceededError,
    InstanceFormatError,
    NonHierarchicalQueryError,
    NonIntegralResultError,
)
from .instances import Fact, Instance, ProbAssignment

DEFAULT_BRUTE_CAP = 30

_Q1_SCHEMA = {"R": 1, "S": 2, "T": 1}


def resolve_cap(cap: int | None, default: int = DEFAULT_BRUTE_CAP) -> int:
    """Explicit cap, else the QRELIAB_BRUTE_CAP environment override, else default."""
    if cap is not None:
        return cap
    env = os.environ.get("QRELIAB_BRUTE_CAP")
    return int(env) if env else default


def _support_masks(q: Query, instance: Instance) -> tuple[list[Fact], list[int]]:
    """Facts appearing in some match support, with each support as a bitmask."""
    supports = set(enumerate_matches(q, instance))
    support_facts = sorted(set().union(*supports)) if supports else []
    index = {f: i for i, f in enumerate(support_facts)}
    masks = []
    for sup in supports:
        mask = 0
        for f in sup:
            mask |= 1 << index[f]
        masks.append(mask)
    return support_facts, masks


def ur_brute(q: Query, instance: Instance, cap: int | None = None) -> int:
    """|Mod(Q, I)| by exact model counting over the support facts.

    Facts outside every match support contribute a free factor 2**k.
    """
    support_facts, masks = _support_masks(q, instance)
    limit = resolve_cap(cap)
    if len(support_facts) > limit:
        raise CapExceededError(len(support_facts), limit)
    count = kernels.count_containing_any(len(support_facts), masks)
    free = len(instance) - len(support_facts)
    return count << free


def pqe_brute(
    q: Query,
    instance: Instance,
    prob: ProbAssignment,
    cap: int | None = None,
) -> Fraction:
    """Exact query probability by weighted model counting over the uncertain
    support facts: fact f weighs (num, den - num) for probability num/den.

    Certain facts (probability 1) are fixed present; facts outside every match
    support contribute a factor of 1 either way.
    """
    support_facts, masks = _support_masks(q, instance)
    probs = {f: prob.prob_of(f) for f in instance.facts}

    enum_facts = [f for f in support_facts if probs[f] != 1]
    certain = {f for f in support_facts if probs[f] == 1}
    limit = resolve_cap(cap)
    if len(enum_facts) > limit:
        raise CapExceededError(len(enum_facts), limit)

    index = {f: i for i, f in enumerate(enum_facts)}
    reduced = []
    for mask in masks:
        red = 0
        for i, f in enumerate(support_facts):
            if mask >> i & 1 and f not in certain:
                red |= 1 << index[f]
        reduced.append(red)
    weights = [
        (probs[f].numerator, probs[f].denominator - probs[f].numerator)
        for f in enum_facts
    ]
    denominator = math.prod(probs[f].denominator for f in enum_facts)
    violated = kernels.count_avoiding(reduced, weights)
    return Fraction(denominator - violated, denominator)


def _substitute(atom: Atom, var: str, value: str) -> Atom:
    args = tuple(
        Term("constant", value) if t.is_variable and t.name == var else t
        for t in atom.args
    )
    return Atom(atom.relation, args)


def _components(atoms: list[Atom]) -> list[list[Atom]]:
    """Group atoms into connected components by shared variables."""
    parent = list(range(len(atoms)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    first_atom: dict[str, int] = {}
    for i, atom in enumerate(atoms):
        for v in atom.variables:
            if v in first_atom:
                parent[find(i)] = find(first_atom[v])
            else:
                first_atom[v] = i
    groups: dict[int, list[Atom]] = {}
    for i, atom in enumerate(atoms):
        groups.setdefault(find(i), []).append(atom)
    return [groups[k] for k in sorted(groups)]


def _safe_eval(atoms: list[Atom], instance: Instance, prob: ProbAssignment) -> Fraction:
    comps = _components(atoms)
    if len(comps) > 1:
        result = Fraction(1)
        for comp in comps:
            result *= _safe_eval(comp, instance, prob)
        return result

    comp = comps[0]
    comp_vars: dict[str, None] = {}
    for atom in comp:
        for v in atom.variables:
            comp_vars.setdefault(v, None)

    if not comp_vars:
        # Connected and variable-free: necessarily a single ground atom.
        (atom,) = comp
        fact = Fact(atom.relation, tuple(t.name for t in atom.args))
        return prob.prob_of(fact) if fact in instance else Fraction(0)

    root = next(
        (v for v in comp_vars if all(v in a.variables for a in comp)), None
    )
    if root is None:
        raise NonHierarchicalQueryError("no root variable; query is not hierarchical")

    domain: set[str] = set()
    for atom in comp:
        positions = [k for k, t in enumerate(atom.args) if t.is_variable and t.name == root]
        for fact in instance.facts_of(atom.relation):
            domain.update(fact.args[k] for k in positions)

    # Branches for distinct root values touch disjoint fact sets, hence are
    # independent events.
    result = Fraction(1)
    for value in sorted(domain):
        branch = [_substitute(a, root, value) for a in comp]
        result *= 1 - _safe_eval(branch, instance, prob)
    return 1 - result


def _check_arities(q: Query, instance: Instance) -> None:
    for relation, arity in q.schema.items():
        inst_arity = instance.arity_of(relation)
        if inst_arity is not None and inst_arity != arity:
            raise ArityError(
                f"relation {relation!r}: query arity {arity}, instance arity {inst_arity}"
            )


def pqe_safe(q: Query, instance: Instance, prob: ProbAssignment) -> Fraction:
    """Polynomial-time exact probability for hierarchical queries.

    Recursion: ground atom lookup, independent product over connected
    components, and independent projection on a root variable occurring in
    every atom of its component (which the hierarchy property guarantees).
    """
    if not classify_hierarchical(q).hierarchical:
        raise NonHierarchicalQueryError(f"query {q} is not hierarchical")
    _check_arities(q, instance)
    return _safe_eval(list(q.atoms), instance, prob)


def ur_safe(q: Query, instance: Instance) -> int:
    """|Mod(Q, I)| for hierarchical queries: 2**|I| times the uniform probability."""
    pr = pqe_safe(q, instance, ProbAssignment.uniform(Fraction(1, 2)))
    value = pr * (1 << len(instance))
    if value.denominator != 1:
        raise NonIntegralResultError(f"2**|I| * Pr(Q) = {value} is not an integer")
    return value.numerator


def rewrite_prob1(instance: Instance, r: Fraction, s: Fraction) -> Fraction:
    """Probability for the R(x),S(x,y),T(y) query with certain T-facts.

    Drops every S-fact whose right endpoint has no T-fact, then evaluates the
    hierarchical residual R(x),S(x,y) with per-relation probabilities (r, s).
    """
    for relation in ("R", "S", "T"):
        arity = instance.arity_of(relation)
        if arity is not None and arity != _Q1_SCHEMA[relation]:
            raise InstanceFormatError(f"relation {relation!r} has arity {arity}")
    for fact in instance.facts:
        if fact.relation not in _Q1_SCHEMA:
            raise InstanceFormatError(f"unexpected relation {fact.relation!r}")

    t_values = {f.args[0] for f in instance.facts_of("T")}
    kept = [f for f in instance.facts_of("R")]
    kept += [f for f in instance.facts_of("S") if f.args[1] in t_values]
    residual = parse_query("R(x), S(x,y)")
    probs = ProbAssignment.for_relations({"R": Fraction(r), "S": Fraction(s)})
    return pqe_safe(residual, Instance(kept), probs)
