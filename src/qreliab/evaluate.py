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
from .cq import AtomPattern, Query, classify_hierarchical, enumerate_matches, parse_query
from .errors import (
    ArityError,
    CapExceededError,
    InstanceFormatError,
    NonHierarchicalQueryError,
    NonIntegralResultError,
    UsageError,
)
from .instances import Fact, Instance, ProbAssignment

DEFAULT_BRUTE_CAP = 30

_Q1_SCHEMA = {"R": 1, "S": 2, "T": 1}


def brute_cap_override() -> int | None:
    """The QRELIAB_BRUTE_CAP environment override, or None when it is unset
    or empty; anything but a non-negative integer is a UsageError."""
    env = os.environ.get("QRELIAB_BRUTE_CAP")
    if not env:
        return None
    try:
        value = int(env)
    except ValueError:
        value = -1
    if value < 0:
        raise UsageError(f"QRELIAB_BRUTE_CAP must be a non-negative integer, got {env!r}")
    return value


def resolve_cap(cap: int | None, default: int = DEFAULT_BRUTE_CAP) -> int:
    """Explicit cap, else the QRELIAB_BRUTE_CAP environment override, else default."""
    if cap is not None:
        return cap
    override = brute_cap_override()
    return default if override is None else override


def _lineage(
    q: Query, instance: Instance, certain: set[Fact], cap: int | None
) -> tuple[list[Fact], list[int]]:
    """The query's lineage over the uncertain facts: the facts of some match
    support that are not certain, and each support as a bitmask over them.

    Raises CapExceededError when the widest independent component of the
    minimised masks, the counter's real width, exceeds the resolved cap.
    """
    supports = set(enumerate_matches(q, instance))
    facts = sorted(set().union(*supports) - certain)
    index = {f: 1 << i for i, f in enumerate(facts)}
    masks = [sum(index[f] for f in sup if f not in certain) for sup in supports]
    limit = resolve_cap(cap)
    width = kernels.lineage_width(masks)
    if width > limit:
        raise CapExceededError(width, limit)
    return facts, masks


def ur_brute(q: Query, instance: Instance, cap: int | None = None) -> int:
    """|Mod(Q, I)| by exact model counting over the support facts.

    Facts outside every match support contribute a free factor 2**k.
    """
    facts, masks = _lineage(q, instance, set(), cap)
    count = kernels.count_containing_any(len(facts), masks)
    return count << (len(instance) - len(facts))


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
    probs = {f: prob.prob_of(f) for f in instance.facts}
    certain = {f for f, p in probs.items() if p == 1}
    facts, masks = _lineage(q, instance, certain, cap)
    weights = [
        (probs[f].numerator, probs[f].denominator - probs[f].numerator) for f in facts
    ]
    denominator = math.prod(probs[f].denominator for f in facts)
    violated = kernels.count_avoiding(masks, weights)
    return Fraction(denominator - violated, denominator)


def _components(atoms: list[tuple[str, ...]]) -> list[list[int]]:
    """Group atoms, given by their free variables, into connected components
    by shared variables; each component lists its atoms' indices."""
    parent = list(range(len(atoms)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    first_atom: dict[str, int] = {}
    for i, free in enumerate(atoms):
        for v in free:
            if v in first_atom:
                parent[find(i)] = find(first_atom[v])
            else:
                first_atom[v] = i
    groups: dict[int, list[int]] = {}
    for i in range(len(atoms)):
        groups.setdefault(find(i), []).append(i)
    return [groups[k] for k in sorted(groups)]


def _plan(atoms: list[tuple[tuple[str, ...], dict[str, int]]], probs: dict[Fact, Fraction]):
    """Compile the safe plan of a hierarchical query.

    ``atoms`` gives each atom's free variables and the column of each
    variable.  The result maps one fact list per atom, already restricted to
    the constants and bound variables, to the probability that some match is
    present.  Its shape depends on the query only, so it is built once per
    call and not per root value.
    """
    comps = _components([free for free, _ in atoms])
    if len(comps) > 1:
        # Independent join: components share no variable and, the query
        # being self-join-free, no fact.
        parts = [(comp, _plan([atoms[i] for i in comp], probs)) for comp in comps]

        def join(lists: list[list[Fact]]) -> Fraction:
            result = Fraction(1)
            for comp, part in parts:
                result *= part([lists[i] for i in comp])
            return result

        return join

    if len(atoms) == 1:
        # Every remaining fact is a match on its own, independent of the others.
        def single(lists: list[list[Fact]]) -> Fraction:
            miss = Fraction(1)
            for f in lists[0]:
                miss *= 1 - probs[f]
            return 1 - miss

        return single

    free_vars = atoms[0][0]
    root = next((v for v in free_vars if all(v in free for free, _ in atoms)), None)
    if root is None:
        raise NonHierarchicalQueryError("no root variable; query is not hierarchical")
    root_columns = [columns[root] for _, columns in atoms]
    child = _plan(
        [(tuple(v for v in free if v != root), columns) for free, columns in atoms],
        probs,
    )

    def project(lists: list[list[Fact]]) -> Fraction:
        # Independent project: partition each atom's facts by the root value
        # once.  Branches for distinct values touch disjoint facts, and a
        # value that some atom lacks has no match (factor 1).
        groups = []
        for facts, k in zip(lists, root_columns):
            by_value: dict[str, list[Fact]] = {}
            for f in facts:
                by_value.setdefault(f.args[k], []).append(f)
            groups.append(by_value)
        smallest = min(groups, key=len)
        result = Fraction(1)
        for value in smallest:
            if all(value in g for g in groups):
                result *= 1 - child([g[value] for g in groups])
        return 1 - result

    return project


def _check_arities(q: Query, instance: Instance) -> None:
    for relation, arity in q.schema.items():
        inst_arity = instance.arity_of(relation)
        if inst_arity is not None and inst_arity != arity:
            raise ArityError(
                f"relation {relation!r}: query arity {arity}, instance arity {inst_arity}"
            )


def pqe_safe(q: Query, instance: Instance, prob: ProbAssignment) -> Fraction:
    """Exact probability for hierarchical queries, in time about linear in
    the instance (plus exact-arithmetic cost).

    Each atom's facts are first restricted to its constants and repeated
    variables.  Then the safe plan recurses: independent product over
    connected components, and independent projection on a root variable
    occurring in every atom of its component (which the hierarchy property
    guarantees), splitting each atom's facts by the root value once per
    level.  Every fact's probability is resolved first, so a missing one is
    reported whichever facts the plan visits.
    """
    if not classify_hierarchical(q).hierarchical:
        raise NonHierarchicalQueryError(f"query {q} is not hierarchical")
    _check_arities(q, instance)
    probs = {f: prob.prob_of(f) for f in instance.facts}
    patterns = [AtomPattern.of(a) for a in q.atoms]
    plan = _plan([(a.variables, p.columns) for a, p in zip(q.atoms, patterns)], probs)
    return plan([p.select(instance.facts_of(a.relation)) for a, p in zip(q.atoms, patterns)])


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
