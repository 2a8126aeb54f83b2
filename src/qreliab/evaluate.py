"""Exact counting and probability engines.

Three routes are provided: the brute route, exact model counting over the
match supports (the oracle used by the verification suites); a polynomial
safe-plan evaluator for hierarchical queries; and the certain-T rewrite that
makes the (r, s, 1) per-relation setting tractable.

Both exact routes take each fact's integer weights (w_in, w_out) and give
miss and total, the weight of the worlds with no match and of all worlds,
over the facts they cover.  UR weighs every fact (1, 1), which makes
|Mod(Q, I)| = 2**|I| * P(Q) at p = 1/2; PQE weighs by ``fact_weights``.

The brute route is the ``lineage`` (the match supports, as masks) and its
weighted count, ``lineage_counts``, which conditions it on the weights: a
certain fact (1, 0) leaves every mask, and an impossible one (0, 1) takes
every support that holds it out.  So a sub-instance's lineage is the full
one with the missing facts impossible, and one lineage serves them all;
``lineage_counts_without`` counts it once and gives every sub-instance's
count from that pass's trace.
"""

from __future__ import annotations

import math
import os
from fractions import Fraction
from typing import NamedTuple

from . import kernels
from .cq import AtomPattern, Query, check_arities, classify_hierarchical
from .cq import enumerate_matches, parse_query
from .errors import CapExceededError, InstanceFormatError, NonHierarchicalQueryError, UsageError
from .instances import Fact, Instance, ProbAssignment

DEFAULT_BRUTE_CAP = 30

Weights = dict[Fact, tuple[int, int]]


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


def resolve_cap(cap: int | None = None, default: int = DEFAULT_BRUTE_CAP) -> int:
    """Explicit cap, else the QRELIAB_BRUTE_CAP environment override, else default."""
    if cap is not None:
        return cap
    override = brute_cap_override()
    return default if override is None else override


def fact_weights(instance: Instance, prob: ProbAssignment) -> Weights:
    """Each fact's integer weights (w_in, w_out) = (num, den - num) for its
    probability num/den: its weight in the worlds where it is present, and
    in those where it is absent.

    A ``ProbAssignment`` with no per-fact probability is resolved once per
    relation.  Anything else with a ``prob_of`` is resolved fact by fact,
    and each distinct probability object gives one pair.  Either way every
    fact's probability is resolved, so a missing one is reported whichever
    facts the evaluation visits.
    """
    if isinstance(prob, ProbAssignment) and not prob.per_fact:
        weights = {}
        for relation in instance.relations:
            facts = instance.facts_of(relation)
            weights.update(dict.fromkeys(facts, _weight_pair(prob.prob_of(facts[0]))))
        return weights
    facts = instance.facts
    probs = list(map(prob.prob_of, facts))  # keeps alive each object whose id keys `pairs`
    pairs: dict[int, tuple[int, int]] = {}
    weights = {}
    for f, p in zip(facts, probs):
        pair = pairs.get(id(p))
        if pair is None:
            pair = pairs[id(p)] = _weight_pair(p)
        weights[f] = pair
    return weights


def _weight_pair(p: Fraction) -> tuple[int, int]:
    num = p.numerator
    return num, p.denominator - num


class Lineage(NamedTuple):
    """The match supports of a query on an instance: bit i of a mask
    stands for ``facts[i]``, and every fact lies in some support."""

    facts: list[Fact]
    masks: list[int]


def lineage(q: Query, instance: Instance) -> Lineage:
    """One mask per distinct match support of q on the instance."""
    supports = set(enumerate_matches(q, instance))
    facts = sorted(set().union(*supports))
    index = {f: 1 << i for i, f in enumerate(facts)}
    return Lineage(facts, [sum(map(index.__getitem__, sup)) for sup in supports])


def _conditioned(lin: Lineage, weights: Weights) -> tuple[list[int], list[tuple[int, int]]]:
    """The lineage's masks conditioned on the weights, and the weights in
    fact order: a certain fact (w_out = 0) leaves every mask; a support
    that holds an impossible fact (w_in = 0) leaves the lineage."""
    pairs = [weights[f] for f in lin.facts]
    certain = impossible = 0
    for i, (w_in, w_out) in enumerate(pairs):
        if not w_out:
            certain |= 1 << i
        elif not w_in:
            impossible |= 1 << i
    return [m & ~certain for m in lin.masks if not m & impossible], pairs


def lineage_counts(lin: Lineage, weights: Weights) -> tuple[int, int]:
    """(miss, total) over the lineage's facts, each weighing ``weights[f]``:
    the weight of the worlds that hold no support, and of all worlds.

    The lineage is conditioned on the weights first (``_conditioned``).
    The counter raises CapExceededError when the conditioned lineage's
    widest independent component exceeds the resolved cap.
    """
    masks, pairs = _conditioned(lin, weights)
    miss = kernels.count_avoiding(masks, pairs, resolve_cap())
    return miss, math.prod(map(sum, pairs))


def lineage_counts_without(
    lin: Lineage, weights: Weights, removals: list[list[Fact]]
) -> list[tuple[int, int]]:
    """``lineage_counts`` of each sub-instance that lacks one listed set of
    facts, in order: the lineage under ``weights`` with those facts
    impossible, (0, 1).

    One counter pass counts the lineage conditioned on ``weights`` and
    records its trace, which gives every other count under the other
    weights.  No set may remove a fact that is certain under ``weights``
    without some uncertain fact of each support that holds it, as a whole
    gadget or pendant does.  A sub-instance's conditioned lineage is then
    the full one's supports that avoid its removed facts, so its minimised
    masks are the full one's that avoid them, and its widest component is
    no wider: the one cap check covers every set.  Only when it fails is
    each set counted alone, in order, so the first one over the cap raises.
    """
    masks, pairs = _conditioned(lin, weights)
    trace: list[tuple] = []
    try:
        miss = kernels.count_avoiding(masks, pairs, resolve_cap(), trace)
    except CapExceededError:
        return [lineage_counts(lin, weights | dict.fromkeys(gone, (0, 1))) for gone in removals]
    position = {f: i for i, f in enumerate(lin.facts)}
    counts = []
    for gone in removals:
        cell = list(pairs)
        for f in gone:
            i = position.get(f)
            if i is not None:
                cell[i] = (0, 1)
        cell_miss = kernels.evaluate_trace(trace, cell) if gone else miss
        counts.append((cell_miss, math.prod([a + b for a, b in cell])))
    return counts


def ur_brute(q: Query, instance: Instance) -> int:
    """|Mod(Q, I)| by exact model counting over the support facts, every
    fact weighing 1 present and 1 absent; each fact outside every match
    support doubles the count."""
    lin = lineage(q, instance)
    miss, total = lineage_counts(lin, dict.fromkeys(lin.facts, (1, 1)))
    return (total - miss) << (len(instance) - len(lin.facts))


def pqe_brute(q: Query, instance: Instance, prob: ProbAssignment) -> Fraction:
    """Exact query probability by weighted model counting over the support
    facts, weighted as ``fact_weights`` says.

    Certain facts (probability 1) are fixed present, and impossible ones
    (probability 0) fixed absent; facts outside every match support
    contribute a factor of 1 either way.
    """
    miss, total = lineage_counts(lineage(q, instance), fact_weights(instance, prob))
    return Fraction(total - miss, total)


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


def _plan(
    atoms: list[tuple[tuple[str, ...], dict[str, int]]],
    weights: Weights,
):
    """Compile the safe plan of a hierarchical query.

    ``atoms`` gives each atom's free variables and the column of each
    variable.  The result maps one fact list per atom, already restricted to
    the constants and bound variables, to the integer pair (miss, total):
    the weight of the worlds of those facts with no match, and of all their
    worlds, where each fact weighs ``weights[f]`` = (w_in, w_out).  Its
    shape depends on the query only, so it is built once per call and not
    per root value.
    """
    comps = _components([free for free, _ in atoms])
    if len(comps) > 1:
        # Independent join: components share no variable and, the query
        # being self-join-free, no fact.  A world matches when every
        # component's facts match.
        parts = [(comp, _plan([atoms[i] for i in comp], weights)) for comp in comps]

        def join(lists: list[list[Fact]]) -> tuple[int, int]:
            hit = total = 1
            for comp, part in parts:
                part_miss, part_total = part([lists[i] for i in comp])
                hit *= part_total - part_miss
                total *= part_total
            return total - hit, total

        return join

    if len(atoms) == 1:
        # Every remaining fact is a match on its own, independent of the others.
        def single(lists: list[list[Fact]]) -> tuple[int, int]:
            pairs = [weights[f] for f in lists[0]]
            return math.prod(w_out for _, w_out in pairs), math.prod(map(sum, pairs))

        return single

    free_vars = atoms[0][0]
    root = next((v for v in free_vars if all(v in free for free, _ in atoms)), None)
    if root is None:
        raise NonHierarchicalQueryError("no root variable; query is not hierarchical")
    root_columns = [columns[root] for _, columns in atoms]
    child = _plan(
        [(tuple(v for v in free if v != root), columns) for free, columns in atoms],
        weights,
    )

    def project(lists: list[list[Fact]]) -> tuple[int, int]:
        # Independent project: partition each atom's facts by the root value
        # once.  Branches for distinct values touch disjoint facts; the facts
        # of a value that some atom lacks take part in no match, so they
        # weigh the same in the missing worlds as in all worlds.
        groups = []
        for facts, k in zip(lists, root_columns):
            by_value: dict[str, list[Fact]] = {}
            for f in facts:
                by_value.setdefault(f.args[k], []).append(f)
            groups.append(by_value)
        smallest = min(groups, key=len)
        common = [value for value in smallest if all(value in g for g in groups)]
        misses = []
        totals = []
        for value in common:
            branch_miss, branch_total = child([g.pop(value) for g in groups])
            misses.append(branch_miss)
            totals.append(branch_total)
        outside = math.prod(sum(weights[f]) for g in groups for facts in g.values() for f in facts)
        return math.prod(misses) * outside, math.prod(totals) * outside

    return project


def _safe_counts(q: Query, instance: Instance, weights: Weights) -> tuple[int, int, int]:
    """Run the safe plan of a hierarchical query: (miss, total, covered), the
    weight of the worlds with no match and of all worlds over the facts the
    plan covers, and the number of those facts.  Each fact weighs
    ``weights[f]`` = (w_in, w_out)."""
    if not classify_hierarchical(q).hierarchical:
        raise NonHierarchicalQueryError(f"query {q} is not hierarchical")
    check_arities(q, instance)
    patterns = [AtomPattern.of(a) for a in q.atoms]
    plan = _plan([(a.variables, p.columns) for a, p in zip(q.atoms, patterns)], weights)
    lists = [p.select(instance.facts_of(a.relation)) for a, p in zip(q.atoms, patterns)]
    miss, total = plan(lists)
    return miss, total, sum(map(len, lists))


def pqe_safe(q: Query, instance: Instance, prob: ProbAssignment) -> Fraction:
    """Exact probability for hierarchical queries, in time about linear in
    the instance (plus exact-arithmetic cost).

    Each atom's facts are first restricted to its constants and repeated
    variables.  Then the safe plan recurses: independent product over
    connected components, and independent projection on a root variable
    occurring in every atom of its component (which the hierarchy property
    guarantees), splitting each atom's facts by the root value once per
    level.  It works in integer weights (see ``fact_weights``) and builds
    one Fraction at the end.
    """
    miss, total, _ = _safe_counts(q, instance, fact_weights(instance, prob))
    return Fraction(total - miss, total)


def ur_safe(q: Query, instance: Instance) -> int:
    """|Mod(Q, I)| for hierarchical queries: the safe plan with every fact
    weighing 1 present and 1 absent, times 2 for each fact it does not cover."""
    miss, total, covered = _safe_counts(q, instance, dict.fromkeys(instance.facts, (1, 1)))
    return (total - miss) << (len(instance) - covered)


def rewrite_prob1(instance: Instance, r: Fraction, s: Fraction) -> Fraction:
    """Probability for the R(x),S(x,y),T(y) query with certain T-facts.

    Drops every S-fact whose right endpoint has no T-fact, then evaluates the
    hierarchical residual R(x),S(x,y) with per-relation probabilities (r, s).
    """
    from .gadgets import q1_query  # gadgets imports this module

    q1 = q1_query()
    check_arities(q1, instance)
    for relation in instance.relations:
        if relation not in q1.schema:
            raise InstanceFormatError(f"unexpected relation {relation!r}")

    t_values = {f.args[0] for f in instance.facts_of("T")}
    kept = [f for f in instance.facts_of("R")]
    kept += [f for f in instance.facts_of("S") if f.args[1] in t_values]
    residual = parse_query("R(x), S(x,y)")
    probs = ProbAssignment.for_relations({"R": Fraction(r), "S": Fraction(s)})
    return pqe_safe(residual, Instance(kept), probs)
