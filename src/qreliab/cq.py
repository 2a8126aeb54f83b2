"""Self-join-free Boolean conjunctive queries: parsing, validation, analysis.

Grammar: an optional head ``Name :-`` followed by comma-separated atoms
``Rel(t1,...,tk)``.  Relation names match ``[A-Z][A-Za-z0-9_]*``.  An argument
token starting with a lowercase letter is a variable; a token in single quotes
or starting with a digit is a constant.  Whitespace is insignificant.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import NamedTuple

from .errors import (
    ArityError,
    HierarchicalQueryError,
    QuerySyntaxError,
    SelfJoinError,
    UnknownVariableError,
)

RELATION_RE = re.compile(r"[A-Z][A-Za-z0-9_]*")
_VARIABLE_RE = re.compile(r"[a-z][A-Za-z0-9_]*")
_BARE_CONST_RE = re.compile(r"[0-9][A-Za-z0-9_.@]*")
_QUOTED_CONST_RE = re.compile(r"'([A-Za-z0-9_.@]+)'")


@dataclass(frozen=True)
class Term:
    """A query argument: either a variable or a constant."""

    kind: str  # "variable" | "constant"
    name: str

    @property
    def is_variable(self) -> bool:
        return self.kind == "variable"


@dataclass(frozen=True)
class Atom:
    relation: str
    args: tuple[Term, ...]

    @property
    def variables(self) -> tuple[str, ...]:
        """Variable names in position order, deduplicated."""
        seen: dict[str, None] = {}
        for t in self.args:
            if t.is_variable:
                seen.setdefault(t.name, None)
        return tuple(seen)

    def __str__(self) -> str:
        parts = []
        for t in self.args:
            if t.is_variable or t.name[0].isdigit():
                parts.append(t.name)
            else:
                parts.append(f"'{t.name}'")
        return f"{self.relation}({', '.join(parts)})"


@dataclass(frozen=True)
class Query:
    """A validated self-join-free Boolean CQ."""

    atoms: tuple[Atom, ...]

    def __post_init__(self):
        seen: set[str] = set()
        for atom in self.atoms:
            if atom.relation in seen:
                raise SelfJoinError(atom.relation)
            seen.add(atom.relation)

    @property
    def schema(self) -> dict[str, int]:
        return {a.relation: len(a.args) for a in self.atoms}

    @property
    def variables(self) -> tuple[str, ...]:
        """Variable names in first-occurrence order."""
        seen: dict[str, None] = {}
        for atom in self.atoms:
            for v in atom.variables:
                seen.setdefault(v, None)
        return tuple(seen)

    def __str__(self) -> str:
        return ", ".join(str(a) for a in self.atoms)

    @cached_property
    def _join_plan(self) -> "_JoinPlan":
        # The steps of the hash join behind enumerate_matches depend on the
        # query alone, so they are built once per query object.
        return _plan_join(self)


@dataclass(frozen=True)
class HierarchyReport:
    hierarchical: bool
    witness: tuple[str, str] | None = None
    witness_atoms: tuple[frozenset[int], frozenset[int]] | None = None


def parse_query(text: str) -> Query:
    """Parse query text into a validated Query.

    Atom order follows textual order.  Raises QuerySyntaxError, SelfJoinError,
    or ArityError (a relation cannot occur twice, so arity conflicts reduce to
    self-joins; ArityError is still reported for malformed argument lists).
    """
    pos = 0
    n = len(text)

    def skip_ws():
        nonlocal pos
        while pos < n and text[pos].isspace():
            pos += 1

    # Optional head "Name :-" (the head name is ignored).
    head = text.find(":-")
    if head != -1:
        before = text[:head].strip()
        if before and not re.fullmatch(r"[A-Za-z][A-Za-z0-9_]*", before):
            raise QuerySyntaxError("malformed query head", 0)
        pos = head + 2

    atoms: list[Atom] = []
    while True:
        skip_ws()
        if pos >= n:
            if atoms:
                raise QuerySyntaxError("expected an atom after ','", pos)
            raise QuerySyntaxError("empty query", pos)
        m = RELATION_RE.match(text, pos)
        if not m:
            raise QuerySyntaxError("expected a relation name", pos)
        relation = m.group(0)
        pos = m.end()
        skip_ws()
        if pos >= n or text[pos] != "(":
            raise QuerySyntaxError("expected '('", pos)
        pos += 1
        args: list[Term] = []
        while True:
            skip_ws()
            if pos >= n:
                raise QuerySyntaxError("unterminated argument list", pos)
            if (m := _QUOTED_CONST_RE.match(text, pos)) is not None:
                args.append(Term("constant", m.group(1)))
            elif (m := _BARE_CONST_RE.match(text, pos)) is not None:
                args.append(Term("constant", m.group(0)))
            elif (m := _VARIABLE_RE.match(text, pos)) is not None:
                args.append(Term("variable", m.group(0)))
            else:
                raise QuerySyntaxError("expected a variable or constant", pos)
            pos = m.end()
            skip_ws()
            if pos < n and text[pos] == ",":
                pos += 1
                continue
            if pos < n and text[pos] == ")":
                pos += 1
                break
            raise QuerySyntaxError("expected ',' or ')'", pos)
        if not args:
            raise ArityError(f"atom {relation} has no arguments")
        atoms.append(Atom(relation, tuple(args)))
        skip_ws()
        if pos < n and text[pos] == ",":
            pos += 1
            continue
        if pos >= n:
            break
        raise QuerySyntaxError("expected ',' or end of query", pos)
    return Query(tuple(atoms))


def atoms_of(q: Query, v: str) -> frozenset[int]:
    """Indices of the atoms of q in which variable v occurs."""
    if v not in q.variables:
        raise UnknownVariableError(f"variable {v!r} does not occur in the query")
    return frozenset(i for i, a in enumerate(q.atoms) if v in a.variables)


def classify_hierarchical(q: Query) -> HierarchyReport:
    """Check the pairwise nested-or-disjoint condition on variable atom sets.

    The witness, when present, is the first violating pair in first-occurrence
    variable order.
    """
    variables = q.variables
    sets = {v: atoms_of(q, v) for v in variables}
    for x, y in combinations(variables, 2):
        ax, ay = sets[x], sets[y]
        if ax & ay and not ax <= ay and not ay <= ax:
            return HierarchyReport(False, (x, y), (ax, ay))
    return HierarchyReport(True)


def noncomparable_pair_and_rst(q: Query) -> tuple[str, str, int, int, int]:
    """Witness pair (x, y) of a non-hierarchical query, with the three
    atom-set difference cardinalities (r, s, t)."""
    report = classify_hierarchical(q)
    if report.hierarchical:
        raise HierarchicalQueryError("query is hierarchical; no witness pair exists")
    x, y = report.witness
    ax, ay = report.witness_atoms
    r = len(ax - ay)
    s = len(ax & ay)
    t = len(ay - ax)
    return x, y, r, s, t


class AtomPattern(NamedTuple):
    """What an atom asks of a fact, column by column."""

    columns: dict[str, int]  # variable -> the first column it occupies
    fixed: tuple[tuple[int, str], ...]  # (column, constant)
    same: tuple[tuple[int, int], ...]  # (column, earlier column of its variable)

    @classmethod
    def of(cls, atom: Atom) -> "AtomPattern":
        columns: dict[str, int] = {}
        fixed = []
        same = []
        for k, t in enumerate(atom.args):
            if not t.is_variable:
                fixed.append((k, t.name))
            elif t.name in columns:
                same.append((k, columns[t.name]))
            else:
                columns[t.name] = k
        return cls(columns, tuple(fixed), tuple(same))

    def select(self, facts: list) -> list:
        """The facts that agree with the constants and repeated variables; the
        list itself when the atom has neither."""
        if not (self.fixed or self.same):
            return facts
        return [
            f
            for f in facts
            if all(f.args[k] == c for k, c in self.fixed)
            and all(f.args[k] == f.args[j] for k, j in self.same)
        ]


class _JoinStep(NamedTuple):
    """One atom of the hash join."""

    relation: str
    pattern: AtomPattern
    bound: tuple[int, ...]  # columns of the variables that earlier steps bind
    slots: tuple[int, ...]  # the places of those variables in a partial assignment
    fresh: tuple[int, ...]  # columns of the variables this step binds first


class _JoinPlan(NamedTuple):
    steps: tuple[_JoinStep, ...]
    order: tuple[int, ...]  # slot of each query variable, in first-occurrence order
    # each variable that occurs in two or more atoms, as its occurrences
    # ((step, column), ...), in the order the join first binds them
    shared: tuple[tuple[tuple[int, int], ...], ...]


def _plan_join(q: Query) -> _JoinPlan:
    rest = [(a.relation, AtomPattern.of(a)) for a in q.atoms]
    slot: dict[str, int] = {}  # variable -> its place in a partial assignment
    steps = []
    while rest:
        # Next, the first atom sharing a variable with those already joined,
        # so that a cross product is taken only where the query has one.
        i = next(
            (i for i, (_, p) in enumerate(rest) if not slot.keys().isdisjoint(p.columns)),
            0,
        )
        relation, pattern = rest.pop(i)
        columns = pattern.columns
        bound = tuple(k for v, k in columns.items() if v in slot)
        slots = tuple(slot[v] for v in columns if v in slot)
        fresh = tuple(k for v, k in columns.items() if v not in slot)
        for v in columns:
            slot.setdefault(v, len(slot))
        steps.append(_JoinStep(relation, pattern, bound, slots, fresh))
    occurrences: dict[str, list] = {}
    for i, step in enumerate(steps):
        for v, k in step.pattern.columns.items():
            occurrences.setdefault(v, []).append((i, k))
    shared = tuple(tuple(occ) for occ in occurrences.values() if len(occ) > 1)
    order = tuple(slot[v] for v in q.variables)
    return _JoinPlan(tuple(steps), order, shared)


def _semijoin(lists: list[list], plan: _JoinPlan) -> list[list]:
    """One pass over the shared variables, the one the join binds last
    first: drop every fact whose value of the variable is missing from that
    variable's column in another atom's list.

    A fact of a match holds each variable's value in every atom's column of
    it, so no such fact is dropped; the join rejects what dangling facts
    remain.  When a variable's values have nothing in common there is no
    match, and every list comes back empty.  A list that shrinks is
    replaced, never modified.
    """
    for occ in reversed(plan.shared):
        # (Comprehensions over the facts measured faster here than
        # map/compress chains, on 3 facts and on 2,000 alike.)
        seen = [{f.args[k] for f in lists[i]} for i, k in occ]
        domain = set.intersection(*seen)
        if not domain:
            return [[]] * len(lists)
        for (i, k), values in zip(occ, seen):
            if len(domain) < len(values):  # the domain is a subset of values
                lists[i] = [f for f in lists[i] if f.args[k] in domain]
    return lists


def check_arities(q: Query, instance) -> None:
    """Raise ArityError if a query relation has facts of another arity."""
    for relation, arity in q.schema.items():
        inst_arity = instance.arity_of(relation)
        if inst_arity is not None and inst_arity != arity:
            raise ArityError(
                f"relation {relation!r} has arity {arity} in the query "
                f"but {inst_arity} in the instance"
            )


def enumerate_matches(q: Query, instance) -> list[frozenset]:
    """All query matches of q over the instance, as fact supports.

    One entry per total assignment of q's variables to constants under which
    every atom maps to a fact of the instance; ordered lexicographically by
    the assigned constants (in first-occurrence variable order).

    First a semijoin pass (Yannakakis): each atom's facts, restricted to its
    constants and repeated variables, lose every fact with a value of a
    shared variable (one in two or more atoms) that another atom's list
    lacks in that variable's column, one variable at a time, the one the
    join binds last first.  Each variable is reduced once, so dangling
    facts may remain (in a cycle, say, or where one variable's filter drops
    the last fact holding a value of a variable reduced before it), and the
    join rejects them.  Then a hash join: each atom's facts are indexed on
    the columns of the variables that earlier atoms bind, so each partial
    assignment reaches exactly the facts that extend it.
    """
    check_arities(q, instance)
    plan = q._join_plan
    lists = [step.pattern.select(instance.facts_of(step.relation)) for step in plan.steps]
    if plan.shared and all(lists):
        lists = _semijoin(lists, plan)
    if not all(lists):
        return []  # an atom without facts has no match
    # partial matches: (assigned constants in slot order, support facts)
    partial: list[tuple[tuple[str, ...], tuple]] = [((), ())]
    for (_, _, bound, slots, fresh), facts in zip(plan.steps, lists):
        # values in the bound columns -> [(values in the fresh columns, fact)]
        index: dict[tuple[str, ...], list] = {}
        for f in facts:
            args = f.args
            index.setdefault(tuple([args[k] for k in bound]), []).append(
                (tuple([args[k] for k in fresh]), f)
            )
        partial = [
            (assigned + values, support + (f,))
            for assigned, support in partial
            for values, f in index.get(tuple([assigned[s] for s in slots]), ())
        ]
        if not partial:
            return []

    results = [
        (tuple([assigned[s] for s in plan.order]), frozenset(support))
        for assigned, support in partial
    ]
    results.sort(key=lambda kv: kv[0])
    return [support for _, support in results]
