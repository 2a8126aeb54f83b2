"""Fact sets, probability assignments, and their on-disk formats.

Fact files hold one fact per line (``Rel(c1,...,ck)``), with ``#`` comments
and blank lines allowed.  Probability files hold lines ``Rel p/q``
(per-relation mode) or ``Rel(c1,...,ck) p/q`` (per-fact mode).  Serialization
emits facts sorted by (relation, args), so parse/serialize round-trips are
bit-exact.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Mapping

from .errors import ArityError, InstanceFormatError, ProbabilityError, QReliabError

_CONSTANT_RE = re.compile(r"[A-Za-z0-9_.@]+")
_FACT_RE = re.compile(r"([A-Z][A-Za-z0-9_]*)\((.*)\)\s*$")


@dataclass(frozen=True, order=True)
class Fact:
    relation: str
    args: tuple[str, ...]

    def __str__(self) -> str:
        return f"{self.relation}({','.join(self.args)})"


class Instance:
    """A finite set of facts (set semantics), with a per-relation index."""

    def __init__(self, facts: Iterable[Fact] = ()):
        self._facts = frozenset(facts)
        index: dict[str, list[Fact]] = {}
        for f in self._facts:
            index.setdefault(f.relation, []).append(f)
        for fs in index.values():
            fs.sort()
        self._by_relation = index
        for relation, fs in index.items():
            arities = {len(f.args) for f in fs}
            if len(arities) > 1:
                raise ArityError(f"relation {relation!r} used with mixed arities")

    @property
    def facts(self) -> frozenset[Fact]:
        return self._facts

    def facts_of(self, relation: str) -> list[Fact]:
        return self._by_relation.get(relation, [])

    def arity_of(self, relation: str) -> int | None:
        fs = self._by_relation.get(relation)
        return len(fs[0].args) if fs else None

    def union(self, other: "Instance") -> "Instance":
        return Instance(self._facts | other._facts)

    def __len__(self) -> int:
        return len(self._facts)

    def __contains__(self, fact: Fact) -> bool:
        return fact in self._facts

    def __iter__(self) -> Iterator[Fact]:
        return iter(sorted(self._facts))

    def __eq__(self, other) -> bool:
        return isinstance(other, Instance) and self._facts == other._facts

    def __hash__(self) -> int:
        return hash(self._facts)

    def __repr__(self) -> str:
        return f"Instance({len(self._facts)} facts)"

    def serialize(self) -> str:
        return "".join(f"{fact}\n" for fact in self)


def _fact_args(body: str, lineno: int, error: type[QReliabError]) -> tuple[str, ...]:
    """The constants of a fact's argument list; a malformed one raises error."""
    args = tuple(a.strip() for a in body.split(","))
    for a in args:
        if not _CONSTANT_RE.fullmatch(a):
            raise error(f"line {lineno}: bad constant {a!r}")
    return args


def parse_instance(text: str, schema: Mapping[str, int] | None = None) -> Instance:
    """Parse a fact file; validate relations and arities against schema."""
    facts = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = _FACT_RE.match(line)
        if not m:
            raise InstanceFormatError(f"line {lineno}: cannot parse fact {line!r}")
        relation = m.group(1)
        args = _fact_args(m.group(2), lineno, InstanceFormatError)
        if schema is not None:
            if relation not in schema:
                raise InstanceFormatError(f"line {lineno}: unknown relation {relation!r}")
            if len(args) != schema[relation]:
                raise ArityError(
                    f"line {lineno}: {relation!r} expects arity "
                    f"{schema[relation]}, got {len(args)}"
                )
        facts.append(Fact(relation, args))
    return Instance(facts)


def _parse_rational(token: str) -> Fraction:
    try:
        value = Fraction(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise ProbabilityError(f"malformed rational {token!r}") from exc
    if not 0 < value <= 1:
        raise ProbabilityError(f"probability {token} is outside (0, 1]")
    return value


@dataclass(frozen=True)
class ProbAssignment:
    """Exact-rational fact probabilities, per fact or per relation.

    Every stored probability is a rational in (0, 1].  The per-relation mode
    assigns the relation's probability to each of its facts.
    """

    mode: str  # "per-fact" | "per-relation"
    per_fact: Mapping[Fact, Fraction] = field(default_factory=dict)
    per_relation: Mapping[str, Fraction] = field(default_factory=dict)
    default: Fraction | None = None

    def __post_init__(self):
        if self.mode not in ("per-fact", "per-relation"):
            raise ProbabilityError(f"unknown mode {self.mode!r}")
        for p in list(self.per_fact.values()) + list(self.per_relation.values()):
            if not 0 < p <= 1:
                raise ProbabilityError(f"probability {p} is outside (0, 1]")
        if self.default is not None and not 0 < self.default <= 1:
            raise ProbabilityError(f"probability {self.default} is outside (0, 1]")

    @classmethod
    def uniform(cls, p: Fraction | int | str) -> "ProbAssignment":
        return cls(mode="per-relation", default=Fraction(p))

    @classmethod
    def for_relations(cls, probs: Mapping[str, Fraction]) -> "ProbAssignment":
        return cls(mode="per-relation", per_relation=dict(probs))

    @classmethod
    def for_facts(cls, probs: Mapping[Fact, Fraction]) -> "ProbAssignment":
        return cls(mode="per-fact", per_fact=dict(probs))

    def prob_of(self, fact: Fact) -> Fraction:
        if self.mode == "per-fact":
            if fact in self.per_fact:
                return self.per_fact[fact]
        elif fact.relation in self.per_relation:
            return self.per_relation[fact.relation]
        if self.default is not None:
            return self.default
        raise ProbabilityError(f"no probability assigned to {fact}")


def parse_prob_map(text: str, mode: str) -> ProbAssignment:
    """Parse a probability file in the given mode."""
    if mode not in ("per-fact", "per-relation"):
        raise ProbabilityError(f"unknown mode {mode!r}")
    per_fact: dict[Fact, Fraction] = {}
    per_relation: dict[str, Fraction] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            target, value = line.rsplit(None, 1)
        except ValueError:
            raise ProbabilityError(f"line {lineno}: expected '<target> p/q'") from None
        prob = _parse_rational(value)
        if mode == "per-relation":
            if not re.fullmatch(r"[A-Z][A-Za-z0-9_]*", target):
                raise ProbabilityError(f"line {lineno}: bad relation name {target!r}")
            per_relation[target] = prob
        else:
            m = _FACT_RE.match(target)
            if not m:
                raise ProbabilityError(f"line {lineno}: cannot parse fact {target!r}")
            args = _fact_args(m.group(2), lineno, ProbabilityError)
            per_fact[Fact(m.group(1), args)] = prob
    if mode == "per-relation":
        return ProbAssignment.for_relations(per_relation)
    return ProbAssignment.for_facts(per_fact)


def fresh_constant(namespace: str, indices: Iterable[int]) -> str:
    """Deterministic generated constant ``@ns.i1.i2...``.

    Generated names always start with ``@``; user-supplied constants are not
    expected to, which keeps gadget construction collision-free.
    """
    if not namespace:
        raise ValueError("namespace must be nonempty")
    parts = [namespace] + [str(i) for i in indices]
    return "@" + ".".join(parts)
