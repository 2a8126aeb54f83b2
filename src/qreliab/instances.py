"""Fact sets, probability assignments, and their on-disk formats.

Fact files hold one fact per line (``Rel(c1,...,ck)``), with ``#`` comments
and blank lines allowed.  Probability files hold lines ``Rel p/q`` (per
relation) or ``Rel(c1,...,ck) p/q`` (per fact); a file is per fact when some
line other than a comment holds a ``(``.  Serialization emits facts sorted by
(relation, args), so parse/serialize round-trips are bit-exact.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, NamedTuple

from .cq import RELATION_RE
from .errors import ArityError, InstanceFormatError, ProbabilityError, QReliabError

CONSTANT_RE = re.compile(r"[A-Za-z0-9_.@]+")
# Reads any line that has a fact's shape, to word the error of a bad one.
_FACT_RE = re.compile(rf"({RELATION_RE.pattern})\((.*)\)\s*$")
# Whitespace within one line of a file whose lines are joined by newlines.
_WS = r"[^\S\n]"
# The relation, then a well-formed parenthesised argument list; the second
# group is the list without its outer whitespace.
_RELATION = rf"({RELATION_RE.pattern})"
_ARGS = rf"\({_WS}*({CONSTANT_RE.pattern}(?:{_WS}*,{_WS}*{CONSTANT_RE.pattern})*){_WS}*\)"


def _lines_re(accepted: str) -> re.Pattern:
    """A pattern with one match per line of a file's lines joined by
    newlines.  A well-formed line, ``accepted`` between optional blanks,
    fills the groups of ``accepted``; a blank or comment line leaves every
    group empty; any other line fills only the last group, with its first
    non-blank character.  Every repeat stops where a character class
    disjoint from its own begins, and the rejected branch takes one
    character, so matching takes time linear in the line's length."""
    return re.compile(rf"^{_WS}*(?:{accepted}{_WS}*$|#|$|([^\n]))", re.M)


# (relation, arguments, rejected) per line of a fact file.
_FACT_LINES_RE = _lines_re(_RELATION + _ARGS)
_REJECTED = itemgetter(2)
_BLANK_RE = re.compile(_WS)
# (relation, arguments, probability, rejected) per line of a probability
# file; the arguments are empty on a per-relation line.  (An empty branch
# matches faster than an optional group.)
_PROB_LINES_RE = _lines_re(rf"{_RELATION}(?:{_ARGS}|){_WS}+(\S+)")


class Fact(NamedTuple):
    """A fact: equal to, hashed and ordered as its (relation, args) tuple."""

    relation: str
    args: tuple[str, ...]

    def __str__(self) -> str:
        return f"{self.relation}({','.join(self.args)})"


class Instance:
    """A finite set of facts (set semantics), with a per-relation index.

    Iteration and ``serialize`` give the facts sorted by (relation, args);
    the index keeps no order."""

    def __init__(self, facts: Iterable[Fact] = ()):
        self._facts = frozenset(facts)
        index: dict[str, list[Fact]] = {}
        for f in self._facts:
            index.setdefault(f.relation, []).append(f)
        self._by_relation = index
        for relation, fs in index.items():
            arities = {len(f.args) for f in fs}
            if len(arities) > 1:
                raise ArityError(f"relation {relation!r} used with mixed arities")

    @property
    def facts(self) -> frozenset[Fact]:
        return self._facts

    @property
    def relations(self) -> Iterable[str]:
        """The relations that have at least one fact, in no fixed order."""
        return self._by_relation.keys()

    def facts_of(self, relation: str) -> list[Fact]:
        """The facts of one relation, in no fixed order; callers do not
        modify the list."""
        return self._by_relation.get(relation, [])

    def arity_of(self, relation: str) -> int | None:
        fs = self._by_relation.get(relation)
        return len(fs[0].args) if fs else None

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
        if not CONSTANT_RE.fullmatch(a):
            raise error(f"line {lineno}: bad constant {a!r}")
    return args


def _fact_of(text: str, lineno: int, error: type[QReliabError]) -> Fact:
    """The fact in text, which the well-formed pattern rejected, read piece by
    piece so that the error raised names what is wrong."""
    m = _FACT_RE.match(text)
    if not m:
        raise error(f"line {lineno}: cannot parse fact {text!r}")
    return Fact(m.group(1), _fact_args(m.group(2), lineno, error))


def parse_instance(text: str) -> Instance:
    """Parse a fact file.  One pattern reads every line; a line it rejects is
    read again by ``_fact_of``, which raises the error that names its fault
    (the two read the same grammar, so it raises on every such line)."""
    lines = text.splitlines()
    joined = "\n".join(lines)
    rows = _FACT_LINES_RE.findall(joined)
    if any(map(_REJECTED, rows)):
        for lineno, (_, _, rejected) in enumerate(rows, start=1):
            if rejected:
                _fact_of(lines[lineno - 1].strip(), lineno, InstanceFormatError)
    if _BLANK_RE.search(joined):  # blanks may stand around an argument
        return Instance([Fact(r, tuple(map(str.strip, a.split(",")))) for r, a, _ in rows if r])
    return Instance([Fact(r, tuple(a.split(","))) for r, a, _ in rows if r])


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

    Every stored probability is a rational in (0, 1].  A fact takes its own
    probability, else its relation's, else the default.
    """

    per_fact: Mapping[Fact, Fraction] = field(default_factory=dict)
    per_relation: Mapping[str, Fraction] = field(default_factory=dict)
    default: Fraction | None = None

    def __post_init__(self):
        # A Fraction's denominator is positive, so integer comparisons check
        # 0 < p <= 1 without building a Fraction.  A parsed file shares one
        # object per distinct value, so each object is checked once.
        stored = (self.per_fact, self.per_relation)
        for p in {id(p): p for probs in stored for p in probs.values()}.values():
            if not 0 < p.numerator <= p.denominator:
                raise ProbabilityError(f"probability {p} is outside (0, 1]")
        if self.default is not None and not 0 < self.default <= 1:
            raise ProbabilityError(f"probability {self.default} is outside (0, 1]")

    @classmethod
    def uniform(cls, p: Fraction | int | str) -> "ProbAssignment":
        return cls(default=Fraction(p))

    @classmethod
    def for_relations(cls, probs: Mapping[str, Fraction]) -> "ProbAssignment":
        return cls(per_relation=dict(probs))

    @classmethod
    def for_facts(cls, probs: Mapping[Fact, Fraction]) -> "ProbAssignment":
        return cls(per_fact=dict(probs))

    def prob_of(self, fact: Fact) -> Fraction:
        p = self.per_fact.get(fact)
        if p is None:
            p = self.per_relation.get(fact.relation, self.default)
        if p is None:
            raise ProbabilityError(f"no probability assigned to {fact}")
        return p


def parse_prob_map(text: str) -> ProbAssignment:
    """Parse a probability file: per fact when some line other than a
    comment holds a ``(``, else per relation.  A fact (or relation) given
    on two lines is an error."""
    lines = text.splitlines()
    per_fact = any(
        "(" in line
        for line in map(str.strip, lines)
        if line and not line.startswith("#")
    )
    probs: dict = {}  # Fact or relation name -> probability
    first_line: dict = {}
    parsed: dict[str, Fraction] = {}  # probability token -> its value
    for lineno, (relation, args, value, rejected) in enumerate(
        _PROB_LINES_RE.findall("\n".join(lines)), start=1
    ):
        if value and bool(args) == per_fact:
            target = None
        elif value or rejected:  # a line of the other mode, or malformed
            try:
                target, value = lines[lineno - 1].strip().rsplit(None, 1)
            except ValueError:
                raise ProbabilityError(f"line {lineno}: expected '<target> p/q'") from None
        else:
            continue
        prob = parsed.get(value)
        if prob is None:
            prob = parsed[value] = _parse_rational(value)
        if target is None:
            key = Fact(relation, tuple(map(str.strip, args.split(",")))) if per_fact else relation
        elif per_fact:
            key = _fact_of(target, lineno, ProbabilityError)
        elif RELATION_RE.fullmatch(target):
            key = target
        else:
            raise ProbabilityError(f"line {lineno}: bad relation name {target!r}")
        if key in first_line:
            raise ProbabilityError(
                f"line {lineno}: {key} already has a probability on line {first_line[key]}"
            )
        first_line[key] = lineno
        probs[key] = prob
    if per_fact:
        return ProbAssignment.for_facts(probs)
    return ProbAssignment.for_relations(probs)


def fresh_constant(namespace: str, indices: Iterable[int]) -> str:
    """Deterministic generated constant ``@ns.i1.i2...``.

    Generated names always start with ``@``; user-supplied constants are not
    expected to, which keeps gadget construction collision-free.
    """
    if not namespace:
        raise ValueError("namespace must be nonempty")
    parts = [namespace] + [str(i) for i in indices]
    return "@" + ".".join(parts)
