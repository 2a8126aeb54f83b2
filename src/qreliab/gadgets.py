"""Gadget instances for the main reduction and their violating-world counts.

Each count (lambda's for the two-element gadget, gamma/delta's for the
four-element chain) is available both in closed form and by brute-force
enumeration with the matching boundary conditions, so the closed forms can be
verified independently.  The brute counts take each gadget's lineage once
and count it under one weighting per boundary condition.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Iterable, Sequence

from .cq import Atom, Query, Term, parse_query
from .errors import CapExceededError, QReliabError
from .evaluate import Lineage, lineage, lineage_counts
from .instances import Fact, Instance

GADGET_KINDS = ("ab", "abcd", "abcd_trimmed")


@cache
def qrst_query(r: int, s: int, t: int) -> Query:
    """The canonical non-hierarchical family R1(x),...,S1(x,y),...,T1(y),...

    Built once per (r, s, t): a query is immutable, and its join plan is
    computed on first use and kept with it."""
    if r < 1 or s < 1 or t < 1:
        raise QReliabError("r, s, t must all be positive")
    atoms = [Atom(f"R{k}", (Term("variable", "x"),)) for k in range(1, r + 1)]
    atoms += [
        Atom(f"S{k}", (Term("variable", "x"), Term("variable", "y")))
        for k in range(1, s + 1)
    ]
    atoms += [Atom(f"T{k}", (Term("variable", "y"),)) for k in range(1, t + 1)]
    return Query(tuple(atoms))


@cache
def q1_query() -> Query:
    """R(x), S(x,y), T(y), built once (see ``qrst_query``)."""
    return parse_query("R(x), S(x,y), T(y)")


@dataclass(frozen=True)
class GadgetCounts:
    """Violating-world counts of the gadgets for fixed (r, s, t)."""

    r: int
    s: int
    t: int
    lam_r: int
    lam_rbar: int
    lam_t: int
    lam_tbar: int
    gamma: int
    delta_r: int
    delta_t: int
    delta_bot: int
    kappa: int


def _r_facts(r: int, elem: str) -> list[Fact]:
    return [Fact(f"R{k}", (elem,)) for k in range(1, r + 1)]


def _s_facts(s: int, src: str, dst: str) -> list[Fact]:
    return [Fact(f"S{k}", (src, dst)) for k in range(1, s + 1)]


def _t_facts(t: int, elem: str) -> list[Fact]:
    return [Fact(f"T{k}", (elem,)) for k in range(1, t + 1)]


def gadget_facts(kind: str, r: int, s: int, t: int, endpoints: Sequence[str]) -> list[Fact]:
    """The facts of the (a,b)-gadget or of the (a,b,c,d)-chain, in a fixed
    order.

    The trimmed chain omits the R-facts on a and the T-facts on d, which
    ``build_Dp`` supplies from the graph's vertex bundles.
    """
    if kind not in GADGET_KINDS:
        raise QReliabError(f"unknown gadget kind {kind!r}")
    if kind == "ab":
        if len(endpoints) != 2:
            raise QReliabError("the (a,b)-gadget takes 2 endpoints")
        a, b = endpoints
        return _r_facts(r, a) + _s_facts(s, a, b) + _t_facts(t, b)
    if len(endpoints) != 4:
        raise QReliabError("the chain gadgets take 4 endpoints")
    a, b, c, d = endpoints
    facts = _s_facts(s, a, b) + _t_facts(t, b) + _s_facts(s, c, b)
    facts += _r_facts(r, c) + _s_facts(s, c, d)
    if kind == "abcd":
        facts += _r_facts(r, a) + _t_facts(t, d)
    return facts


def build_gadget(kind: str, r: int, s: int, t: int, endpoints: Sequence[str]) -> Instance:
    """The gadget of ``gadget_facts`` as an instance."""
    return Instance(gadget_facts(kind, r, s, t, endpoints))


def closed_counts(r: int, s: int, t: int) -> GadgetCounts:
    """Evaluate the closed-form world counts."""
    if r < 1 or s < 1 or t < 1:
        raise QReliabError("r, s, t must all be positive")
    ps = 1 << s  # 2^s
    pr = 1 << r
    pt = 1 << t
    gamma = (pt - 1) * ((pr - 1) * ps**3 + ps**2 * (ps - 1)) + (
        (pr - 1) * ps**2 * (ps - 1) + (ps - 1) ** 3
    )
    delta_r_odd = (pt - 1) * pr * ps**2 + ((pr - 1) * (ps - 1) * ps + (ps - 1) ** 2)
    delta_t_odd = (pr - 1) * pt * ps**2 + ((pt - 1) * (ps - 1) * ps + (ps - 1) ** 2)
    return GadgetCounts(
        r=r,
        s=s,
        t=t,
        lam_r=(1 << (s + t)) - 1,
        lam_rbar=1 << (s + t),
        lam_t=(1 << (s + r)) - 1,
        lam_tbar=1 << (s + r),
        gamma=gamma,
        delta_r=ps * delta_r_odd,
        delta_t=ps * delta_t_odd,
        delta_bot=ps**2 * ((1 << (r + s + t)) - 1),
        kappa=(pr - 1) * (pt - 1) * ps**3,
    )


def count_violating(
    instance: Instance,
    query: Query,
    forced_present: Iterable[Fact] = (),
    forced_absent: Iterable[Fact] = (),
) -> int:
    """Worlds of the instance violating the query, under presence constraints.

    Worlds range over subsets of the facts that are neither forced present nor
    forced absent.  The lineage is counted with a forced-present fact
    weighing (1, 0), in every world, and a forced-absent one (0, 1), in
    none; a fact forced both ways is absent.
    """
    return _violating(instance, lineage(query, instance), forced_present, forced_absent)


def _violating(instance: Instance, lin: Lineage, forced_present, forced_absent) -> int:
    """``count_violating`` on the instance's lineage ``lin``."""
    absent = set(forced_absent)
    present = set(forced_present) - absent
    weights = {f: (0, 1) if f in absent else (1, 0) if f in present else (1, 1) for f in lin.facts}
    miss, total = lineage_counts(lin, weights)
    # total = 2**k for the k free lineage facts; each other free fact doubles the count.
    return miss << (len(instance.facts - absent - present) - (total.bit_length() - 1))


def brute_counts(r: int, s: int, t: int) -> GadgetCounts:
    """All eight counts from two lineages, the (a,b)-gadget's and the
    chain's, each counted under one weighting per boundary condition."""
    query = qrst_query(r, s, t)
    gadgets = [
        build_gadget("ab", r, s, t, ["@g.a", "@g.b"]),
        build_gadget("abcd", r, s, t, ["@g.a", "@g.b", "@g.c", "@g.d"]),
    ]
    ab, chain = [(gadget, lineage(query, gadget)) for gadget in gadgets]
    r_on_a = _r_facts(r, "@g.a")
    t_on_b = _t_facts(t, "@g.b")
    t_on_d = _t_facts(t, "@g.d")

    lam_r = _violating(*ab, r_on_a, ())
    lam_rbar = _violating(*ab, (), r_on_a)
    lam_t = _violating(*ab, t_on_b, ())
    lam_tbar = _violating(*ab, (), t_on_b)
    gamma = _violating(*chain, r_on_a + t_on_d, ())
    delta_r = _violating(*chain, r_on_a, t_on_d)
    delta_t = _violating(*chain, t_on_d, r_on_a)
    delta_bot = _violating(*chain, (), r_on_a + t_on_d)
    return GadgetCounts(
        r=r,
        s=s,
        t=t,
        lam_r=lam_r,
        lam_rbar=lam_rbar,
        lam_t=lam_t,
        lam_tbar=lam_tbar,
        gamma=gamma,
        delta_r=delta_r,
        delta_t=delta_t,
        delta_bot=delta_bot,
        kappa=delta_r * delta_t - gamma * delta_bot,
    )


def v2(n: int) -> int:
    """2-adic valuation of a positive integer."""
    if n <= 0:
        raise ValueError("valuation defined for positive integers only")
    return (n & -n).bit_length() - 1


@dataclass(frozen=True)
class LemmaCheck:
    rst: tuple[int, int, int]
    gamma_odd: bool
    delta_valuations: bool
    kappa_identity: bool
    brute_match: bool | None  # None when the triple is over the brute cap

    @property
    def passed(self) -> bool:
        return (
            self.gamma_odd
            and self.delta_valuations
            and self.kappa_identity
            and self.brute_match is not False
        )


def verify_lemmas(max_r: int, max_s: int, max_t: int) -> list[LemmaCheck]:
    """Check the parity/valuation facts and the product-difference identity
    on every (r, s, t) in range; cross-check against brute force where the
    gadget lineages fit the brute cap."""
    checks = []
    for r in range(1, max_r + 1):
        for s in range(1, max_s + 1):
            for t in range(1, max_t + 1):
                cc = closed_counts(r, s, t)
                gamma_odd = cc.gamma % 2 == 1
                valuations = (
                    v2(cc.delta_r) == s
                    and v2(cc.delta_t) == s
                    and v2(cc.delta_bot) == 2 * s
                )
                kappa_ok = (
                    cc.delta_r * cc.delta_t - cc.gamma * cc.delta_bot == cc.kappa
                    and cc.kappa > 0
                )
                try:
                    brute_match = brute_counts(r, s, t) == cc
                except CapExceededError:
                    brute_match = None
                checks.append(
                    LemmaCheck((r, s, t), gamma_odd, valuations, kappa_ok, brute_match)
                )
    return checks
