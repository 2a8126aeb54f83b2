"""Answer checkers for the benchmark, written without the package under test.

Nothing here imports ``qreliab``: matches come from this module's own join,
probabilities from its own model counter or world enumeration, and
independent-set pairs from its own enumeration.  Every check raises
``CheckFailed``; none uses ``assert``, which ``python -O`` strips.

Facts are plain ``(relation, args)`` tuples and a query is a tuple of atoms
``(relation, variables)``; probabilities are ``fractions.Fraction``.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from itertools import product


class CheckFailed(Exception):
    """An answer from the program disagrees with the benchmark's own value."""


def expect(label: str, got, want) -> None:
    if got != want:
        raise CheckFailed(f"{label}: got {got!r}, expected {want!r}")


# --- matches and model counting -------------------------------------------


def query_text(atoms) -> str:
    return ", ".join(f"{rel}({','.join(vs)})" for rel, vs in atoms)


def supports(atoms, facts, through=None) -> set[frozenset]:
    """Fact sets of all matches of a constant-free query, by backtracking
    over a per-relation index; only those using fact ``through`` if given."""
    by_rel = defaultdict(list)
    for fact in facts:
        by_rel[fact[0]].append(fact)
    if through is not None:
        by_rel[through[0]] = [through]
    found: set[frozenset] = set()

    def extend(k: int, binding: dict, chosen: list) -> None:
        if k == len(atoms):
            found.add(frozenset(chosen))
            return
        rel, variables = atoms[k]
        for fact in by_rel[rel]:
            new = dict(binding)
            if all(new.setdefault(v, c) == c for v, c in zip(variables, fact[1])):
                chosen.append(fact)
                extend(k + 1, new, chosen)
                chosen.pop()

    extend(0, {}, [])
    return found


def dnf_probability(clauses, prob) -> Fraction:
    """Probability that some clause has all its facts present, each fact
    present independently with ``prob[fact]``.

    Shannon expansion on the most frequent fact, with independent components
    multiplied out and sub-results cached on the clause set.
    """
    cache: dict[frozenset, Fraction] = {}

    def solve(cs: frozenset) -> Fraction:
        if not cs:
            return Fraction(0)
        if frozenset() in cs:
            return Fraction(1)
        if cs in cache:
            return cache[cs]
        parts = _components(cs)
        if len(parts) > 1:
            miss = Fraction(1)
            for part in parts:
                miss *= 1 - solve(part)
            result = 1 - miss
        else:
            counts = defaultdict(int)
            for clause in cs:
                for fact in clause:
                    counts[fact] += 1
            pivot = max(counts, key=lambda f: (counts[f], f))
            present = frozenset(c - {pivot} for c in cs)
            absent = frozenset(c for c in cs if pivot not in c)
            p = prob[pivot]
            result = p * solve(present) + (1 - p) * solve(absent)
        cache[cs] = result
        return result

    return solve(_minimal(clauses))


def _minimal(clauses) -> frozenset:
    """Drop clauses that contain another clause; they add no worlds."""
    ordered = sorted(set(clauses), key=len)
    kept: list[frozenset] = []
    for c in ordered:
        if not any(k <= c for k in kept):
            kept.append(c)
    return frozenset(kept)


def _components(cs: frozenset) -> list[frozenset]:
    groups: list[tuple[set, set]] = []  # (facts, clauses)
    for clause in cs:
        merged_facts, merged_clauses = set(clause), {clause}
        rest = []
        for facts, members in groups:
            if facts & merged_facts:
                merged_facts |= facts
                merged_clauses |= members
            else:
                rest.append((facts, members))
        groups = rest + [(merged_facts, merged_clauses)]
    return [frozenset(members) for _, members in groups]


def reliability(atoms, facts) -> int:
    """|Mod(Q, I)|: satisfying subsets of the facts."""
    half = {f: Fraction(1, 2) for f in facts}
    value = dnf_probability(supports(atoms, facts), half) * (1 << len(facts))
    if value.denominator != 1:
        raise CheckFailed(f"uniform reliability {value} is not an integer")
    return value.numerator


def probability(atoms, facts, prob) -> Fraction:
    return dnf_probability(supports(atoms, facts), prob)


def world_by_world(atoms, facts, prob) -> tuple[int, Fraction]:
    """(UR, PQE) by evaluating the query on every subset of the facts.

    Exponential in the number of facts; meant for small instances only.
    """
    facts = sorted(facts)
    satisfied = 0
    total = Fraction(0)
    for present in product((False, True), repeat=len(facts)):
        world = [f for f, keep in zip(facts, present) if keep]
        if supports(atoms, world):
            satisfied += 1
            weight = Fraction(1)
            for f, keep in zip(facts, present):
                weight *= prob[f] if keep else 1 - prob[f]
            total += weight
    return satisfied, total


# --- gadget closed forms ----------------------------------------------------


def gadget_counts(r: int, s: int, t: int) -> dict[str, int]:
    """Violating-world counts of the two gadgets, from the paper's closed forms."""
    pr, ps, pt = 1 << r, 1 << s, 1 << t
    gamma = (pt - 1) * ((pr - 1) * ps**3 + ps**2 * (ps - 1)) + (
        (pr - 1) * ps**2 * (ps - 1) + (ps - 1) ** 3
    )
    delta_r = ps * ((pt - 1) * pr * ps**2 + (pr - 1) * (ps - 1) * ps + (ps - 1) ** 2)
    delta_t = ps * ((pr - 1) * pt * ps**2 + (pt - 1) * (ps - 1) * ps + (ps - 1) ** 2)
    delta_bot = ps**2 * ((1 << (r + s + t)) - 1)
    return {
        "lam_r": (1 << (s + t)) - 1,
        "lam_rbar": 1 << (s + t),
        "lam_t": (1 << (s + r)) - 1,
        "lam_tbar": 1 << (s + r),
        "gamma": gamma,
        "delta_r": delta_r,
        "delta_t": delta_t,
        "delta_bot": delta_bot,
        "kappa": delta_r * delta_t - gamma * delta_bot,
    }


# --- bipartite graphs -------------------------------------------------------


def independent_pairs(left, right, edges) -> dict[tuple[int, int], int]:
    """X[i, j]: pairs (R', T') with |R'| = i, |T'| = j and no edge in R' x T',
    by enumerating every pair."""
    left_bit = {u: 1 << k for k, u in enumerate(left)}
    right_bit = {w: 1 << k for k, w in enumerate(right)}
    edge_bits = [(left_bit[u], right_bit[w]) for u, w in edges]
    x: dict[tuple[int, int], int] = defaultdict(int)
    for r_mask in range(1 << len(left)):
        for t_mask in range(1 << len(right)):
            if not any(r_mask & ub and t_mask & wb for ub, wb in edge_bits):
                x[(r_mask.bit_count(), t_mask.bit_count())] += 1
    return dict(x)
