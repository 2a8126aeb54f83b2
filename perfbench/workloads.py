"""The benchmark's workloads: seeded inputs and the operation batch of each.

A workload is a fixed list of operations.  Each operation is one call into
the program (the timed part) and one checker (run afterwards, untimed) that
compares the answer with a value this benchmark computes itself (see
``checks``).  Operations are of kind ``ur`` (model counting) or ``pqe``
(probabilities); each kind feeds the end-to-end metric of the same name.

Inputs depend only on the seed and the scale.  ``full`` is the benchmark;
``tiny`` is the same operations and checkers at small sizes, for the
self-check.  Import this module only after ``program.load()``.
"""

from __future__ import annotations

import io
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import product
from typing import Callable

import qreliab
from qreliab import cli
from qreliab.bipartite import BipartiteGraph
from qreliab.instances import Fact, Instance, ProbAssignment

import checks
from checks import CheckFailed, expect

WORKLOADS = ("large-db", "count", "reduce")


class OpFailed(Exception):
    """The program returned an error instead of an answer."""


@dataclass
class Op:
    name: str
    kind: str  # "ur" | "pqe"
    call: Callable[[], object]
    # check(answer, answers of the earlier operations of the same round)
    check: Callable[[object, dict], None]
    size: int = 0  # facts in the operation's instance (large-db sweep)


def _once(cache: dict, key: str, compute: Callable[[], object]):
    """Expected values are computed at the first check and reused by later
    rounds, so they cost neither set-up nor timed time."""
    if key not in cache:
        cache[key] = compute()
    return cache[key]


def build(workload: str, seed: int, workdir: str, scale: str = "full") -> list[Op]:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "large-db":
        return _large_db(rng, workdir, scale)
    if workload == "count":
        return _count(rng, scale)
    if workload == "reduce":
        return _reduce(rng, scale)
    raise ValueError(f"unknown workload {workload!r}")


# --- large-db ----------------------------------------------------------------
#
# Hierarchical queries (safe plan) and non-hierarchical queries whose lineage
# is a few planted matches (brute force over a tiny support, so the join does
# the work), all through the command line on fact and probability files.

H1 = (("R", ("x",)), ("S", ("x", "y")))
H2 = (("R", ("x",)), ("S", ("x", "y")), ("U", ("x", "z")))
N1 = (("R", ("x",)), ("S", ("x", "y")), ("T", ("y",)))
N2 = (("R", ("x",)), ("S", ("x", "y")), ("T", ("y",)), ("V", ("y", "z")))

LARGE_SIZES = {"full": (250, 500, 1000, 2000), "tiny": (96, 192)}
PLANTED = 4  # disjoint matches planted in each small-lineage instance


def _eighths(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 7), 8)


def _rooted_facts(rng: random.Random, n: int, children: tuple[str, ...]) -> list:
    """n facts for R(x) joined with binary relations ``children`` on x.

    x ranges over n/32 values, each child's second column over n/4 values.
    The safe plan scans every child per root value, so its cost grows with
    the square of n at this fixed shape.
    """
    roots = [f"a{k}" for k in range(max(4, n // 32))]
    leaves = max(n // 4, 2 * n // len(roots))  # room for twice n facts per child
    facts = {("R", (a,)) for a in rng.sample(roots, 3 * len(roots) // 4)}
    while len(facts) < n:
        rel = rng.choice(children)
        facts.add((rel, (rng.choice(roots), f"{rel.lower()}{rng.randrange(leaves)}")))
    return sorted(facts)


def _planted_facts(rng: random.Random, n: int, atoms) -> list:
    """n facts for a chain query whose only matches are PLANTED disjoint ones.

    Noise R and S facts join on x but reach no T; noise T facts carry values
    no S fact uses, so the nested-loop join is busy and the lineage tiny.
    """
    facts = set()
    for k in range(PLANTED):
        x, y, z = f"px{k}", f"py{k}", f"pz{k}"
        values = {"x": x, "y": y, "z": z}
        facts |= {(rel, tuple(values[v] for v in vs)) for rel, vs in atoms}
    xs = [f"x{k}" for k in range(max(2, n // 4))]
    relations = [rel for rel, _ in atoms]
    while len(facts) < n:
        rel = rng.choice(relations)
        if rel == "R":
            facts.add(("R", (rng.choice(xs),)))
        elif rel == "S":
            facts.add(("S", (rng.choice(xs), f"y{rng.randrange(n)}")))
        elif rel == "T":
            facts.add(("T", (f"t{rng.randrange(n)}",)))
        else:
            facts.add((rel, (f"t{rng.randrange(n)}", f"v{rng.randrange(n)}")))
    return sorted(facts)


def _rooted_probability(atoms, facts, prob) -> Fraction:
    """Closed form for R(x) with binary children on x:
    1 - prod_a (1 - p(R(a)) * prod_child (1 - prod_b (1 - p(child(a, b)))))."""
    children = [rel for rel, _ in atoms[1:]]
    miss: dict = {}  # (a, child) -> probability that no child fact on a is present
    for fact in facts:
        if fact[0] != "R":
            key = (fact[1][0], fact[0])
            miss[key] = miss.get(key, Fraction(1)) * (1 - prob(fact))
    none = Fraction(1)
    for fact in facts:
        if fact[0] == "R":
            a = fact[1][0]
            hit = prob(fact)
            for child in children:
                hit *= 1 - miss.get((a, child), Fraction(1))
            none *= 1 - hit
    return 1 - none


def _planted_probability(atoms, facts, prob) -> Fraction:
    """1 - prod over the planted matches of (1 - product of their fact probabilities)."""
    none = Fraction(1)
    for k in range(PLANTED):
        values = {"x": f"px{k}", "y": f"py{k}", "z": f"pz{k}"}
        hit = Fraction(1)
        for rel, vs in atoms:
            hit *= prob((rel, tuple(values[v] for v in vs)))
        none *= 1 - hit
    return 1 - none


def _fact_text(fact) -> str:
    return f"{fact[0]}({','.join(fact[1])})"


def _number(label: str, output: str) -> Fraction:
    try:
        return Fraction(output.strip())
    except ValueError:
        raise CheckFailed(f"{label}: output {output!r} is not a number") from None


def _run_cli(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise OpFailed(f"qreliab {argv[0]} exited {code}: {err.getvalue().strip()}")
    return out.getvalue()


# operations per shape and size: "ur", or "pqe" with uniform 1/2 ("half"),
# per-fact ("fact") or per-relation ("rel") probabilities
LARGE_OPS = {"H1": ("ur", "fact"), "H2": ("rel",), "N1": ("ur", "half"), "N2": ("ur",)}


def _large_db(rng: random.Random, workdir: str, scale: str) -> list[Op]:
    shapes = (
        ("H1", H1, _rooted_facts, ("S",), _rooted_probability),
        ("H2", H2, _rooted_facts, ("S", "U"), _rooted_probability),
        ("N1", N1, _planted_facts, N1, _planted_probability),
        ("N2", N2, _planted_facts, N2, _planted_probability),
    )
    ops: list[Op] = []
    for n in LARGE_SIZES[scale]:
        for label, atoms, generate, arg, closed_form in shapes:
            facts = generate(rng, n, arg)
            name = f"{label}.n{n}"
            base = os.path.join(workdir, name)
            query = checks.query_text(atoms)
            argvs = {
                "ur": ["ur", query, base + ".facts"],
                "half": ["pqe", query, base + ".facts", "--uniform", "1/2"],
                "fact": ["pqe", query, base + ".facts", "--probs", base + ".fact-probs"],
                "rel": ["pqe", query, base + ".facts", "--probs", base + ".rel-probs"],
            }
            probs = {"half": lambda fact: Fraction(1, 2)}
            with open(base + ".facts", "w") as fh:
                fh.write("".join(_fact_text(f) + "\n" for f in facts))
            # No "(" in comments: the command line picks per-fact mode when
            # the file contains one.
            if "fact" in LARGE_OPS[label]:
                per_fact = {f: _eighths(rng) for f in facts}
                probs["fact"] = per_fact.__getitem__
                with open(base + ".fact-probs", "w") as fh:
                    fh.write("# per-fact probabilities\n")
                    fh.write("".join(f"{_fact_text(f)} {p}\n" for f, p in per_fact.items()))
            if "rel" in LARGE_OPS[label]:
                per_rel = {rel: Fraction(rng.randint(1, 15), 16) for rel, _ in atoms}
                probs["rel"] = lambda fact, per_rel=per_rel: per_rel[fact[0]]
                with open(base + ".rel-probs", "w") as fh:
                    fh.write("# per-relation probabilities\n")
                    fh.write("".join(f"{rel} {p}\n" for rel, p in per_rel.items()))
            for key in LARGE_OPS[label]:
                ops.append(Op(
                    f"{name}.{key}", "ur" if key == "ur" else "pqe",
                    lambda argv=argvs[key]: _run_cli(argv),
                    _large_db_check(name, atoms, facts, closed_form, key, probs), n,
                ))
    return ops


def _large_db_check(name, atoms, facts, closed_form, key, probs):
    n = len(facts)
    cache: dict = {}

    def check(answer, answers):
        got = _number(f"{name} {key}", answer)
        if key == "ur":
            want = _once(cache, key, lambda: closed_form(atoms, facts, probs["half"]) * (1 << n))
            expect(f"{name} ur", got, want)
            return
        want = _once(cache, key, lambda: closed_form(atoms, facts, probs[key]))
        expect(f"{name} pqe {key}", got, want)
        if key == "half" and f"{name}.ur" in answers:  # UR = 2^|I| * PQE(1/2)
            ur = _number(f"{name} ur", answers[f"{name}.ur"])
            expect(f"{name} ur vs pqe", ur, got * (1 << n))

    return check


# --- count -------------------------------------------------------------------
#
# #P-hard counting on small dense instances: the 2^n kernel behind
# ur_brute, the pqe_brute recursion, and the gadget world counts.

COUNT_QUERIES = {
    "q1": N1,
    "qrst121": (("R1", ("x",)), ("S1", ("x", "y")), ("S2", ("x", "y")), ("T1", ("y",))),
    "qrst212": (
        ("R1", ("x",)), ("R2", ("x",)), ("S1", ("x", "y")), ("T1", ("y",)), ("T2", ("y",)),
    ),
    "asbu": (("A", ("x", "z")), ("S", ("x", "y")), ("B", ("y", "w")), ("U", ("v",))),
}
# Instance shapes: the "counted" instances (18 support facts at full scale)
# and the "small" one that is also checked world by world.  "x" and "y" are
# the numbers of x and y values that take part in matches; every other key is
# a relation's number of facts, all of them in some match.  The x-y pairs of
# the (x,y) relations cover every x and y value.  Unary relations on x or y
# have one fact per value; binary ones on x or y spread their facts over the
# values, and relations on another variable alone use distinct values.
COUNT_SHAPE = {
    "full": {
        "q1": (
            {"x": 4, "y": 4, "R": 4, "S": 10, "T": 4},
            {"x": 3, "y": 3, "R": 3, "S": 5, "T": 3},
        ),
        "qrst121": (
            {"x": 3, "y": 3, "R1": 3, "S1": 6, "S2": 6, "T1": 3},
            {"x": 2, "y": 3, "R1": 2, "S1": 3, "S2": 3, "T1": 3},
        ),
        "qrst212": (
            {"x": 3, "y": 3, "R1": 3, "R2": 3, "S1": 6, "T1": 3, "T2": 3},
            {"x": 2, "y": 2, "R1": 2, "R2": 2, "S1": 3, "T1": 2, "T2": 2},
        ),
        "asbu": (  # 16 matches: 4 A facts over 3 x values times 4 B facts over 3 y values
            {"x": 3, "y": 3, "A": 4, "S": 9, "B": 4, "U": 1},
            {"x": 2, "y": 2, "A": 2, "S": 4, "B": 2, "U": 3},
        ),
    },
    "tiny": {
        "q1": (
            {"x": 2, "y": 2, "R": 2, "S": 4, "T": 2},
            {"x": 2, "y": 2, "R": 2, "S": 2, "T": 2},
        ),
        "qrst121": (
            {"x": 2, "y": 2, "R1": 2, "S1": 2, "S2": 2, "T1": 2},
            {"x": 1, "y": 1, "R1": 1, "S1": 1, "S2": 1, "T1": 1},
        ),
        "qrst212": (
            {"x": 1, "y": 2, "R1": 1, "R2": 1, "S1": 2, "T1": 2, "T2": 2},
            {"x": 1, "y": 1, "R1": 1, "R2": 1, "S1": 1, "T1": 1, "T2": 1},
        ),
        "asbu": (
            {"x": 2, "y": 2, "A": 2, "S": 3, "B": 2, "U": 1},
            {"x": 1, "y": 1, "A": 1, "S": 1, "B": 1, "U": 2},
        ),
    },
}
COUNTED = 3  # counted instances per query; each gets "ur" and one probability mode
MODES = ("half", "fact", "rel")
GADGET_RST = {
    "full": ((2, 4, 2), (3, 3, 3), (1, 5, 1), (3, 4, 2)),
    "tiny": ((1, 1, 1), (1, 2, 1)),
}


def _dense_instance(rng: random.Random, atoms, shape: dict[str, int], k: int) -> list:
    """The k-th instance of ``shape`` (see COUNT_SHAPE), plus one fact of the
    first atom on values no match uses.

    The structure depends on the shape and on k only: k picks which x-y
    pairs beyond the covering diagonal are taken, and which values carry
    the extra facts of a binary relation on x or y.  The seed picks the
    constant names, in an order-preserving way, so the sorted support facts,
    their bitmasks and with them the program's work are the same for every
    seed.
    """
    a, b = shape["x"], shape["y"]
    cover = [(i % a, i % b) for i in range(max(a, b))]
    rest = [(i, j) for i in range(a) for j in range(b) if (i, j) not in cover]
    shift = k % len(rest) if rest else 0
    spans = {"x": a, "y": b}
    cells = {rel: shape[rel] for rel, vs in atoms if vs == ("x", "y")}
    if len(set(cells.values())) != 1 or not len(cover) <= min(cells.values()) <= a * b:
        raise ValueError(f"no cells for {checks.query_text(atoms)} with shape {shape}")
    pairs = cover + (rest[shift:] + rest[:shift])[: min(cells.values()) - len(cover)]

    def degrees(rel: str, n: int) -> list[int]:
        count = shape[rel]
        return [count // n + ((i - k) % n < count % n) for i in range(n)]

    facts = []  # (relation, index tuple); names come last
    for rel, vs in atoms:
        if vs == ("x", "y"):
            facts += [(rel, pair) for pair in pairs]
        elif vs[0] in spans and len(vs) <= 2:
            for i, d in enumerate(degrees(rel, spans[vs[0]])):
                facts += [(rel, (i, j)[: len(vs)]) for j in range(d)]
        elif len(vs) == 1:
            facts += [(rel, (j,)) for j in range(shape[rel])]
        else:
            raise ValueError(f"atom {rel}{vs} is not of a supported form")
    if len(set(facts)) != len(facts):
        raise ValueError(f"shape {shape} repeats a fact of {checks.query_text(atoms)}")
    variables = dict(atoms)
    sizes: dict[str, int] = {}
    for rel, index in facts:
        for v, i in zip(variables[rel], index):
            sizes[v] = max(sizes.get(v, 0), i + 1)
    # one more value per variable, the largest, for the fact outside every match
    names = {
        v: [f"{v}{m:02d}" for m in sorted(rng.sample(range(100), n + 1))]
        for v, n in sizes.items()
    }
    named = [(rel, tuple(names[v][i] for v, i in zip(variables[rel], index))) for rel, index in facts]
    rel, vs = atoms[0]
    return sorted(named) + [(rel, tuple(names[v][-1] for v in vs))]


def _count(rng: random.Random, scale: str) -> list[Op]:
    ops: list[Op] = []
    for qname, atoms in COUNT_QUERIES.items():
        query = qreliab.parse_query(checks.query_text(atoms))
        counted, small = COUNT_SHAPE[scale][qname]
        for k in range(COUNTED):
            facts = _dense_instance(rng, atoms, counted, k)
            # the first counted instance also gets the metamorphic operations
            ops += _count_ops(rng, f"{qname}.c{k}", atoms, query, facts, (MODES[k % 3],), k == 0)
        facts = _dense_instance(rng, atoms, small, 0)
        ops += _count_ops(rng, f"{qname}.small", atoms, query, facts, MODES, False, by_world=True)
    for r, s, t in GADGET_RST[scale]:
        ops.append(_gadget_op(r, s, t))
    return ops


def _instance(facts) -> Instance:
    return Instance(Fact(rel, args) for rel, args in facts)


def _count_ops(rng, name, atoms, query, facts, modes, metamorphic, by_world=False) -> list[Op]:
    """ur_brute and pqe_brute (per mode) on one instance.  ``metamorphic``
    adds ur_brute with a fresh fact (doubles UR) and with renamed constants
    (keeps UR).  Answers are checked against the benchmark's own model
    counter, or world by world when ``by_world``."""
    n = len(facts)
    inst = _instance(facts)
    half = {f: Fraction(1, 2) for f in facts}
    per_fact = {f: _eighths(rng) for f in facts}
    per_rel = {rel: Fraction(rng.randint(1, 15), 16) for rel in sorted({r for r, _ in facts})}
    probs = {
        "half": (ProbAssignment.uniform(Fraction(1, 2)), half),
        "fact": (ProbAssignment.for_facts({Fact(*f): p for f, p in per_fact.items()}), per_fact),
        "rel": (ProbAssignment.for_relations(per_rel), {f: per_rel[f[0]] for f in facts}),
    }

    def want_ur(cache):
        if by_world:
            return _once(cache, "half", lambda: checks.world_by_world(atoms, facts, half))[0]
        return _once(cache, "ur", lambda: checks.reliability(atoms, facts))

    def want_pqe(cache, key):
        prob = probs[key][1]
        if by_world:
            return _once(cache, key, lambda: checks.world_by_world(atoms, facts, prob))[1]
        return _once(cache, key, lambda: checks.probability(atoms, facts, prob))

    def check_ur(answer, _answers, cache):
        expect(f"{name} ur", answer, want_ur(cache))

    def check_pqe(key):
        def check(answer, answers, cache):
            expect(f"{name} pqe {key}", answer, want_pqe(cache, key))
            if key == "half" and f"{name}.ur" in answers:  # UR = 2^|I| * PQE(1/2)
                expect(f"{name} ur vs pqe", Fraction(answers[f"{name}.ur"]), answer * (1 << n))

        return check

    def check_grown(answer, answers, cache):
        if f"{name}.ur" in answers:
            expect(f"{name} fresh fact doubles ur", answer, 2 * answers[f"{name}.ur"])
        expect(f"{name} ur with a fresh fact", answer, 2 * want_ur(cache))

    def check_renamed(answer, answers, cache):
        if f"{name}.ur" in answers:
            expect(f"{name} renaming keeps ur", answer, answers[f"{name}.ur"])
        expect(f"{name} ur after renaming", answer, want_ur(cache))

    specs = [("ur", "ur", lambda: qreliab.ur_brute(query, inst), check_ur)]
    for key in modes:
        assignment = probs[key][0]
        specs.append(
            ("pqe", key, lambda a=assignment: qreliab.pqe_brute(query, inst, a), check_pqe(key))
        )
    if metamorphic:
        # a fact of a query relation on constants no other fact uses
        rel, vs = atoms[0]
        grown = _instance(facts + [(rel, tuple(f"fresh{k}" for k in range(len(vs))))])
        # a renaming of every constant that reverses their order
        constants = sorted({c for _, args in facts for c in args})
        rename = {c: f"k{len(constants) - m:03d}" for m, c in enumerate(constants)}
        renamed = _instance([(r, tuple(rename[c] for c in args)) for r, args in facts])
        specs.append(("ur", "grown", lambda: qreliab.ur_brute(query, grown), check_grown))
        specs.append(("ur", "renamed", lambda: qreliab.ur_brute(query, renamed), check_renamed))
    # each operation caches its own expected values
    return [
        Op(f"{name}.{suffix}", kind, call, partial(check, cache={}))
        for kind, suffix, call, check in specs
    ]


def _gadget_op(r: int, s: int, t: int) -> Op:
    name = f"gadgets.rst{r}{s}{t}"

    def check(answer, _answers):
        want = checks.gadget_counts(r, s, t)
        for key, value in want.items():
            expect(f"{name} {key}", getattr(answer, key), value)

    return Op(name, "ur", lambda: qreliab.brute_counts(r, s, t), check)


# --- reduce ------------------------------------------------------------------
#
# Both #BIS-pair reductions end to end.  run_reduction with the analytic
# oracle: graphs with M <= 40 take the exact Fraction solver, the others the
# two-prime modular solver.  run_reduction_pqe with the formula oracle on a
# random 6+6 graph and with the brute oracle on 2+2 and 2+3 graphs (a 3+3
# graph takes about 7 s there, more than a round can hold).

REDUCE_PLAN = {
    # (left, right, edges, (r, s, t)) for run_reduction
    "ur": {
        "full": (
            (1, 1, 1, (1, 2, 1)),  # M = 32, exact
            (1, 1, 1, (3, 1, 3)),  # M = 32, exact
            (3, 3, 0, (2, 2, 2)),  # M = 16, exact
            (1, 2, 1, (2, 1, 1)),  # M = 48, modular
            (2, 2, 2, (1, 1, 1)),  # M = 243, modular
        ),
        "tiny": ((1, 1, 1, (1, 1, 1)), (2, 1, 0, (1, 1, 1)), (1, 2, 1, (1, 1, 1))),
    },
    # (left, right, edges, oracle) for run_reduction_pqe
    "pqe": {
        "full": ((6, 6, 8, "formula"), (2, 2, 2, "brute"), (2, 3, 2, "brute")),
        "tiny": ((3, 3, 3, "formula"), (2, 2, 1, "brute")),
    },
}


def _graph(rng: random.Random, n_left: int, n_right: int, m: int):
    """A graph with random vertex names.  Up to min(n_left, n_right) edges
    form a matching, so the work does not depend on the seed; more edges are
    placed at random.  Names are alphanumeric: the fact grammar accepts them."""
    left = [f"u{k}" for k in rng.sample(range(100), n_left)]
    right = [f"w{k}" for k in rng.sample(range(100), n_right)]
    if m <= min(n_left, n_right):
        return left, right, list(zip(left, right))[:m]
    pairs = [(u, w) for u in left for w in right]
    return left, right, sorted(rng.sample(pairs, m))


def _reduce(rng: random.Random, scale: str) -> list[Op]:
    ops: list[Op] = []
    for n_left, n_right, m, (r, s, t) in REDUCE_PLAN["ur"][scale]:
        left, right, edges = _graph(rng, n_left, n_right, m)
        g = BipartiteGraph.build(left, right, edges)
        name = f"reduce_ur.{n_left}x{n_right}e{m}.rst{r}{s}{t}"

        def check_ur(run, _answers, left=left, right=right, edges=edges, name=name):
            want = sum(checks.independent_pairs(left, right, edges).values())
            expect(f"{name} P", run.p_result, want)

        ops.append(Op(name, "ur", lambda g=g, r=r, s=s, t=t: qreliab.run_reduction(g, r, s, t), check_ur))
    for n_left, n_right, m, oracle in REDUCE_PLAN["pqe"][scale]:
        left, right, edges = _graph(rng, n_left, n_right, m)
        g = BipartiteGraph.build(left, right, edges)
        r, t = Fraction(rng.randint(1, 2), 3), Fraction(rng.randint(1, 2), 3)
        name = f"reduce_pqe.{n_left}x{n_right}e{m}.{oracle}"

        def check_pqe(run, _answers, left=left, right=right, edges=edges, name=name):
            want = checks.independent_pairs(left, right, edges)
            for i in range(len(left) + 1):
                for j in range(len(right) + 1):
                    expect(f"{name} X[{i},{j}]", run.x[(i, j)], want.get((i, j), 0))
            expect(f"{name} P", run.p_result, sum(want.values()))

        ops.append(Op(
            name, "pqe",
            lambda g=g, r=r, t=t, oracle=oracle: qreliab.run_reduction_pqe(g, r, t, oracle=oracle),
            check_pqe,
        ))
    return ops
