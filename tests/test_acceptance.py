"""Acceptance suite: one test per criterion, every equality exact.

With ``pytest -v`` each criterion reports as a single pass/fail line.
Random inputs use fixed seeds so every run checks the same cases.
"""

import itertools
import random
from dataclasses import replace
from fractions import Fraction

from qreliab.bipartite import BipartiteGraph, independent_pair_count
from qreliab.cq import Atom, Query, Term, classify_hierarchical, parse_query
from qreliab.evaluate import (
    pqe_brute,
    pqe_safe,
    rewrite_prob1,
    ur_brute,
    ur_safe,
)
from qreliab.gadgets import (
    brute_counts,
    closed_counts,
    count_violating,
    q1_query,
    qrst_query,
    v2,
)
from qreliab.instances import Fact, Instance, ProbAssignment
from qreliab.reduction_ur import (
    alpha_coefficient,
    build_Dp,
    lemma_binary_transform,
    merge_power2,
    reduction_params,
    run_reduction,
)
from qreliab.reduction_pqe import pi_value, run_reduction_pqe

EDGE = BipartiteGraph.build(["u"], ["w"], [("u", "w")])


def _random_query(rng: random.Random, max_atoms: int = 4) -> Query:
    n_atoms = rng.randint(1, max_atoms)
    relations = rng.sample(["A", "B", "C", "D", "E", "F"], n_atoms)
    atoms = []
    for relation in relations:
        args = []
        for _ in range(rng.randint(1, 2)):
            if rng.random() < 0.15:
                args.append(Term("constant", rng.choice(["a", "b"])))
            else:
                args.append(Term("variable", rng.choice(["x", "y", "z"])))
        atoms.append(Atom(relation, tuple(args)))
    return Query(tuple(atoms))


def _random_instance(
    rng: random.Random, schema: dict[str, int], max_facts: int = 12
) -> Instance:
    constants = ["a", "b", "c", "d"]
    budget = max_facts // len(schema)
    facts = []
    for relation, arity in schema.items():
        for _ in range(rng.randint(0, budget)):
            facts.append(
                Fact(relation, tuple(rng.choice(constants) for _ in range(arity)))
            )
    return Instance(facts)


def _random_probs(rng: random.Random, instance: Instance) -> ProbAssignment:
    return ProbAssignment.for_facts(
        {
            f: Fraction(rng.randint(1, 8), 8) for f in instance.facts
        }
    )


def _graphs(max_left: int, max_right: int, max_edges: int | None):
    for n_left in range(max_left + 1):
        for n_right in range(max_right + 1):
            left = [f"u{k + 1}" for k in range(n_left)]
            right = [f"w{k + 1}" for k in range(n_right)]
            possible = [(u, w) for u in left for w in right]
            top = len(possible) if max_edges is None else min(max_edges, len(possible))
            for size in range(top + 1):
                for combo in itertools.combinations(possible, size):
                    yield BipartiteGraph.build(left, right, combo)


def test_criterion_1_gadget_closed_forms_vs_brute():
    triples = [(r, s, t) for r in (1, 2) for s in (1, 2) for t in (1, 2)]
    triples += [(3, 1, 1), (1, 1, 3)]
    for r, s, t in triples:
        assert brute_counts(r, s, t) == closed_counts(r, s, t), (r, s, t)
    base = closed_counts(1, 1, 1)
    assert (base.gamma, base.delta_r, base.delta_t, base.delta_bot) == (
        17,
        22,
        22,
        28,
    )


def test_criterion_2_count_identities_on_cube():
    for r in range(1, 7):
        for s in range(1, 7):
            for t in range(1, 7):
                cc = closed_counts(r, s, t)
                assert cc.gamma % 2 == 1
                assert v2(cc.delta_r) == s
                assert v2(cc.delta_t) == s
                assert v2(cc.delta_bot) == 2 * s
                expected = ((1 << r) - 1) * ((1 << t) - 1) * (1 << (3 * s))
                assert cc.delta_r * cc.delta_t - cc.gamma * cc.delta_bot == expected
    assert closed_counts(1, 1, 1).kappa == 8


def test_criterion_3_safe_plan_matches_brute():
    rng = random.Random(20240301)
    checked = 0
    while checked < 200:
        q = _random_query(rng)
        if not classify_hierarchical(q).hierarchical:
            continue
        i = _random_instance(rng, q.schema)
        assert ur_safe(q, i) == ur_brute(q, i), (str(q), i.serialize())
        phi = _random_probs(rng, i)
        assert pqe_safe(q, i, phi) == pqe_brute(q, i, phi), (str(q), i.serialize())
        checked += 1


def test_criterion_4_uniform_identity():
    rng = random.Random(20240402)
    half = ProbAssignment.uniform(Fraction(1, 2))
    for _ in range(200):
        q = _random_query(rng)
        i = _random_instance(rng, q.schema)
        assert pqe_brute(q, i, half) * (1 << len(i)) == ur_brute(q, i)


def test_criterion_5_per_pair_count_downsized():
    params = replace(reduction_params(EDGE, 1, 1, 1), M1=1, M2=1, M3=1)
    counts = closed_counts(1, 1, 1)
    query = qrst_query(1, 1, 1)
    d1 = build_Dp(EDGE, 1, 1, 1, 1, params)
    assert len(d1) == 13
    r_fact, t_fact = Fact("R1", ("u",)), Fact("T1", ("w",))

    total = 0
    for keep_r in (False, True):
        for keep_t in (False, True):
            present = [f for f, k in ((r_fact, keep_r), (t_fact, keep_t)) if k]
            absent = [f for f, k in ((r_fact, keep_r), (t_fact, keep_t)) if not k]
            brute = count_violating(
                d1, query, forced_present=present, forced_absent=absent
            )
            i, j = int(keep_r), int(keep_t)
            c = int(keep_r and keep_t)
            d = int(keep_r and not keep_t)
            dp = int(keep_t and not keep_r)
            predicted = alpha_coefficient((i, j, c, d, dp), counts, params)
            assert brute == predicted, (keep_r, keep_t)
            total += brute
    assert total == (1 << len(d1)) - ur_brute(query, d1)

    d0 = build_Dp(EDGE, 1, 1, 1, 0, params)
    assert (1 << len(d0)) - ur_brute(query, d0) == 4


def test_criterion_6_main_reduction_end_to_end():
    for g in _graphs(2, 2, 2):
        expected = independent_pair_count(g)
        for rst in [(1, 1, 1), (2, 1, 1), (1, 2, 1), (1, 1, 2)]:
            # run_reduction raises QReliabError ("no solver prime ...") if
            # some factor's nodes collide, or are undefined, modulo every
            # listed solver prime
            run = run_reduction(g, *rst, oracle="analytic")
            assert run.p_result == expected, (g, rst)


def test_criterion_7_pqe_reduction_end_to_end():
    half = Fraction(1, 2)
    assert pi_value(EDGE, 0, 0, half, half) == Fraction(3, 4)
    assert pi_value(EDGE, 1, 1, half, half) == Fraction(1, 2)
    probs = [Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)]
    for g in _graphs(2, 2, None):
        expected = independent_pair_count(g)
        for r in probs:
            for t in probs:
                run = run_reduction_pqe(g, r, t, oracle="brute")
                assert run.p_result == expected, (g, r, t)


def test_criterion_8_transforms():
    rng = random.Random(20240808)
    transform_q = parse_query("A(x,z), S(x,y), B(y,w), U(v)")
    q111 = qrst_query(1, 1, 1)
    for _ in range(100):
        i = _random_instance(rng, q111.schema, max_facts=9)
        mapped = lemma_binary_transform(transform_q, i)
        assert ur_brute(q111, i) == ur_brute(transform_q, mapped)

    for family in (qrst_query(2, 1, 1), qrst_query(1, 2, 2)):
        for _ in range(100):
            i = _random_instance(rng, family.schema, max_facts=12)
            merged, phi = merge_power2(family, i)
            lhs = ur_brute(family, i)
            rhs = (1 << len(i)) * pqe_brute(q1_query(), merged, phi)
            assert lhs == rhs

    q1_schema = {"R": 1, "S": 2, "T": 1}
    for _ in range(100):
        i = _random_instance(rng, q1_schema, max_facts=9)
        r = Fraction(rng.randint(1, 7), 8)
        s = Fraction(rng.randint(1, 7), 8)
        phi = ProbAssignment.for_relations({"R": r, "S": s, "T": Fraction(1)})
        assert rewrite_prob1(i, r, s) == pqe_brute(q1_query(), i, phi)
