from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from qreliab.cq import Atom, Query, Term, classify_hierarchical, parse_query
from qreliab.errors import CapExceededError, NonHierarchicalQueryError, UsageError
from qreliab.evaluate import (
    pqe_brute,
    pqe_safe,
    rewrite_prob1,
    ur_brute,
    ur_safe,
)
from qreliab.gadgets import q1_query
from qreliab.instances import Fact, Instance, ProbAssignment, parse_instance

Q1 = q1_query()
HALF = ProbAssignment.uniform(Fraction(1, 2))


def test_ur_brute_single_triangle():
    i = parse_instance("R(a)\nS(a,b)\nT(b)\n")
    # exactly the worlds containing all three facts
    assert ur_brute(Q1, i) == 1


def test_ur_brute_five_fact_instance():
    i = parse_instance("R(a)\nR(b)\nS(a,c)\nS(b,c)\nT(c)\n")
    assert ur_brute(Q1, i) == 7


def test_ur_brute_no_match():
    i = parse_instance("R(a)\nT(b)\n")
    assert ur_brute(Q1, i) == 0


def test_ur_brute_free_facts_double():
    base = parse_instance("R(a)\nS(a,b)\nT(b)\n")
    extra = parse_instance("R(a)\nS(a,b)\nT(b)\nT(zzz)\n")
    assert ur_brute(Q1, extra) == 2 * ur_brute(Q1, base)


def test_ur_brute_cap():
    facts = "".join(f"R(c{i})\nS(c{i},d)\n" for i in range(20)) + "T(d)\n"
    with pytest.raises(CapExceededError):
        ur_brute(Q1, parse_instance(facts), cap=20)


def test_ur_brute_cap_bounds_the_widest_component():
    # 20 disjoint triangles: 60 support facts, but no component wider than 3.
    facts = "".join(f"R(c{i})\nS(c{i},d{i})\nT(d{i})\n" for i in range(20))
    i = parse_instance(facts)
    assert ur_brute(Q1, i) == 2**60 - 7**20
    with pytest.raises(CapExceededError) as err:
        ur_brute(Q1, i, cap=2)
    assert err.value.required == 3


def test_pqe_brute_uniform_half():
    i = parse_instance("R(a)\nS(a,b)\nT(b)\n")
    assert pqe_brute(Q1, i, HALF) == Fraction(1, 8)


def test_pqe_brute_certain_facts_not_enumerated():
    i = parse_instance("R(a)\nS(a,b)\nT(b)\n")
    phi = ProbAssignment.for_relations(
        {"R": Fraction(1, 3), "S": Fraction(1), "T": Fraction(1, 2)}
    )
    assert pqe_brute(Q1, i, phi, cap=2) == Fraction(1, 6)


def test_pqe_brute_empty_instance():
    assert pqe_brute(Q1, Instance(), HALF) == 0


def test_pqe_brute_certain_match():
    i = parse_instance("R(a)\nS(a,b)\nT(b)\n")
    assert pqe_brute(Q1, i, ProbAssignment.uniform(Fraction(1))) == 1


def test_pqe_safe_requires_hierarchical():
    with pytest.raises(NonHierarchicalQueryError):
        pqe_safe(Q1, Instance(), HALF)


def test_pqe_safe_simple_join():
    q = parse_query("R(x), S(x,y)")
    i = parse_instance("R(a)\nS(a,b)\nS(a,c)\n")
    # P = r * (1 - (1-s)^2) with r = s = 1/2
    assert pqe_safe(q, i, HALF) == Fraction(1, 2) * Fraction(3, 4)
    assert pqe_safe(q, i, HALF) == pqe_brute(q, i, HALF)


def test_pqe_safe_cross_product():
    q = parse_query("R(x), T(y)")
    i = parse_instance("R(a)\nT(b)\nT(c)\n")
    assert pqe_safe(q, i, HALF) == Fraction(1, 2) * Fraction(3, 4)


def test_pqe_safe_ground_atom():
    q = parse_query("R('a')")
    i = parse_instance("R(a)\nR(b)\n")
    phi = ProbAssignment.uniform(Fraction(2, 3))
    assert pqe_safe(q, i, phi) == Fraction(2, 3)
    assert pqe_safe(q, parse_instance("R(b)\n"), phi) == 0


def test_pqe_safe_nested_hierarchy():
    q = parse_query("S(x,y), U(x,y,z)")
    i = parse_instance("S(a,b)\nU(a,b,c)\nU(a,b,d)\nS(a,c)\n")
    assert pqe_safe(q, i, HALF) == pqe_brute(q, i, HALF)


def test_ur_safe_matches_brute():
    q = parse_query("R(x), S(x,y)")
    i = parse_instance("R(a)\nR(b)\nS(a,c)\nS(b,d)\n")
    assert ur_safe(q, i) == ur_brute(q, i)


def test_rewrite_prob1_drops_dangling_edges():
    i = parse_instance("R(a)\nS(a,b)\nS(a,c)\nT(b)\n")
    r, s = Fraction(1, 2), Fraction(1, 3)
    # S(a,c) has no T(c): only S(a,b) can contribute.
    assert rewrite_prob1(i, r, s) == r * s


def test_rewrite_prob1_matches_brute():
    i = parse_instance("R(a)\nR(b)\nS(a,b)\nS(b,b)\nS(b,c)\nT(b)\nT(c)\n")
    r, s = Fraction(2, 5), Fraction(3, 7)
    phi = ProbAssignment.for_relations({"R": r, "S": s, "T": Fraction(1)})
    assert rewrite_prob1(i, r, s) == pqe_brute(Q1, i, phi)


def test_brute_cap_env_override(monkeypatch):
    facts = "".join(f"R(c{i})\nS(c{i},d)\n" for i in range(8)) + "T(d)\n"
    i = parse_instance(facts)
    monkeypatch.setenv("QRELIAB_BRUTE_CAP", "8")
    with pytest.raises(CapExceededError):
        ur_brute(Q1, i)
    monkeypatch.setenv("QRELIAB_BRUTE_CAP", "20")
    assert ur_brute(Q1, i) > 0


@pytest.mark.parametrize("value", ["abc", "-3", "2.5"])
def test_brute_cap_env_rejects_bad_values(monkeypatch, value):
    i = parse_instance("R(a)\nS(a,b)\nT(b)\n")
    monkeypatch.setenv("QRELIAB_BRUTE_CAP", value)
    with pytest.raises(UsageError, match="QRELIAB_BRUTE_CAP"):
        ur_brute(Q1, i)


# A hierarchical query is a set of atoms whose variables are each a chain
# from a root of this forest: x > y > z and w > v.
_PARENT = {"x": None, "y": "x", "z": "y", "w": None, "v": "w"}
_CONSTANTS = "abc"
_PROBS = [Fraction(1, 3), Fraction(1, 2), Fraction(5, 7), Fraction(1)]


def _chain(node):
    chain = []
    while node is not None:
        chain.insert(0, node)
        node = _PARENT[node]
    return chain


@st.composite
def _atom(draw, relation):
    variables = _chain(draw(st.sampled_from([None, *_PARENT])))
    args = [Term("variable", v) for v in draw(st.permutations(variables))]
    if variables and draw(st.integers(0, 2)) == 0:  # a repeated variable, as in R(x,x)
        args.insert(draw(st.integers(0, len(args))), Term("variable", draw(st.sampled_from(variables))))
    if not args or draw(st.integers(0, 3)) == 0:  # a query constant
        args.insert(draw(st.integers(0, len(args))), Term("constant", draw(st.sampled_from("ab"))))
    return Atom(relation, tuple(args))


@st.composite
def _hierarchical_case(draw, max_noise=8):
    """A hierarchical query of up to four atoms, up to three levels deep, and
    an instance over its relations (some possibly empty) plus an unused one:
    part of the facts of a few planted matches, and random facts."""
    atoms = tuple(draw(_atom(f"R{i}")) for i in range(draw(st.integers(1, 4))))
    assignments = draw(st.lists(
        st.fixed_dictionaries({v: st.sampled_from(_CONSTANTS) for v in _PARENT}), min_size=1, max_size=4
    ))
    planted = sorted({
        Fact(a.relation, tuple(values[t.name] if t.is_variable else t.name for t in a.args))
        for values in assignments
        for a in atoms
    })
    schema = {a.relation: len(a.args) for a in atoms} | {"U": 1}
    candidates = [
        Fact(rel, args) for rel, arity in schema.items() for args in product(_CONSTANTS, repeat=arity)
    ]
    facts = [f for f in planted if draw(st.integers(0, 3))]
    facts += draw(st.lists(st.sampled_from(candidates), max_size=max_noise))
    return Query(atoms), Instance(facts)


@settings(max_examples=300, deadline=None)
@given(_hierarchical_case(), st.data())
def test_pqe_safe_matches_brute_on_generated_queries(case, data):
    q, instance = case
    assert classify_hierarchical(q).hierarchical
    probs = ProbAssignment.for_facts(
        {f: data.draw(st.sampled_from(_PROBS)) for f in sorted(instance.facts)}
    )
    assert pqe_safe(q, instance, probs) == pqe_brute(q, instance, probs)
    assert ur_safe(q, instance) == ur_brute(q, instance)


@settings(max_examples=100, deadline=None)
@given(_hierarchical_case(max_noise=30), st.permutations(["k0", "k1", "k2"]))
def test_ur_safe_invariant_under_renaming_constants(case, names):
    q, instance = case
    rename = dict(zip(_CONSTANTS, names))
    renamed_query = Query(tuple(
        Atom(a.relation, tuple(t if t.is_variable else Term("constant", rename[t.name]) for t in a.args))
        for a in q.atoms
    ))
    renamed = Instance(Fact(f.relation, tuple(rename[c] for c in f.args)) for f in instance.facts)
    assert ur_safe(renamed_query, renamed) == ur_safe(q, instance)


def test_ur_safe_three_levels_closed_form():
    """R(x), S(x,y), T(x,y,z) on 20,000 facts of varying fan-out, with R facts
    lacking S facts, S facts lacking T facts and T facts lacking an S fact."""
    facts = []
    false_worlds = 1  # worlds without a match, a product over the x values
    i = 0
    while len(facts) < 20_000:
        a = f"a{i}"
        has_r = i % 5 != 0
        if has_r:
            facts.append(Fact("R", (a,)))
        group = 1 if has_r else 0  # facts on x = a
        all_false = 1  # worlds of the S and T facts on a with no (a, b) branch true
        for j in range(i % 4):
            b = f"b{j}"
            t = (i + j) % 3  # T facts under (a, b)
            facts += [Fact("T", (a, b, f"c{k}")) for k in range(t)]
            group += t
            if (i + j) % 7 == 0:  # the T facts dangle: no S(a, b)
                all_false *= 1 << t
            else:
                facts.append(Fact("S", (a, b)))
                group += 1
                all_false *= (1 << (t + 1)) - ((1 << t) - 1)
        if has_r:  # false unless R(a) is present and some branch is true
            false_worlds *= (1 << group) - ((1 << (group - 1)) - all_false)
        else:
            false_worlds *= 1 << group
        i += 1
    q = parse_query("R(x), S(x,y), T(x,y,z)")
    instance = Instance(facts)
    assert len(instance) == len(facts)
    assert ur_safe(q, instance) == (1 << len(facts)) - false_worlds
