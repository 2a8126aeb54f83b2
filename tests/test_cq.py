from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from qreliab.cq import (
    Atom,
    Query,
    Term,
    atoms_of,
    classify_hierarchical,
    enumerate_matches,
    noncomparable_pair_and_rst,
    parse_query,
)
from qreliab.errors import (
    ArityError,
    HierarchicalQueryError,
    QuerySyntaxError,
    SelfJoinError,
    UnknownVariableError,
)
from qreliab.instances import Fact, Instance, parse_instance


def nested_loop_matches(q, instance):
    """Reference join: every atom scans its whole relation for each partial
    assignment."""
    variables = q.variables
    results = []

    def extend(atom_idx, binding, support):
        if atom_idx == len(q.atoms):
            key = tuple(binding[v] for v in variables)
            results.append((key, frozenset(support)))
            return
        atom = q.atoms[atom_idx]
        for fact in instance.facts_of(atom.relation):
            new = dict(binding)
            ok = True
            for term, value in zip(atom.args, fact.args):
                if term.is_variable:
                    if new.setdefault(term.name, value) != value:
                        ok = False
                        break
                elif term.name != value:
                    ok = False
                    break
            if ok:
                support.append(fact)
                extend(atom_idx + 1, new, support)
                support.pop()

    extend(0, {}, [])
    results.sort(key=lambda kv: kv[0])
    return [support for _, support in results]


def test_parse_basic():
    q = parse_query("R(x), S(x,y), T(y)")
    assert [a.relation for a in q.atoms] == ["R", "S", "T"]
    assert q.variables == ("x", "y")
    assert q.schema == {"R": 1, "S": 2, "T": 1}


def test_parse_head_is_optional():
    with_head = parse_query("Q :- R(x), S(x,y)")
    without = parse_query("R(x), S(x,y)")
    assert with_head == without


def test_parse_constants():
    q = parse_query("R(x, 'abc'), S(7, x)")
    r_atom, s_atom = q.atoms
    assert not r_atom.args[1].is_variable
    assert r_atom.args[1].name == "abc"
    assert s_atom.args[0].name == "7"
    assert q.variables == ("x",)


def test_parse_whitespace_insensitive():
    assert parse_query("R( x ),S(x , y)") == parse_query("R(x), S(x,y)")


@pytest.mark.parametrize(
    "text",
    ["", "R(x,", "R x", "r(x)", "R(x) S(y)", "R(x),", "R(X)"],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(QuerySyntaxError):
        parse_query(text)


def test_parse_rejects_self_join():
    with pytest.raises(SelfJoinError):
        parse_query("R(x), R(y)")


def test_atoms_of():
    q = parse_query("R(x), S(x,y), T(y)")
    assert atoms_of(q, "x") == frozenset({0, 1})
    assert atoms_of(q, "y") == frozenset({1, 2})
    with pytest.raises(UnknownVariableError):
        atoms_of(q, "z")


def test_classify_hierarchical_cases():
    assert classify_hierarchical(parse_query("R(x), S(x,y)")).hierarchical
    assert classify_hierarchical(parse_query("R(x), T(y)")).hierarchical
    assert classify_hierarchical(parse_query("R(1)")).hierarchical
    report = classify_hierarchical(parse_query("R(x), S(x,y), T(y)"))
    assert not report.hierarchical
    assert report.witness == ("x", "y")


def test_noncomparable_pair_and_rst():
    q = parse_query("A(x,z), S(x,y), B(y,w), U(v)")
    x, y, r, s, t = noncomparable_pair_and_rst(q)
    assert (x, y) == ("x", "y")
    assert (r, s, t) == (1, 1, 1)
    with pytest.raises(HierarchicalQueryError):
        noncomparable_pair_and_rst(parse_query("R(x), S(x,y)"))


def test_rst_counts_larger_family():
    q = parse_query("R1(x), R2(x), S1(x,y), T1(y), T2(y), T3(y)")
    assert noncomparable_pair_and_rst(q)[2:] == (2, 1, 3)


def test_enumerate_matches_simple():
    q = parse_query("R(x), S(x,y)")
    i = parse_instance("R(a)\nR(b)\nS(a,c)\nS(b,c)\nS(b,d)\n")
    matches = enumerate_matches(q, i)
    assert len(matches) == 3
    assert all(len(m) == 2 for m in matches)


def test_enumerate_matches_respects_constants():
    q = parse_query("S(x, 'c')")
    i = parse_instance("S(a,c)\nS(a,d)\n")
    assert len(enumerate_matches(q, i)) == 1


def test_enumerate_matches_arity_mismatch():
    q = parse_query("R(x,y)")
    i = parse_instance("R(a)\n")
    with pytest.raises(ArityError):
        enumerate_matches(q, i)


def test_enumerate_matches_repeated_variable():
    q = parse_query("S(x,x)")
    i = parse_instance("S(a,a)\nS(a,b)\n")
    assert len(enumerate_matches(q, i)) == 1


@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3))
def test_qrst_family_classification(r, s, t):
    from qreliab.gadgets import qrst_query

    q = qrst_query(r, s, t)
    assert noncomparable_pair_and_rst(q)[2:] == (r, s, t)


def test_query_str_roundtrip():
    text = "A(x, z), S(x, y), B(y, '7w'), U(2)"
    q = parse_query(text)
    assert parse_query(str(q)) == q


_TERMS = [Term("variable", v) for v in "xyz"] + [Term("constant", c) for c in "ab"]
_CONSTANTS = "abc"


@st.composite
def _query_and_instance(draw):
    """A self-join-free query over R0..R3 (variables x, y, z, constants a, b)
    and an instance over its relations plus one the query does not use."""
    n_atoms = draw(st.integers(1, 4))
    atoms = tuple(
        Atom(f"R{i}", tuple(draw(st.lists(st.sampled_from(_TERMS), min_size=1, max_size=3))))
        for i in range(n_atoms)
    )
    schema = {a.relation: len(a.args) for a in atoms} | {"U": 1}
    candidates = [
        Fact(rel, args)
        for rel, arity in schema.items()
        for args in product(_CONSTANTS, repeat=arity)
    ]
    facts = draw(st.lists(st.sampled_from(candidates), max_size=30, unique=True))
    return Query(atoms), Instance(facts)


@settings(max_examples=300, deadline=None)
@given(_query_and_instance())
def test_enumerate_matches_matches_nested_loop(case):
    q, instance = case
    assert enumerate_matches(q, instance) == nested_loop_matches(q, instance)
