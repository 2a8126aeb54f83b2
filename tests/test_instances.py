import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from qreliab.errors import ArityError, InstanceFormatError, ProbabilityError
from qreliab.instances import (
    Fact,
    Instance,
    ProbAssignment,
    fresh_constant,
    parse_instance,
    parse_prob_map,
)


def test_parse_and_serialize_sorted():
    text = "T(b)\nR(a)\n# comment\n\nS(a,b)\n"
    i = parse_instance(text)
    assert i.serialize() == "R(a)\nS(a,b)\nT(b)\n"


def test_parse_rejects_garbage():
    with pytest.raises(InstanceFormatError):
        parse_instance("not a fact\n")
    with pytest.raises(InstanceFormatError):
        parse_instance("R(a b)\n")


def test_parse_schema_validation():
    with pytest.raises(InstanceFormatError):
        parse_instance("R(a)\n", schema={"S": 1})
    with pytest.raises(ArityError):
        parse_instance("R(a,b)\n", schema={"R": 1})


def test_mixed_arity_rejected():
    with pytest.raises(ArityError):
        Instance([Fact("R", ("a",)), Fact("R", ("a", "b"))])


def test_instance_set_semantics():
    i = Instance([Fact("R", ("a",)), Fact("R", ("a",))])
    assert len(i) == 1
    assert Fact("R", ("a",)) in i


def test_facts_of_and_union():
    i = parse_instance("R(a)\nS(a,b)\n")
    j = parse_instance("R(b)\n")
    assert [f.args for f in i.facts_of("R")] == [("a",)]
    assert len(i.union(j)) == 3
    assert i.arity_of("S") == 2
    assert i.arity_of("Z") is None


_constants = st.text(
    alphabet="ab1.@_", min_size=1, max_size=4
).filter(lambda s: s.strip())


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["R", "S", "Tx"]),
            st.lists(_constants, min_size=2, max_size=2),
        ),
        max_size=8,
    )
)
def test_serialize_parse_roundtrip(raw):
    i = Instance([Fact(rel, tuple(args)) for rel, args in raw])
    assert parse_instance(i.serialize()) == i


def test_prob_map_per_relation():
    phi = parse_prob_map("R 1/2\nS 1\n", "per-relation")
    assert phi.prob_of(Fact("R", ("a",))) == Fraction(1, 2)
    assert phi.prob_of(Fact("S", ("a", "b"))) == 1
    with pytest.raises(ProbabilityError):
        phi.prob_of(Fact("T", ("b",)))


def test_prob_map_per_fact():
    phi = parse_prob_map("R(a) 1/3\nS(a,b) 2/3\n", "per-fact")
    assert phi.prob_of(Fact("S", ("a", "b"))) == Fraction(2, 3)
    with pytest.raises(ProbabilityError):
        phi.prob_of(Fact("R", ("b",)))


@pytest.mark.parametrize("line", ["R(a-1) 1/5", "S(a, ) 1/2", "S(a,b c) 1/2"])
def test_prob_map_per_fact_rejects_bad_constant(line):
    with pytest.raises(ProbabilityError, match="line 2: bad constant"):
        parse_prob_map(f"R(a) 1/3\n{line}\n", "per-fact")


@pytest.mark.parametrize(
    "text, mode, target",
    [
        ("R(a) 1/2\nS(a,b) 1\n# again\nR( a ) 1/3\n", "per-fact", "R(a)"),
        ("R 1/2\nS 1\n\nR 1/2\n", "per-relation", "R"),
    ],
)
def test_prob_map_rejects_duplicates(text, mode, target):
    message = f"line 4: {target} already has a probability on line 1"
    with pytest.raises(ProbabilityError, match=re.escape(message)):
        parse_prob_map(text, mode)


def test_prob_map_rejects_out_of_range():
    with pytest.raises(ProbabilityError):
        parse_prob_map("R 0\n", "per-relation")
    with pytest.raises(ProbabilityError):
        parse_prob_map("R 3/2\n", "per-relation")


def test_uniform_assignment():
    phi = ProbAssignment.uniform(Fraction(1, 2))
    assert phi.prob_of(Fact("Anything", ("a",))) == Fraction(1, 2)


def test_fresh_constant_format():
    assert fresh_constant("c0", []) == "@c0"
    assert fresh_constant("e1.b", [3]) == "@e1.b.3"
    assert fresh_constant("u0", [1, 2]) == "@u0.1.2"
