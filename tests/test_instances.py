import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qreliab.errors import ArityError, InstanceFormatError, ProbabilityError, QReliabError
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


def test_mixed_arity_rejected():
    with pytest.raises(ArityError):
        Instance([Fact("R", ("a",)), Fact("R", ("a", "b"))])


def test_instance_set_semantics():
    i = Instance([Fact("R", ("a",)), Fact("R", ("a",))])
    assert len(i) == 1
    assert Fact("R", ("a",)) in i


def test_facts_of_and_arity_of():
    i = parse_instance("R(a)\nS(a,b)\n")
    assert [f.args for f in i.facts_of("R")] == [("a",)]
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
    phi = parse_prob_map("R 1/2\nS 1\n")
    assert phi.prob_of(Fact("R", ("a",))) == Fraction(1, 2)
    assert phi.prob_of(Fact("S", ("a", "b"))) == 1
    with pytest.raises(ProbabilityError):
        phi.prob_of(Fact("T", ("b",)))


def test_prob_map_per_fact():
    phi = parse_prob_map("R(a) 1/3\nS(a,b) 2/3\n")
    assert phi.prob_of(Fact("S", ("a", "b"))) == Fraction(2, 3)
    with pytest.raises(ProbabilityError):
        phi.prob_of(Fact("R", ("b",)))


@pytest.mark.parametrize("line", ["R(a-1) 1/5", "S(a, ) 1/2", "S(a,b c) 1/2"])
def test_prob_map_per_fact_rejects_bad_constant(line):
    with pytest.raises(ProbabilityError, match="line 2: bad constant"):
        parse_prob_map(f"R(a) 1/3\n{line}\n")


@pytest.mark.parametrize(
    "text, mode, target",
    [
        ("R(a) 1/2\nS(a,b) 1\n# again\nR( a ) 1/3\n", "per-fact", "R(a)"),
        ("R 1/2\nS 1\n\nR 1/2\n", "per-relation", "R"),
    ],
)
def test_prob_map_rejects_duplicates(text, mode, target):
    # Without the repeated last line, the file parses in the mode its lines pick.
    assert bool(parse_prob_map(text.rsplit("\n", 2)[0]).per_fact) == (mode == "per-fact")
    message = f"line 4: {target} already has a probability on line 1"
    with pytest.raises(ProbabilityError, match=re.escape(message)):
        parse_prob_map(text)


def test_prob_map_rejects_out_of_range():
    with pytest.raises(ProbabilityError):
        parse_prob_map("R 0\n")
    with pytest.raises(ProbabilityError):
        parse_prob_map("R 3/2\n")


def test_prob_map_mode_is_read_from_the_lines():
    # Line 2 makes the file per fact, so line 1 is read as a fact.
    with pytest.raises(ProbabilityError, match=re.escape("line 1: cannot parse fact 'R'")):
        parse_prob_map("R 1/2\nR(a) 1/3")
    # A "(" in a comment line leaves the file per relation.
    phi = parse_prob_map("# R(a) is not listed\nR 1/2\n  # S(a,b) neither\n")
    assert phi == ProbAssignment.for_relations({"R": Fraction(1, 2)})
    assert phi.prob_of(Fact("R", ("a",))) == Fraction(1, 2)


@pytest.mark.parametrize("p", [Fraction(0), Fraction(3, 2), Fraction(-1, 2)])
def test_assignment_built_outside_the_parser_rejects_out_of_range(p):
    # One object shared by many facts is checked once, and still rejected.
    facts = {Fact("R", (f"a{i}",)): p for i in range(3)}
    with pytest.raises(ProbabilityError, match="outside"):
        ProbAssignment.for_facts({**facts, Fact("S", ("a", "b")): Fraction(1, 2)})
    with pytest.raises(ProbabilityError, match="outside"):
        ProbAssignment.for_relations({"R": Fraction(1, 3), "S": p})


def test_uniform_assignment():
    phi = ProbAssignment.uniform(Fraction(1, 2))
    assert phi.prob_of(Fact("Anything", ("a",))) == Fraction(1, 2)


def test_assignment_reads_fact_then_relation_then_default():
    phi = ProbAssignment({Fact("R", ("a",)): Fraction(1, 3)}, {"R": Fraction(1, 2)}, Fraction(1, 5))
    facts = [Fact("R", ("a",)), Fact("R", ("b",)), Fact("S", ("a", "b"))]
    assert [phi.prob_of(f) for f in facts] == [Fraction(1, 3), Fraction(1, 2), Fraction(1, 5)]


def test_fresh_constant_format():
    assert fresh_constant("c0", []) == "@c0"
    assert fresh_constant("e1.b", [3]) == "@e1.b.3"
    assert fresh_constant("u0", [1, 2]) == "@u0.1.2"


def test_fact_is_its_relation_args_tuple():
    f = Fact("S", ("a", "b"))
    assert f == ("S", ("a", "b"))
    assert hash(f) == hash(("S", ("a", "b")))
    assert (f.relation, f.args) == ("S", ("a", "b"))
    assert repr(f) == "Fact(relation='S', args=('a', 'b'))"
    assert str(f) == "S(a,b)"


@given(st.lists(
    st.sampled_from([("R", 1), ("S", 2), ("Tx", 3), ("T_1", 1)]).flatmap(
        lambda ra: st.tuples(st.just(ra[0]), st.lists(_constants, min_size=ra[1], max_size=ra[1]))
    ),
    max_size=10,
))
def test_fact_order_is_relation_args_order(raw):
    facts = [Fact(rel, tuple(args)) for rel, args in raw]
    assert [tuple(f) for f in sorted(facts)] == sorted((rel, tuple(args)) for rel, args in raw)
    keep = {(f.relation, f.args): f for f in facts}
    serialized = "".join(f"{f}\n" for _, f in sorted(keep.items()))
    assert Instance(facts).serialize() == serialized
    assert parse_instance(serialized) == Instance(facts)


# The line parser as it was before the one-pattern fast path: the relation and
# a parenthesised body, then the body split on commas and every stripped
# piece checked as a constant.  The fast path must agree with it on every
# line: the same facts, or the same error class and message.
_ORACLE_CONSTANT_RE = re.compile(r"[A-Za-z0-9_.@]+")
_ORACLE_FACT_RE = re.compile(r"([A-Z][A-Za-z0-9_]*)\((.*)\)\s*$")


def _oracle_fact(text, lineno, error):
    m = _ORACLE_FACT_RE.match(text)
    if not m:
        raise error(f"line {lineno}: cannot parse fact {text!r}")
    args = tuple(a.strip() for a in m.group(2).split(","))
    for a in args:
        if not _ORACLE_CONSTANT_RE.fullmatch(a):
            raise error(f"line {lineno}: bad constant {a!r}")
    return Fact(m.group(1), args)


def oracle_parse_instance(text):
    facts = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            facts.append(_oracle_fact(line, lineno, InstanceFormatError))
    return Instance(facts)


def oracle_parse_prob_map(text):
    lines = [(lineno, raw.strip()) for lineno, raw in enumerate(text.splitlines(), start=1)]
    lines = [(lineno, line) for lineno, line in lines if line and not line.startswith("#")]
    per_fact = any("(" in line for _, line in lines)
    probs = {}
    first_line = {}
    for lineno, line in lines:
        try:
            target, value = line.rsplit(None, 1)
        except ValueError:
            raise ProbabilityError(f"line {lineno}: expected '<target> p/q'") from None
        try:
            prob = Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise ProbabilityError(f"malformed rational {value!r}") from None
        if not 0 < prob <= 1:
            raise ProbabilityError(f"probability {value} is outside (0, 1]")
        if not per_fact:
            if not re.fullmatch(r"[A-Z][A-Za-z0-9_]*", target):
                raise ProbabilityError(f"line {lineno}: bad relation name {target!r}")
            key = target
        else:
            key = _oracle_fact(target, lineno, ProbabilityError)
        if key in first_line:
            raise ProbabilityError(
                f"line {lineno}: {key} already has a probability on line {first_line[key]}"
            )
        first_line[key] = lineno
        probs[key] = prob
    if per_fact:
        return ProbAssignment.for_facts(probs)
    return ProbAssignment.for_relations(probs)


def _outcome(parse, *args):
    """The parsed value, or the class and message of the error raised."""
    try:
        return parse(*args)
    except QReliabError as exc:
        return type(exc), str(exc)


_space = st.sampled_from(["", "", " ", "  ", "\t", "\u00a0", "\u2003"])
# Mostly well-formed pieces, so that whole files are often accepted.
_relation = st.sampled_from(["R", "S", "Tx", "T_1"] * 3 + ["r", "_R", "1R", "R-1", ""])
_token = st.one_of(
    _constants,
    _constants,
    _constants,
    st.sampled_from(["", "a-1", "a b", "(a)", "a)", "(", ")", "'a'", "a,", "é", "#"]),
)


@st.composite
def _fact_text(draw):
    """Text shaped like a fact, well formed or broken in one or more places."""
    args = draw(st.lists(st.tuples(_space, _token, _space), max_size=3))
    body = ",".join(before + token + after for before, token, after in args)
    opening, closing = draw(st.sampled_from([("(", ")")] * 12 + [("", ")"), ("(", ""), ("((", "))"), ("(", "))")]))
    return draw(_relation) + draw(st.sampled_from([""] * 5 + [" "])) + opening + body + closing


_tail = st.sampled_from([""] * 8 + [" ", "\t", "x", " x", ")", "(", ",", " # note", "()"])
_probability = st.sampled_from(["1/2", "3/8", "3/8", "1", "2/4", "0", "3/2", "1/0", "x", "-1/2", ""])


# Every line break that str.splitlines knows; "\x1f" and the other blanks of
# _space are whitespace but break no line.
_LINE_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
_line_break = st.sampled_from(["\n"] * len(_LINE_BREAKS) + _LINE_BREAKS)


def _join(draw, lines):
    """The lines, each break drawn on its own from every kind of line break."""
    return "".join(line + draw(_line_break) for line in lines[:-1]) + lines[-1]


@st.composite
def _fact_lines(draw):
    lines = draw(st.lists(
        st.one_of(
            st.tuples(_space, _fact_text(), _tail).map("".join),
            st.sampled_from(["", "  ", "# comment", "  # R(a"]),
        ),
        min_size=1,
        max_size=5,
    ))
    return _join(draw, lines) + draw(st.sampled_from(["", "\n", "\r\n", "\u2028"]))


@st.composite
def _prob_lines(draw, mode):
    # Mostly the mode's own targets, sometimes the other mode's; the parser
    # reads the mode from the lines drawn.
    own, other = (_fact_text(), _relation) if mode == "per-fact" else (_relation, _fact_text())
    target = st.one_of(own, own, own, other)
    lines = draw(st.lists(
        st.one_of(
            st.tuples(_space, target, st.sampled_from([" ", "\t", "  ", ""]), _probability, _tail).map("".join),
            st.sampled_from(["", "# comment", "  # R(a) 1/2"]),
        ),
        min_size=1,
        max_size=5,
    ))
    return _join(draw, lines)


@settings(max_examples=400)
@given(_fact_lines())
def test_parse_instance_agrees_with_plain_parser(text):
    got = _outcome(parse_instance, text)
    assert got == _outcome(oracle_parse_instance, text)
    if isinstance(got, Instance):
        assert all(type(f) is Fact and type(f.args) is tuple for f in got)


@settings(max_examples=400)
@given(st.data(), st.sampled_from(["per-fact", "per-relation"]))
def test_parse_prob_map_agrees_with_plain_parser(data, mode):
    text = data.draw(_prob_lines(mode))
    assert _outcome(parse_prob_map, text) == _outcome(oracle_parse_prob_map, text)


@pytest.mark.parametrize(
    "line",
    ["R( a , b )", "R(a,\tb)", "R(@c0.1, a_b)", "R()", "R(a,)", "R(,a)", "R((a))", "R(a))", "R(a) x",
     "R (a)", "R(a b)", "R(a-1)", "r(a)", "R(a", "Ra)"],
)
def test_parse_instance_lines_agree_with_plain_parser(line):
    text = f"S(z)\n{line}\n"
    assert _outcome(parse_instance, text) == _outcome(oracle_parse_instance, text)


_UNICODE_BLANK_LINES = {
    "blanks-around-comma": "R(a\u00a0,\u2003b)",
    "blanks-around-arguments": "R(\u3000a ,\x1fb\u1680)",
    "blanks-around-fact": "\u00a0R(a,\u202fb)\u3000",
    "unit-separator-before-paren": "R(a\x1f)",
    "blank-only": "\x1f\u00a0\u3000",
    "blank-inside-constant": "R(a\u00a0b)",
    "zero-width-space-is-no-blank": "R(a,\u200bb)",
}


@pytest.mark.parametrize("line", _UNICODE_BLANK_LINES.values(), ids=_UNICODE_BLANK_LINES.keys())
def test_lines_with_unicode_blanks_agree_with_plain_parser(line):
    text = f"S(z)\n{line}\nS(y)\n"
    assert _outcome(parse_instance, text) == _outcome(oracle_parse_instance, text)
    # The first line makes the file per fact, or per relation.
    for first, target in (("S(z)", line), ("S(z)", "R"), ("S", "R")):
        text = f"{first} 1/2\n{target}\u3000\u00a01/3\u2003\n"
        assert _outcome(parse_prob_map, text) == _outcome(oracle_parse_prob_map, text)


# Rejected lines of about n characters, mostly blanks or separators.
_LONG_REJECTED_LINES = {
    "word-blanks-word": lambda n: "x" + " " * n + "y",
    "open-fact-blanks": lambda n: "R(a" + " " * n + "y",
    "fact-blanks-probability-blanks": lambda n: "R(a)" + " " * (n // 2) + "1/2" + " " * (n // 2) + "x",
    "unclosed-arguments": lambda n: "R(" + "a ," * (n // 3),
    "relation-blanks-probability": lambda n: "R" + " " * n + "1/2 x",
}


@pytest.mark.parametrize("line_of", _LONG_REJECTED_LINES.values(), ids=_LONG_REJECTED_LINES.keys())
def test_long_rejected_line_is_read_in_linear_time(line_of):
    # A pattern quadratic in the line's length takes seconds at 20,000
    # characters, so it fails there before the 200,000-character line.
    # A probability file is read per fact when some line holds a "(", so
    # the line is read per fact after a fact's line, and on its own in the
    # mode its own brackets pick.
    for n in (20_000, 200_000):
        line = line_of(n)
        for parse, oracle, text in (
            (parse_instance, oracle_parse_instance, f"{line}\n"),
            (parse_prob_map, oracle_parse_prob_map, f"{line}\n"),
            (parse_prob_map, oracle_parse_prob_map, f"S(z) 1/2\n{line}\n"),
        ):
            start = time.perf_counter()
            got = _outcome(parse, text)
            elapsed = time.perf_counter() - start
            assert isinstance(got, tuple) and got == _outcome(oracle, text)
            assert elapsed < 1.0, (n, parse.__name__, text[:4])


def test_repeated_probability_token_is_one_value():
    phi = parse_prob_map("R(a) 3/8\nR(b) 3/8\nR(c) 6/16\n")
    values = [phi.prob_of(Fact("R", (c,))) for c in "abc"]
    assert values == [Fraction(3, 8)] * 3
    assert values[0] is values[1]
