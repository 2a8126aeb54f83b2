import itertools

import pytest
from hypothesis import given, settings, strategies as st

from qreliab import evaluate
from qreliab.cq import enumerate_matches
from qreliab.errors import QReliabError
from qreliab.evaluate import ur_brute
from qreliab.gadgets import (
    brute_counts,
    build_gadget,
    closed_counts,
    count_violating,
    gadget_facts,
    q1_query,
    qrst_query,
    v2,
    verify_lemmas,
)
from qreliab.instances import Fact, Instance


def test_qrst_query_shape():
    q = qrst_query(2, 1, 3)
    assert [a.relation for a in q.atoms] == ["R1", "R2", "S1", "T1", "T2", "T3"]
    assert q.schema["S1"] == 2
    with pytest.raises(QReliabError):
        qrst_query(0, 1, 1)


def test_ab_gadget_size():
    g = build_gadget("ab", 2, 3, 1, ["a", "b"])
    assert len(g) == 6
    assert Fact("S3", ("a", "b")) in g


def test_chain_gadget_sizes():
    ends = ["a", "b", "c", "d"]
    full = build_gadget("abcd", 1, 1, 1, ends)
    trimmed = build_gadget("abcd_trimmed", 1, 1, 1, ends)
    assert len(full) == 7
    assert len(trimmed) == 5
    assert Fact("R1", ("a",)) in full and Fact("R1", ("a",)) not in trimmed
    assert Fact("T1", ("d",)) in full and Fact("T1", ("d",)) not in trimmed


def test_trimmed_chain_facts():
    # the chain that build_Dp places on each edge (u, b, c, w)
    assert gadget_facts("abcd_trimmed", 2, 1, 1, ["u", "b", "c", "w"]) == [
        Fact("S1", ("u", "b")),
        Fact("T1", ("b",)),
        Fact("S1", ("c", "b")),
        Fact("R1", ("c",)),
        Fact("R2", ("c",)),
        Fact("S1", ("c", "w")),
    ]
    assert build_gadget("ab", 1, 2, 1, ["a", "b"]) == Instance(
        gadget_facts("ab", 1, 2, 1, ["a", "b"])
    )


def test_build_gadget_validates():
    with pytest.raises(QReliabError):
        build_gadget("ab", 1, 1, 1, ["a", "b", "c"])
    with pytest.raises(QReliabError):
        build_gadget("abcd", 1, 1, 1, ["a", "b"])
    for kind in ("pentagon", "abcd_left", "abcd_right"):
        with pytest.raises(QReliabError):
            build_gadget(kind, 1, 1, 1, ["a", "b", "c", "d"])


def test_closed_counts_base_case():
    cc = closed_counts(1, 1, 1)
    assert (cc.lam_r, cc.lam_rbar, cc.lam_t, cc.lam_tbar) == (3, 4, 3, 4)
    assert (cc.gamma, cc.delta_r, cc.delta_t, cc.delta_bot) == (17, 22, 22, 28)
    assert cc.kappa == 8


def test_closed_counts_symmetry():
    a = closed_counts(2, 3, 1)
    b = closed_counts(1, 3, 2)
    assert a.gamma == b.gamma
    assert a.delta_r == b.delta_t
    assert a.delta_bot == b.delta_bot


def test_brute_matches_closed_small():
    for rst in itertools.product((1, 2, 3), repeat=3):
        assert brute_counts(*rst) == closed_counts(*rst)


def test_brute_counts_enumerate_each_gadget_once(monkeypatch):
    calls = []
    enumerate_matches = evaluate.enumerate_matches

    def counted(q, instance):
        calls.append(len(instance))
        return enumerate_matches(q, instance)

    monkeypatch.setattr(evaluate, "enumerate_matches", counted)
    assert brute_counts(2, 3, 2) == closed_counts(2, 3, 2)
    assert calls == [2 + 3 + 2, 3 + 2 + 3 + 2 + 3 + 2 + 2]  # the (a,b)-gadget, the chain


def test_count_violating_whole_gadget():
    # with no boundary conditions, the (a,b)-gadget at (1,1,1) has
    # 2^3 - 1 = 7 violating worlds
    g = build_gadget("ab", 1, 1, 1, ["a", "b"])
    assert count_violating(g, qrst_query(1, 1, 1)) == 7


def _violating_worlds(instance, query, present, absent):
    """Reference: every world over the unconstrained facts, one by one; the
    forced-present facts are instance facts here."""
    free = sorted(instance.facts - present - absent)
    count = 0
    for keep in itertools.product((False, True), repeat=len(free)):
        world = Instance(list(present) + [f for f, k in zip(free, keep) if k])
        count += not enumerate_matches(query, world)
    return count


@st.composite
def _constrained_instances(draw):
    """A small R*/S*/T* instance over a two-by-two domain, each fact free,
    forced present or forced absent.  A forced-absent fact can leave others
    outside every support, which then double the count."""
    r, s, t = (draw(st.integers(1, 2)) for _ in range(3))
    candidates = [Fact(f"R{k}", (a,)) for k in range(1, r + 1) for a in "ab"]
    candidates += [
        Fact(f"S{k}", (a, b)) for k in range(1, s + 1) for a in "ab" for b in "cd"
    ]
    candidates += [Fact(f"T{k}", (b,)) for k in range(1, t + 1) for b in "cd"]
    facts = draw(st.lists(st.sampled_from(candidates), unique=True, max_size=11))
    roles = draw(
        st.lists(st.sampled_from("fpa"), min_size=len(facts), max_size=len(facts))
    )
    present = {f for f, role in zip(facts, roles) if role == "p"}
    absent = {f for f, role in zip(facts, roles) if role == "a"}
    return qrst_query(r, s, t), Instance(facts), present, absent


@settings(max_examples=60, deadline=None)
@given(_constrained_instances())
def test_count_violating_matches_world_enumeration(case):
    query, instance, present, absent = case
    assert count_violating(instance, query, present, absent) == _violating_worlds(
        instance, query, present, absent
    )


@settings(max_examples=60, deadline=None)
@given(_constrained_instances())
def test_count_violating_is_the_complement_of_ur(case):
    # The UR reduction's brute oracle counts each oracle instance D as
    # count_violating(D, q).
    query, instance, _, _ = case
    assert count_violating(instance, query) == 2 ** len(instance) - ur_brute(query, instance)


def test_q1_query_is_base_family():
    assert str(q1_query()) == "R(x), S(x, y), T(y)"


def test_v2():
    assert v2(1) == 0
    assert v2(8) == 3
    assert v2(12) == 2
    with pytest.raises(ValueError):
        v2(0)


def test_verify_lemmas_small_cube():
    checks = verify_lemmas(2, 2, 2)
    assert len(checks) == 8
    assert all(c.passed for c in checks)
    assert all(c.brute_match is True for c in checks)


def test_verify_lemmas_skips_over_cap(monkeypatch):
    monkeypatch.setenv("QRELIAB_BRUTE_CAP", "10")
    checks = verify_lemmas(1, 4, 1)
    by_rst = {c.rst: c for c in checks}
    assert by_rst[(1, 1, 1)].brute_match is True
    assert by_rst[(1, 4, 1)].brute_match is None
    assert by_rst[(1, 4, 1)].passed
