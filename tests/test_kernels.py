import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qreliab import kernels
from qreliab.cq import enumerate_matches
from qreliab.errors import CapExceededError
from qreliab.evaluate import pqe_brute, ur_brute
from qreliab.gadgets import q1_query
from qreliab.instances import Fact, Instance, ProbAssignment
from qreliab.kernels import count_avoiding, count_containing_any, minimize_masks


def naive_avoiding(masks, weights):
    """Reference: the weight of every world containing no mask, one by one."""
    total = 0
    for world in range(1 << len(weights)):
        if any(world & m == m for m in masks):
            continue
        weight = 1
        for i, (w_in, w_out) in enumerate(weights):
            weight *= w_in if world >> i & 1 else w_out
        total += weight
    return total


def naive_containing_any(nbits, masks):
    return sum(
        1 for world in range(1 << nbits) if any(world & m == m for m in masks)
    )


def test_backend_reports_choice():
    assert kernels.BACKEND == "python"


def test_count_no_masks():
    assert count_containing_any(4, []) == 0


def test_count_empty_mask_matches_everything():
    assert count_containing_any(4, [0]) == 16


def test_count_single_bit():
    # Half of all subsets contain a fixed element.
    assert count_containing_any(5, [0b00100]) == 16


def test_count_union():
    # Inclusion-exclusion: |A| + |B| - |A and B| over 3 bits.
    assert count_containing_any(3, [0b001, 0b010]) == 4 + 4 - 2


def test_count_ignores_masks_past_nbits():
    assert count_containing_any(2, [0b100]) == 0
    assert count_containing_any(2, [0b100, 0b01]) == 2


def test_count_wide_sparse_lineage():
    # 40 disjoint pairs: far past plain enumeration, exact by components.
    masks = [0b11 << (2 * k) for k in range(40)]
    assert count_containing_any(80, masks) == (1 << 80) - 3**40


# A one-variable component and a three-variable chain, split in that order.
_NARROW_THEN_WIDE = [0b0001, 0b0110, 0b1100]


def test_count_avoiding_cap_reports_the_widest_component():
    split = kernels._components(minimize_masks(_NARROW_THEN_WIDE))
    assert [variables for variables, _ in split] == [0b0001, 0b1110]
    with pytest.raises(CapExceededError) as info:
        count_avoiding(_NARROW_THEN_WIDE, [(1, 1)] * 4, cap=2)
    assert (info.value.required, info.value.cap) == (3, 2)


def test_count_avoiding_counts_at_cap_equal_to_width():
    weights = [(1, 2), (3, 1), (2, 2), (1, 4)]
    assert count_avoiding(_NARROW_THEN_WIDE, weights, cap=3) == naive_avoiding(
        _NARROW_THEN_WIDE, weights
    )


def test_count_avoiding_zero_mask_is_zero_at_any_cap():
    # A support made only of certain facts: no world avoids it.
    assert count_avoiding([0, 0b111], [(1, 1)] * 3, cap=0) == 0


def test_brute_count_splits_its_lineage_once(monkeypatch):
    calls = []
    split = kernels._components

    def counted(masks):
        calls.append(masks)
        return split(masks)

    monkeypatch.setattr(kernels, "_components", counted)
    instance = Instance([Fact("R", ("a",)), Fact("S", ("a", "b")), Fact("T", ("b",))])
    assert ur_brute(q1_query(), instance) == 1
    assert len(calls) == 1


def test_minimize_masks_drops_supersets():
    assert set(minimize_masks([0b011, 0b001, 0b111])) == {0b001}
    assert minimize_masks([]) == []


@given(st.integers(0, 10), st.lists(st.integers(0, 1023), max_size=5))
def test_count_matches_naive(nbits, masks):
    masks = [m & ((1 << nbits) - 1) for m in masks]
    assert count_containing_any(nbits, masks) == naive_containing_any(nbits, masks)


@given(
    st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=9),
    st.lists(st.integers(0, 511), max_size=10),
)
def test_count_avoiding_matches_naive(weights, masks):
    masks = [m & ((1 << len(weights)) - 1) for m in masks]
    assert count_avoiding(masks, weights) == naive_avoiding(masks, weights)


def _two_hop_lineage(a_degrees, b_degrees, edges):
    """Lineage of A(x,z), S(x,y), B(y,w): an S fact per edge (x, y), joined
    with every A fact on x and every B fact on y.  Its sub-lineages repeat
    across branches, so the counter's cache is hit."""
    variables = itertools.count()
    a_facts = [[next(variables) for _ in range(d)] for d in a_degrees]
    b_facts = [[next(variables) for _ in range(d)] for d in b_degrees]
    masks = []
    for x, y in edges:
        s = next(variables)
        masks += [1 << a | 1 << s | 1 << b for a in a_facts[x] for b in b_facts[y]]
    return masks, next(variables)


@settings(deadline=None)
@given(st.data())
def test_count_avoiding_two_hop_lineage_matches_naive(data):
    a_degrees = data.draw(st.lists(st.integers(1, 2), min_size=1, max_size=3))
    b_degrees = data.draw(st.lists(st.integers(1, 2), min_size=1, max_size=2))
    cells = [(x, y) for x in range(len(a_degrees)) for y in range(len(b_degrees))]
    budget = 11 - sum(a_degrees) - sum(b_degrees)
    edges = data.draw(st.lists(st.sampled_from(cells), unique=True, max_size=budget))
    masks, nvars = _two_hop_lineage(a_degrees, b_degrees, edges)
    weights = data.draw(
        st.lists(
            st.tuples(st.integers(0, 4), st.integers(0, 4)),
            min_size=nvars,
            max_size=nvars,
        )
    )
    assert count_avoiding(masks, weights) == naive_avoiding(masks, weights)


# Random instances of R(x), S(x,y), T(y) over a three-constant domain.
_CANDIDATES = (
    [Fact("R", (a,)) for a in "abc"]
    + [Fact("S", (a, b)) for a in "abc" for b in "abc"]
    + [Fact("T", (b,)) for b in "abc"]
)
_instances = st.lists(st.sampled_from(_CANDIDATES), max_size=10, unique=True).map(
    Instance
)
_probabilities = st.sampled_from(
    [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(5, 7), Fraction(1)]
)


class _FactTable:
    """Per-fact probabilities.  Unlike ProbAssignment it allows 0, which
    pqe_brute handles as a zero weight."""

    def __init__(self, probs):
        self.probs = probs

    def prob_of(self, fact):
        return self.probs[fact]


def _world_by_world(query, instance, probs):
    total = Fraction(0)
    facts = sorted(instance.facts)
    for present in itertools.product((False, True), repeat=len(facts)):
        world = Instance(f for f, keep in zip(facts, present) if keep)
        if any(True for _ in enumerate_matches(query, world)):
            weight = Fraction(1)
            for f, keep in zip(facts, present):
                weight *= probs[f] if keep else 1 - probs[f]
            total += weight
    return total


@settings(max_examples=60, deadline=None)
@given(_instances, st.data())
def test_pqe_brute_matches_world_enumeration(instance, data):
    probs = {f: data.draw(_probabilities) for f in sorted(instance.facts)}
    q = q1_query()
    assert pqe_brute(q, instance, _FactTable(probs)) == _world_by_world(
        q, instance, probs
    )


@settings(deadline=None)
@given(_instances)
def test_fact_outside_every_support_doubles_ur(instance):
    grown = Instance(set(instance.facts) | {Fact("U", ("z",))})
    assert ur_brute(q1_query(), grown) == 2 * ur_brute(q1_query(), instance)


@settings(deadline=None)
@given(_instances)
def test_ur_is_scaled_half_probability(instance):
    half = ProbAssignment.uniform(Fraction(1, 2))
    q = q1_query()
    assert ur_brute(q, instance) == (1 << len(instance)) * pqe_brute(q, instance, half)
