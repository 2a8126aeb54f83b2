from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qreliab.errors import DuplicateNodeError, QReliabError
from qreliab.vandermonde import power_sums, solve_vandermonde

PRIME = (1 << 61) - 1


def dual_rhs(nodes, y):
    return [sum(yk * x**p for yk, x in zip(y, nodes)) for p in range(len(nodes))]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=12, unique=True),
    st.integers(1, 1 << 60),
    st.data(),
)
def test_modular_dual_solve_matches_exact(nodes, bound, data):
    y = [data.draw(st.integers(0, bound - 1)) for _ in nodes]
    rhs = dual_rhs(nodes, y)
    assert solve_vandermonde(nodes, rhs) == y
    assert solve_vandermonde(nodes, rhs, PRIME) == y
    # power_sums is the forward map of the solve, exactly and modulo PRIME
    n = len(nodes)
    assert power_sums(y, nodes, n) == rhs
    residues = power_sums(y, nodes, n, PRIME)
    assert residues == [b % PRIME for b in rhs]
    assert solve_vandermonde(nodes, residues, PRIME) == y


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.fractions(min_value=-20, max_value=20, max_denominator=12),
        min_size=1,
        max_size=7,
        unique=True,
    ),
    st.data(),
)
def test_power_sums_roundtrip_over_fractions(nodes, data):
    y = [
        data.draw(st.fractions(min_value=-50, max_value=50, max_denominator=9))
        for _ in nodes
    ]
    rhs = power_sums(y, nodes, len(nodes))
    assert rhs == dual_rhs(nodes, y)
    assert solve_vandermonde(nodes, rhs) == y


def test_empty_systems():
    assert solve_vandermonde([], []) == []
    assert solve_vandermonde([], [], PRIME) == []


def test_modular_solve_rejects_nodes_colliding_modulo_the_prime():
    solve_vandermonde([1, 1 + 7], [0, 0])  # distinct over the integers
    with pytest.raises(DuplicateNodeError):
        solve_vandermonde([1, 1 + 7], [0, 0], 7)
    with pytest.raises(DuplicateNodeError):
        solve_vandermonde([Fraction(1, 2), Fraction(2, 4)], [0, 0])


def test_length_mismatch():
    with pytest.raises(QReliabError):
        solve_vandermonde([1, 2], [0])
    with pytest.raises(QReliabError):
        solve_vandermonde([1, 2], [0, 1, 2])
