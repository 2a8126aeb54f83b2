from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qreliab.errors import DuplicateNodeError, QReliabError
from qreliab.vandermonde import interpolate, solve_vandermonde

PRIME = (1 << 61) - 1


def lagrange_interpolate(nodes, values):
    """Coefficients of the interpolating polynomial, by accumulating the
    Lagrange basis polynomials: the O(n^3) oracle of ``interpolate``."""
    n = len(nodes)
    solution = [Fraction(0)] * n
    for p in range(n):
        basis = [Fraction(1)]  # coefficients low to high
        denom = Fraction(1)
        for q in range(n):
            if q == p:
                continue
            basis = [Fraction(0)] + basis
            for k in range(len(basis) - 1):
                basis[k] -= nodes[q] * basis[k + 1]
            denom *= nodes[p] - nodes[q]
        for i in range(n):
            solution[i] += basis[i] / denom * values[p]
    return solution


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
def test_interpolate_matches_lagrange(nodes, data):
    values = [
        data.draw(st.fractions(min_value=-50, max_value=50, max_denominator=9))
        for _ in nodes
    ]
    coefficients = interpolate(nodes, values)
    assert coefficients == lagrange_interpolate(nodes, values)
    for x, b in zip(nodes, values):
        assert sum(c * x**i for i, c in enumerate(coefficients)) == b


def test_empty_systems():
    assert solve_vandermonde([], []) == []
    assert solve_vandermonde([], [], PRIME) == []
    assert interpolate([], []) == []


def test_modular_solve_rejects_nodes_colliding_modulo_the_prime():
    solve_vandermonde([1, 1 + 7], [0, 0])  # distinct over the integers
    with pytest.raises(DuplicateNodeError):
        solve_vandermonde([1, 1 + 7], [0, 0], 7)
    with pytest.raises(DuplicateNodeError):
        interpolate([Fraction(1, 2), Fraction(2, 4)], [0, 0])


def test_length_mismatch():
    with pytest.raises(QReliabError):
        solve_vandermonde([1, 2], [0])
    with pytest.raises(QReliabError):
        interpolate([1, 2], [0, 1, 2])
