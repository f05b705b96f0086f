"""Quadrature rules against closed-form monomial integrals.

Oracle: on the unit simplex, int x1^a1 ... xd^ad dx equals
a1! ... ad! / (a1 + ... + ad + d)!  (iterated Beta integrals), so every
rule is checked against exact rational values rather than against
another quadrature.
"""

from math import factorial

import numpy as np
from hypothesis import given, strategies as st

from whitney.quadrature import NPOINTS, _GAUSS_JACOBI, simplex_rule


def exact_simplex_monomial(exponents) -> float:
    num = 1
    for a in exponents:
        num *= factorial(a)
    return num / factorial(sum(exponents) + len(exponents))


def quad_monomial(rule, exponents) -> float:
    vals = np.ones(rule.points.shape[0])
    for ax, e in enumerate(exponents):
        vals = vals * rule.points[:, ax] ** e
    return float(np.sum(rule.weights * vals))


def test_weights_positive_and_sum_to_measure():
    for dim in (1, 2, 3):
        rule = simplex_rule(dim)
        assert np.all(rule.weights > 0)
        assert np.isclose(rule.weights.sum(), 1.0 / factorial(dim), rtol=0, atol=1e-14)


def test_points_inside_reference_simplex():
    for rule in map(simplex_rule, (1, 2, 3)):
        assert np.all(rule.points >= 0)
        assert np.all(rule.points.sum(axis=1) <= 1 + 1e-14)


def test_interval_exact_to_degree_9():
    rule = simplex_rule(1)
    for k in range(10):
        assert abs(quad_monomial(rule, (k,)) - 1.0 / (k + 1)) < 1e-15


@given(st.integers(0, 8).flatmap(
    lambda a: st.tuples(st.just(a), st.integers(0, 8 - a))))
def test_triangle_exact_to_degree_8(exps):
    got = quad_monomial(simplex_rule(2), exps)
    assert abs(got - exact_simplex_monomial(exps)) < 1e-15


@given(st.integers(0, 8).flatmap(
    lambda a: st.integers(0, 8 - a).flatmap(
        lambda b: st.tuples(st.just(a), st.just(b), st.integers(0, 8 - a - b)))))
def test_tetrahedron_exact_to_degree_8(exps):
    got = quad_monomial(simplex_rule(3), exps)
    assert abs(got - exact_simplex_monomial(exps)) < 1e-15


def test_simplex_rule_dispatch():
    assert simplex_rule(2).points.shape[1] == 2
    assert simplex_rule(3).points.shape[1] == 3


def test_gauss_jacobi_literals_are_roots_jacobi():
    from scipy.special import roots_jacobi

    for alpha, (nodes, weights) in _GAUSS_JACOBI.items():
        x, w = roots_jacobi(NPOINTS, alpha, 0.0)
        assert np.array_equal(nodes, x) and np.array_equal(weights, w)
