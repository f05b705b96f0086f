"""Symbolic polynomial layer: calculus identities and affine substitution.

Oracles are hand-expanded examples plus the two differential identities
curl(grad p) = 0 and div(rot p) = 0, which hold for every polynomial
and are checked on randomized coefficients.
"""

from fractions import Fraction

import numpy as np
from hypothesis import given, strategies as st

import pytest

from whitney.poly import (MixedDimensionError, Poly, SymPoly, VecPoly, grad,
                          monomial_exponents, rot2)


def random_poly(dim, degree, coeffs):
    exps = monomial_exponents(dim, degree)
    return Poly(dim, {e: c for e, c in zip(exps, coeffs)})


coeff_lists = st.lists(st.floats(-3, 3, allow_nan=False), min_size=10, max_size=10)


def test_monomial_exponents_order_and_count():
    # graded enumeration, constant first; |P_k| = C(k + d, d)
    assert monomial_exponents(2, 1) == [(0, 0), (0, 1), (1, 0)]
    assert len(monomial_exponents(2, 3)) == 10
    assert len(monomial_exponents(3, 2)) == 10
    for dim in (1, 2, 3):
        exps = monomial_exponents(dim, 4)
        degrees = [sum(e) for e in exps]
        assert degrees == sorted(degrees)


def test_arithmetic_and_eval_hand_example():
    x, y = Poly.variable(2, 0), Poly.variable(2, 1)
    p = (x + y) * (x - y) + 1.0          # x^2 - y^2 + 1
    pts = np.array([[2.0, 1.0], [0.5, 0.25]])
    assert np.allclose(p.eval(pts), [4.0, 1.1875])
    assert p.degree() == 2


def test_diff_hand_example():
    # d/dx (3 x^2 y) = 6 x y, d/dy = 3 x^2
    p = Poly.monomial(2, (2, 1), 3.0)
    assert p.diff(0).terms == {(1, 1): 6.0}
    assert p.diff(1).terms == {(2, 0): 3.0}


def test_compose_affine_matches_pointwise():
    p = Poly(2, {(2, 0): 1.0, (1, 1): -2.0, (0, 0): 0.5})
    A = np.array([[1.0, 2.0], [-1.0, 0.5]])
    b = np.array([0.25, -1.0])
    q = p.compose_affine(A, b)
    ypts = np.array([[0.3, -0.7], [1.0, 2.0], [0.0, 0.0]])
    assert np.allclose(q.eval(ypts), p.eval(ypts @ A.T + b))


def test_integral_reference_simplex_oracle():
    # int_T x y dx = 1!1!/4! = 1/24
    assert np.isclose(Poly.monomial(2, (1, 1)).integral_reference_simplex(), 1 / 24)
    assert np.isclose(Poly.constant(3, 6.0).integral_reference_simplex(), 1.0)


def test_exact_coefficients_stay_exact():
    # x^2 y / 3 on the edge (1,0)-(0,1) of the unit triangle is
    # (1 - s)^2 s / 3, whose integral over [0, 1] is 1/36, with no rounding
    p = Poly.monomial(2, (2, 1)) * Fraction(1, 3)
    edge = p.compose_affine(np.array([[-1], [1]]), np.array([1, 0]))
    assert edge.terms == {(1,): Fraction(1, 3), (2,): Fraction(-2, 3), (3,): Fraction(1, 3)}
    assert edge.integral_reference_simplex() == Fraction(1, 36)
    assert grad(p).comps[0].terms == {(1, 1): Fraction(2, 3)}
    assert p.to_float().terms == {(2, 1): 1 / 3}
    # a point is the 0-simplex: restriction there is evaluation
    assert p.compose_affine(np.zeros((2, 0), dtype=int), [3, 2]).integral_reference_simplex() == 6


@given(coeff_lists)
def test_curl_of_gradient_vanishes(coeffs):
    p = random_poly(2, 3, coeffs)
    assert grad(p).curl2().almost_zero(1e-9)


@given(coeff_lists)
def test_divergence_of_rotation_vanishes(coeffs):
    p = random_poly(2, 3, coeffs)
    assert rot2(p).div().almost_zero(1e-9)


@given(coeff_lists, coeff_lists, coeff_lists)
def test_curl3_of_gradient_vanishes(c1, c2, c3):
    p = Poly(3, {e: a + b - c for e, a, b, c in
                 zip(monomial_exponents(3, 2), c1, c2, c3)})
    assert all(comp.almost_zero(1e-9) for comp in grad(p).curl3().comps)


@given(coeff_lists, coeff_lists, coeff_lists)
def test_div_of_curl3_vanishes(c1, c2, c3):
    v = VecPoly([random_poly(3, 2, c) for c in (c1, c2, c3)])
    assert v.curl3().div().almost_zero(1e-9)


def test_numpy_scalar_coefficient_keeps_poly_type():
    p = np.float64(2.0) * Poly.variable(2, 0)
    assert isinstance(p, Poly)
    assert p.terms == {(1, 0): 2.0}


def test_sympoly_divergence_hand_example():
    # sigma = [[x^2, x y], [x y, y^2]]: div = (2x + x, y + 2y) = (3x, 3y)
    x, y = Poly.variable(2, 0), Poly.variable(2, 1)
    s = SymPoly(x * x, x * y, y * y)
    div = s.div()
    pts = np.array([[1.0, 2.0], [-0.5, 0.25]])
    assert np.allclose(div.eval(pts), 3.0 * pts)


def test_sympoly_eval_component_order():
    s = SymPoly(Poly.constant(2, 1.0), Poly.constant(2, 2.0), Poly.constant(2, 3.0))
    vals = s.eval(np.zeros((2, 2)))
    assert vals.shape == (2, 3)
    assert np.allclose(vals, [[1.0, 2.0, 3.0]] * 2)


def test_vector_components_must_share_a_dimension():
    with pytest.raises(MixedDimensionError, match="dimension"):
        VecPoly([Poly.constant(2, 1.0), Poly.constant(3, 1.0)])
    with pytest.raises(MixedDimensionError):
        VecPoly([])
    assert VecPoly([Poly.constant(3, 0.0)] * 3).dim == 3
