"""Polynomials in monomial form on 2D/3D reference domains.

Shape functions, their exterior derivatives and the constrained stress
space are all low-degree polynomials, so a small exact symbolic layer is
cheaper and more reliable than numerical differentiation.  Coefficients
are kept in a dict keyed by exponent tuples.  Integer and `Fraction`
coefficients stay exact: arithmetic, calculus (diff, grad, curl, div),
affine substitution with integer or rational maps and the reference
simplex integral then involve no rounding at all, which is how the
element catalog builds its dual bases.  Any other coefficient is stored
as a float, and the same operations are exact up to float rounding of
the coefficients.  `eval` always works in floats.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from math import factorial

import numpy as np


def monomial_exponents(dim: int, degree: int) -> list[tuple[int, ...]]:
    """Exponent tuples of all monomials in `dim` variables up to `degree`.

    Ordered by total degree, then lexicographically: a deterministic
    basis of P_degree.
    """
    out = []
    for total in range(degree + 1):
        for exps in itertools.product(range(total + 1), repeat=dim):
            if sum(exps) == total:
                out.append(exps)
    return out


_EXACT = (int, Fraction)


def _coef(c):
    """int and Fraction coefficients stay exact; anything else is a float."""
    return c if type(c) in _EXACT else float(c)


class Poly:
    """Polynomial with real coefficients in `dim` variables."""

    __slots__ = ("dim", "terms")
    # keep numpy scalars from broadcasting over us; defer to __rmul__
    __array_ufunc__ = None

    def __init__(self, dim: int, terms=None):
        self.dim = dim
        self.terms: dict[tuple[int, ...], float] = {}
        if terms:
            for exps, c in terms.items():
                c = _coef(c)
                if c != 0:
                    key = tuple(int(e) for e in exps)
                    self.terms[key] = self.terms.get(key, 0) + c

    @classmethod
    def constant(cls, dim, value):
        return cls(dim, {(0,) * dim: value})

    @classmethod
    def monomial(cls, dim, exps, coeff=1):
        return cls(dim, {tuple(exps): coeff})

    @classmethod
    def variable(cls, dim, axis):
        exps = [0] * dim
        exps[axis] = 1
        return cls.monomial(dim, exps)

    def degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def copy(self) -> "Poly":
        return Poly(self.dim, dict(self.terms))

    def __add__(self, other):
        if not isinstance(other, Poly):
            other = Poly.constant(self.dim, other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return Poly(self.dim, out)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.dim, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other if isinstance(other, Poly) else Poly.constant(self.dim, -other))

    def __mul__(self, other):
        if isinstance(other, Poly):
            out: dict[tuple[int, ...], float] = {}
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    key = tuple(a + b for a, b in zip(e1, e2))
                    out[key] = out.get(key, 0) + c1 * c2
            return Poly(self.dim, out)
        other = _coef(other)
        return Poly(self.dim, {e: c * other for e, c in self.terms.items()})

    __rmul__ = __mul__

    def diff(self, axis: int) -> "Poly":
        out = {}
        for e, c in self.terms.items():
            if e[axis] > 0:
                key = tuple(v - 1 if i == axis else v for i, v in enumerate(e))
                out[key] = out.get(key, 0) + c * e[axis]
        return Poly(self.dim, out)

    def eval(self, points) -> np.ndarray:
        """Evaluate at points of shape (N, dim); returns shape (N,)."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        vals = np.zeros(pts.shape[0])
        for e, c in self.terms.items():
            term = np.full(pts.shape[0], float(c))
            for ax, p in enumerate(e):
                if p:
                    term = term * pts[:, ax] ** p
            vals += term
        return vals

    def compose_affine(self, A, b) -> "Poly":
        """Substitute x = A @ y + b; returns a polynomial in y.

        A has shape (dim, new_dim), b has shape (dim,).  Integer or
        Fraction entries keep exact coefficients exact.
        """
        A = np.asarray(A)
        new_dim = A.shape[1]
        A, b = A.tolist(), np.asarray(b).tolist()
        # affine forms for each original variable
        forms = []
        for i in range(self.dim):
            t = {(0,) * new_dim: b[i]}
            for j in range(new_dim):
                key = tuple(1 if k == j else 0 for k in range(new_dim))
                t[key] = A[i][j]
            forms.append(Poly(new_dim, t))
        # powers are cached since exponents repeat across terms
        pow_cache: dict[tuple[int, int], Poly] = {}

        def form_pow(i, p):
            if p == 0:
                return Poly.constant(new_dim, 1)
            key = (i, p)
            if key not in pow_cache:
                pow_cache[key] = form_pow(i, p - 1) * forms[i]
            return pow_cache[key]

        out = Poly(new_dim)
        for e, c in self.terms.items():
            term = Poly.constant(new_dim, c)
            for i, p in enumerate(e):
                if p:
                    term = term * form_pow(i, p)
            out = out + term
        return out

    def integral_reference_simplex(self):
        """Integral over the unit simplex {x_i >= 0, sum x_i <= 1}.

        Uses int x^a y^b ... = a! b! ... / (a + b + ... + dim)!.  A
        Fraction for exact coefficients, a float otherwise.
        """
        total = 0
        for e, c in self.terms.items():
            num = 1
            for p in e:
                num *= factorial(p)
            den = factorial(sum(e) + self.dim)
            total += Fraction(c * num, den) if type(c) in _EXACT else c * num / den
        return total

    def almost_zero(self, tol=1e-12) -> bool:
        return all(abs(c) <= tol for c in self.terms.values())

    def to_float(self) -> "Poly":
        return Poly(self.dim, {e: float(c) for e, c in self.terms.items()})

    def __repr__(self):
        return f"Poly(dim={self.dim}, terms={self.terms!r})"


class MixedDimensionError(ValueError):
    """Components of a vector field live in different dimensions."""


class VecPoly:
    """Vector field with polynomial components."""

    __slots__ = ("comps",)
    __array_ufunc__ = None

    def __init__(self, comps):
        self.comps = tuple(comps)
        if len({p.dim for p in self.comps}) != 1:
            raise MixedDimensionError(
                f"components need one common dimension, got {[p.dim for p in self.comps]}")

    @property
    def dim(self):
        return self.comps[0].dim

    def __len__(self):
        return len(self.comps)

    def __getitem__(self, i):
        return self.comps[i]

    def __add__(self, other):
        return VecPoly([a + b for a, b in zip(self.comps, other.comps)])

    def __sub__(self, other):
        return VecPoly([a - b for a, b in zip(self.comps, other.comps)])

    def __mul__(self, scalar):
        return VecPoly([c * scalar for c in self.comps])

    __rmul__ = __mul__

    def eval(self, points) -> np.ndarray:
        """Shape (N, ncomps)."""
        return np.stack([c.eval(points) for c in self.comps], axis=-1)

    def div(self) -> Poly:
        out = Poly(self.dim)
        for ax, c in enumerate(self.comps):
            out = out + c.diff(ax)
        return out

    def curl2(self) -> Poly:
        """Scalar curl d1 q2 - d2 q1 of a 2D field."""
        return self.comps[1].diff(0) - self.comps[0].diff(1)

    def curl3(self) -> "VecPoly":
        q1, q2, q3 = self.comps
        return VecPoly([
            q3.diff(1) - q2.diff(2),
            q1.diff(2) - q3.diff(0),
            q2.diff(0) - q1.diff(1),
        ])

    def compose_affine(self, A, b) -> "VecPoly":
        return VecPoly([c.compose_affine(A, b) for c in self.comps])

    def almost_zero(self, tol=1e-12) -> bool:
        return all(c.almost_zero(tol) for c in self.comps)

    def to_float(self) -> "VecPoly":
        return VecPoly([c.to_float() for c in self.comps])


def grad(p: Poly) -> VecPoly:
    return VecPoly([p.diff(ax) for ax in range(p.dim)])


class SymPoly:
    """Symmetric 2x2 matrix field (s11, s12, s22) with polynomial entries."""

    __slots__ = ("s11", "s12", "s22")
    __array_ufunc__ = None

    def __init__(self, s11: Poly, s12: Poly, s22: Poly):
        self.s11, self.s12, self.s22 = s11, s12, s22

    @property
    def dim(self):
        return self.s11.dim

    def components(self):
        return (self.s11, self.s12, self.s22)

    def __add__(self, other):
        return SymPoly(self.s11 + other.s11, self.s12 + other.s12, self.s22 + other.s22)

    def __sub__(self, other):
        return SymPoly(self.s11 - other.s11, self.s12 - other.s12, self.s22 - other.s22)

    def __mul__(self, scalar):
        return SymPoly(self.s11 * scalar, self.s12 * scalar, self.s22 * scalar)

    __rmul__ = __mul__

    def div(self) -> VecPoly:
        """Row-wise divergence (d1 s11 + d2 s12, d1 s12 + d2 s22)."""
        return VecPoly([
            self.s11.diff(0) + self.s12.diff(1),
            self.s12.diff(0) + self.s22.diff(1),
        ])

    def eval(self, points) -> np.ndarray:
        """Shape (N, 3), components ordered (s11, s12, s22)."""
        return np.stack([self.s11.eval(points), self.s12.eval(points), self.s22.eval(points)], axis=-1)

    def compose_affine(self, A, b) -> "SymPoly":
        return SymPoly(
            self.s11.compose_affine(A, b),
            self.s12.compose_affine(A, b),
            self.s22.compose_affine(A, b),
        )

    def almost_zero(self, tol=1e-12) -> bool:
        return all(c.almost_zero(tol) for c in self.components())
