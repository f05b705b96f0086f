"""Fixed quadrature rules on reference simplices.

Collapsed (Duffy-type) Gauss-Jacobi products: 5-point Gauss-Legendre in
each direction with Jacobi weights absorbing the simplex Jacobian.  The
resulting rules are exact for all polynomials up to degree 9 on the
interval and at least degree 8 on triangles and tetrahedra, which covers
every product of shape functions, derivatives and moment weights in the
element catalog.  One rule per entity kind, used everywhere, so there is
no quadrature-order tuning anywhere downstream.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

NPOINTS = 5

# scipy.special.roots_jacobi(NPOINTS, alpha, 0.0) on [-1, 1], to the last
# bit (tests/test_quadrature.py checks it): importing scipy.special would
# add ~0.1 s to every start-up for these twenty numbers
_GAUSS_JACOBI = {
    1: ((-0.9203802858970626, -0.6039731642527836, -0.1240503795052277,
         0.39092854670727223, 0.8029298284023472),
        (0.3871263609066059, 0.6686985523774788, 0.5855479483386794,
         0.2956354802904667, 0.0629916580867692)),
    2: ((-0.9308421201635698, -0.6530393584566087, -0.2202272258689614,
         0.26866694526177365, 0.7021084258940329),
        (0.6541182742861681, 1.009591695199291, 0.7136012897727205,
         0.25644480578369516, 0.03291060162479203)),
}


@dataclass(frozen=True)
class QuadratureRule:
    """Points (N, d) and weights (N,) on a reference domain.

    Weights sum to the reference measure: 1 for the parameter interval
    [0, 1], 1/2 for the unit triangle, 1/6 for the unit tetrahedron.
    Both arrays are read-only copies, since the rules are shared.
    """

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        for name in ("points", "weights"):
            arr = np.array(getattr(self, name), dtype=float, order="C")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def _gauss_01(n: int):
    """Gauss-Legendre on [0, 1]; exact to degree 2n-1."""
    x, w = np.polynomial.legendre.leggauss(n)
    return (x + 1.0) / 2.0, w / 2.0


def _jacobi_01(alpha: int):
    """Nodes/weights for int_0^1 g(v) (1-v)^alpha dv; exact for g up to 2 NPOINTS - 1."""
    x, w = map(np.array, _GAUSS_JACOBI[alpha])
    return (x + 1.0) / 2.0, w / 2.0 ** (alpha + 1)


@lru_cache(maxsize=None)
def interval_rule() -> QuadratureRule:
    """Rule on the parameter interval [0, 1], exact to degree 9."""
    x, w = _gauss_01(NPOINTS)
    return QuadratureRule(x.reshape(-1, 1), w)


@lru_cache(maxsize=None)
def triangle_rule() -> QuadratureRule:
    """Collapsed rule on the unit triangle, exact to degree 8."""
    n = NPOINTS
    u, wu = _gauss_01(n)
    v, wv = _jacobi_01(1)
    pts = []
    wts = []
    for i in range(n):
        for j in range(n):
            pts.append((u[i] * (1.0 - v[j]), v[j]))
            wts.append(wu[i] * wv[j])
    return QuadratureRule(np.array(pts), np.array(wts))


@lru_cache(maxsize=None)
def tetrahedron_rule() -> QuadratureRule:
    """Collapsed rule on the unit tetrahedron, exact to degree 8."""
    n = NPOINTS
    u, wu = _gauss_01(n)
    v, wv = _jacobi_01(1)
    w, ww = _jacobi_01(2)
    pts = []
    wts = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                x = u[i] * (1.0 - v[j]) * (1.0 - w[k])
                y = v[j] * (1.0 - w[k])
                z = w[k]
                pts.append((x, y, z))
                wts.append(wu[i] * wv[j] * ww[k])
    return QuadratureRule(np.array(pts), np.array(wts))


def simplex_rule(dim: int) -> QuadratureRule:
    if dim == 1:
        return interval_rule()
    if dim == 2:
        return triangle_rule()
    if dim == 3:
        return tetrahedron_rule()
    raise ValueError(f"no reference simplex rule for dim {dim}")
