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
def simplex_rule(dim: int) -> QuadratureRule:
    """Collapsed rule on the unit simplex of dimension 1, 2 or 3, exact to
    degree 9 on the interval and 8 on triangles and tetrahedra.

    Gauss-Legendre on [0, 1] is the rule in one dimension.  Each further
    dimension takes every point p of the previous rule with every node t
    of the Jacobi rule with weight (1 - t)^alpha, alpha the previous
    dimension: the new point is (p (1 - t), t) and its weight the product.
    """
    if dim not in (1, 2, 3):
        raise ValueError(f"no reference simplex rule for dim {dim}")
    x, w = _gauss_01(NPOINTS)
    pts = x[:, None]
    for alpha in range(1, dim):
        t, wt = _jacobi_01(alpha)
        scaled = pts[:, None, :] * (1.0 - t)[None, :, None]
        last = np.broadcast_to(t[None, :, None], scaled.shape[:2] + (1,))
        pts = np.concatenate([scaled, last], axis=2).reshape(-1, alpha + 1)
        w = (w[:, None] * wt[None, :]).ravel()
    return QuadratureRule(pts, w)
