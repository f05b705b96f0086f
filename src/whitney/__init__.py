"""whitney: simplicial finite elements for discrete differential complexes.

Spaces of scalar, tangentially continuous, normally continuous and fully
discontinuous piecewise polynomials on oriented simplicial meshes, the
derivative operators connecting them, exactness and commuting-diagram
audits, a conforming symmetric-stress element for plane elasticity, and
the spectral / saddle-point case studies that exercise them.
"""

from . import cli, complexes, elasticity, elements, experiments, linalg, mesh, poly, quadrature, spaces

__version__ = "0.1.0"

__all__ = ["cli", "complexes", "elasticity", "elements", "experiments", "linalg", "mesh",
           "poly", "quadrature", "spaces"]
