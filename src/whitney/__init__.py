"""whitney: simplicial finite elements for discrete differential complexes.

Spaces of scalar, tangentially continuous, normally continuous and fully
discontinuous piecewise polynomials on oriented simplicial meshes, the
derivative operators connecting them, exactness and commuting-diagram
audits, a conforming symmetric-stress element for plane elasticity, and
the spectral / saddle-point case studies that exercise them.
"""

from . import cli, complexes, elasticity, elements, experiments, linalg, mesh, poly, quadrature, spaces
from .complexes import (
    ComplexReport,
    DiscreteComplex,
    NotAComplexError,
    check_commuting,
    check_exactness,
    compute_infsup,
    derham_complex,
    incidence_matrix,
)
from .elasticity import (
    aw_unisolvence_check,
    build_displacement_space,
    build_stress_space,
    solve_mixed_elasticity,
)
from .elements import ElementFamily, get_family
from .experiments import (
    ConvergenceReport,
    SpectrumReport,
    elasticity_convergence,
    galerkin_quasioptimality_demo,
    laplace_eigenvalues,
    maxwell_eigenvalues,
    maxwell_mixed_eigenvalues,
    mixed_poisson_convergence,
)
from .mesh import Mesh, read_mesh, write_mesh
from .spaces import DiscreteSpace, build_space

__version__ = "0.1.0"

__all__ = [
    "ComplexReport",
    "ConvergenceReport",
    "DiscreteComplex",
    "DiscreteSpace",
    "ElementFamily",
    "Mesh",
    "NotAComplexError",
    "SpectrumReport",
    "aw_unisolvence_check",
    "build_displacement_space",
    "build_space",
    "build_stress_space",
    "check_commuting",
    "check_exactness",
    "cli",
    "complexes",
    "compute_infsup",
    "derham_complex",
    "elasticity",
    "elasticity_convergence",
    "elements",
    "experiments",
    "galerkin_quasioptimality_demo",
    "get_family",
    "incidence_matrix",
    "laplace_eigenvalues",
    "linalg",
    "maxwell_eigenvalues",
    "maxwell_mixed_eigenvalues",
    "mesh",
    "mixed_poisson_convergence",
    "poly",
    "quadrature",
    "read_mesh",
    "solve_mixed_elasticity",
    "spaces",
    "write_mesh",
]
