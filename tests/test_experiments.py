"""Experiment drivers: spectra, convergence sweeps, stability monitors.

Reference spectra are re-enumerated in the tests by brute force from
the separable eigenfunctions of the pi-square.  The discrete zero modes
of the edge cavity operator are verified to be exact discrete
gradients, not just numerically small.
"""

import json
import pathlib
import runpy
from argparse import Namespace

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from whitney.elements import get_family
from whitney.linalg import CheckFailedError, collapse, complex_ranks
from whitney.mesh import generate_annulus_mesh, generate_disk_mesh, generate_square_mesh
from whitney.spaces import assemble_derivative, assemble_mass, build_space
from whitney.experiments import (
    _l2_error,
    ConvergenceReport,
    _spectrum,
    cavity_reference,
    edge_cavity_system,
    elasticity_convergence,
    galerkin_quasioptimality_demo,
    laplace_eigenvalues,
    maxwell_eigenvalues,
    maxwell_mixed_eigenvalues,
    mixed_poisson_convergence,
    nodal_cavity_system,
    observed_order,
    solve_mixed_poisson,
    solve_poisson,
    square_dirichlet_reference,
)


def test_reference_spectra_by_brute_force():
    dirichlet = sorted(m * m + n * n for m in range(1, 30) for n in range(1, 30))
    assert square_dirichlet_reference(10) == tuple(float(v) for v in dirichlet[:10])
    assert square_dirichlet_reference(10) == (2, 5, 5, 8, 10, 10, 13, 13, 17, 17)
    cavity = sorted(m * m + n * n for m in range(30) for n in range(30) if m + n > 0)
    assert cavity_reference(10) == tuple(float(v) for v in cavity[:10])
    assert cavity_reference(10) == (1, 1, 2, 4, 4, 5, 5, 8, 9, 9)


def test_laplace_upper_bounds_and_rate():
    # n=4 has only 9 interior vertices, so ask for 5 reference values there
    reports = {n: laplace_eigenvalues(n=n, count=min(10, (n - 1) ** 2 - 1))
               for n in (4, 8, 16)}
    for r in reports.values():
        assert r.passed and r.zero_count == 0
        assert np.all(np.diff(r.eigenvalues) >= -1e-12)
        assert all(e >= -1e-10 for e in r.relative_errors)  # Rayleigh-Ritz from above
    l1 = [reports[n].eigenvalues[0] for n in (4, 8, 16)]
    assert l1[0] >= l1[1] >= l1[2] >= 2.0 - 1e-10
    # second-order convergence of the ground state: error ratio about 4
    assert 3.5 < (l1[0] - 2.0) / (l1[1] - 2.0) < 4.5
    assert 3.5 < (l1[1] - 2.0) / (l1[2] - 2.0) < 4.5


def test_laplace_validation_and_ellipse():
    with pytest.raises(ValueError, match="H1"):
        laplace_eigenvalues(family="edge1")
    with pytest.raises(ValueError, match="unknown domain"):
        laplace_eigenvalues(domain="torus")
    r = laplace_eigenvalues(domain="ellipse", n=2)
    assert r.passed and r.reference == () and r.zero_count == 0


@pytest.mark.parametrize("study", [laplace_eigenvalues, maxwell_eigenvalues,
                                   maxwell_mixed_eigenvalues])
@pytest.mark.parametrize("count", [0, -1])
def test_spectrum_studies_need_a_positive_count(study, count):
    # with no reference value compared, a study would pass vacuously or
    # crash on an empty max()
    with pytest.raises(ValueError, match="count must be >= 1"):
        study(n=4, count=count)


def test_edge_cavity_zero_modes_are_gradients():
    system = edge_cavity_system(4)
    lam, vecs = sla.eigh(system.curlcurl.toarray(), system.mass.toarray())
    nz = int(np.searchsorted(lam, 1e-8 * max(abs(lam[0]), abs(lam[-1]))))
    assert nz == system.interior_vertices
    Z = vecs[:, :nz]
    G = system.gradient.toarray()
    coef, *_ = np.linalg.lstsq(G, Z, rcond=None)
    assert np.abs(G @ coef - Z).max() <= 1e-8


def test_cavity_systems_are_sparse_with_exact_rank():
    edge = edge_cavity_system(4)
    for A in (edge.curlcurl, edge.mass, edge.cell_mass):
        assert sp.issparse(A) and A.format == "csr"
    assert edge.rank == edge.curlcurl.shape[0] - edge.interior_vertices
    # the nodal operator belongs to no complex: _spectrum counts its kernel
    # by inertia, and the dense rank must agree
    for pattern in ("uniform", "crossed"):
        nodal = nodal_cavity_system(4, pattern)
        assert sp.issparse(nodal.curlcurl) and sp.issparse(nodal.mass) and nodal.rank is None
        kernel = nodal.curlcurl.shape[0] - np.linalg.matrix_rank(nodal.curlcurl.toarray())
        assert _spectrum(nodal.curlcurl, nodal.mass, None)[1] == kernel


def test_spectrum_rejects_a_rank_off_by_one():
    system = edge_cavity_system(4)
    for kernel in (None, system.gradient):
        lam, zero_count, _ = _spectrum(system.curlcurl, system.mass, system.rank, kernel)
        assert zero_count == lam.size - system.rank == system.interior_vertices
        for rank in (system.rank - 1, system.rank + 1):
            with pytest.raises(CheckFailedError,
                               match="disagrees with rank-based kernel dimension"):
                _spectrum(system.curlcurl, system.mass, rank, kernel)


def _edge_pencil(mesh):
    """(curl-curl, edge mass, gradient, curl rank) on the free DOFs of
    the essential-BC edge space of a 2D mesh."""
    W = build_space(mesh, get_family("lagrange1"), bc="essential")
    Q = build_space(mesh, get_family("edge1"), bc="essential")
    V = build_space(mesh, get_family("dg0"))
    gradient = assemble_derivative(W, Q)[Q.free][:, W.free]
    curl = assemble_derivative(Q, V)[:, Q.free]
    A = (curl.T @ assemble_mass(V) @ curl).tocsr()
    return A, Q.restrict(assemble_mass(Q)), gradient, complex_ranks([gradient, curl])[1]


@pytest.mark.parametrize("domain", ["square", "disk", "annulus"])
def test_collapse_tree_block_is_unimodular(domain):
    # the pairs of the gradient match every interior vertex with its own
    # edge, and the tree block they index has determinant +-1
    mesh = {"square": generate_square_mesh(4, pattern="crossed"),
            "disk": generate_disk_mesh(3), "annulus": generate_annulus_mesh(16)}[domain]
    _, _, G, _ = _edge_pencil(mesh)
    (pairs,), _ = collapse([G])
    vertices, tree = pairs.T
    assert sorted(vertices) == list(range(G.shape[1])) and np.unique(tree).size == tree.size
    assert abs(abs(np.linalg.det(G[tree][:, vertices].toarray())) - 1.0) <= 1e-12


def test_annulus_harmonic_field_stays_in_cotree_block():
    # ker curl is the gradients plus one harmonic field: the kernel block
    # holds one exact zero per gradient column, so the extra zero is computed
    # in the cotree block, and the count still equals size - rank
    A, M, G, rank = _edge_pencil(generate_annulus_mesh(16))
    assert A.shape[0] - rank == G.shape[1] + 1
    lam, zero_count, threshold = _spectrum(A, M, rank, G)
    assert zero_count == A.shape[0] - rank
    assert np.abs(lam[:zero_count]).max() <= threshold < lam[zero_count]
    dense = _spectrum(A, M, rank)[0]
    assert np.all(np.abs(lam[zero_count:] - dense[zero_count:]) <= 1e-10 * dense[zero_count:])


def test_kernel_outside_ker_a_raises():
    # one gradient column with a flipped entry has a curl: the split would
    # drop that coupling, so it refuses
    system = edge_cavity_system(4)
    G = system.gradient.tocsc(copy=True)
    G.data[G.indptr[3]] *= -1.0
    with pytest.raises(CheckFailedError, match="kernel is not in ker A"):
        _spectrum(system.curlcurl, system.mass, system.rank, G)


def test_edge_cavity_spectrum_converges():
    r8 = maxwell_eigenvalues("edge1", n=8)
    assert r8.notes["pattern"] == "crossed"
    assert r8.zero_count == r8.notes["interior_vertices"]
    assert max(abs(e) for e in r8.relative_errors) <= 0.05
    assert not r8.passed              # 1 percent needs a finer mesh
    r12 = maxwell_eigenvalues("edge1", n=12)
    assert r12.passed
    assert max(abs(e) for e in r12.relative_errors) <= 0.01


def test_nodal_cavity_shows_pollution():
    r = maxwell_eigenvalues("nodal", n=8)
    assert r.notes["pattern"] == "uniform"
    assert r.passed
    assert r.notes["band_count"] > 2 * r.notes["expected_band_count"]
    assert len(r.notes["unmatched_reference"]) > 0
    assert r.notes["free_dofs"] == 2 * r.notes["interior_vertices"]
    with pytest.raises(ValueError, match="cavity family"):
        maxwell_eigenvalues("face1")


@pytest.mark.parametrize("n, band", [(12, 67), (16, 103)])
def test_nodal_cavity_verdict_is_the_band_count_on_fine_meshes(n, band):
    """From n = 12 the spurious values fill the band, so every exact value
    has a computed neighbour; the verdict rests on the count alone."""
    r = maxwell_eigenvalues("nodal", n=n)
    assert r.passed
    assert r.notes["band_count"] == band and r.notes["expected_band_count"] == 10
    assert r.notes["unmatched_reference"] == []


def test_mixed_cavity_matches_galerkin():
    r = maxwell_mixed_eigenvalues(n=4)
    assert r.passed and r.zero_count == 0
    assert r.notes["equivalence_gap"] <= 1e-8
    assert r.notes["multiplier_dim"] == len(r.eigenvalues)
    # same discrete eigenvalues as the positive edge spectrum, so the
    # leading ones approximate the true cavity values
    assert abs(r.eigenvalues[0] - 1.0) < 0.2


def test_observed_order_on_synthetic_data():
    hs = (0.5, 0.25, 0.125, 0.0625)
    errors = [3.0 * h ** 2 for h in hs]
    slope, resid = observed_order(hs, errors)
    assert slope == pytest.approx(2.0, abs=1e-12)
    assert resid <= 1e-12
    noisy = [3.0 * h ** 1.5 * (1 + 0.01 * (-1) ** i) for i, h in enumerate(hs)]
    slope, resid = observed_order(hs, noisy)
    assert slope == pytest.approx(1.5, abs=0.1)
    with pytest.raises(ValueError, match="non-positive"):
        observed_order(hs, [1.0, 0.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="two levels"):
        observed_order((0.5,), (1.0,))


def test_convergence_report_validation():
    with pytest.raises(ValueError, match="strictly decreasing"):
        ConvergenceReport("x", (0.5, 0.5), {"e": (1.0, 1.0)}, {}, {})
    with pytest.raises(ValueError, match="does not match"):
        ConvergenceReport("x", (0.5, 0.25), {"e": (1.0,)}, {}, {})
    report = ConvergenceReport("x", (0.5, 0.25), {"e": (1.0, 0.5)}, {"e": 1.0},
                               {"e": 0.0}, notes={"passed": True})
    assert report.passed is True
    assert report.to_dict()["passed"] is True


def test_mixed_poisson_sweep_is_stable():
    report = mixed_poisson_convergence(ns=(2, 4, 8))
    assert report.passed
    assert report.orders["err_u"] >= 0.85
    assert report.orders["err_sigma"] >= 0.85
    gammas = np.asarray(report.infsup)
    assert np.all(gammas > 0.5)
    assert (gammas.max() - gammas.min()) / gammas.min() < 0.10
    assert report.notes["infsup_spread"] < 0.10


def test_mixed_poisson_with_anisotropic_coefficient():
    mesh = generate_square_mesh(4, pattern="crossed")
    _, _, es, eu, gamma = solve_mixed_poisson(mesh, np.diag([2.0, 0.5]))
    assert es > 0 and eu > 0 and 0.5 < gamma < 1.0
    with pytest.raises(ValueError, match="positive definite"):
        solve_mixed_poisson(mesh, np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_poisson_quasioptimality_orders():
    r1 = galerkin_quasioptimality_demo(ns=(4, 8, 16), order=1)
    assert r1.passed and r1.orders["err_h1"] >= 0.9
    r2 = galerkin_quasioptimality_demo(ns=(2, 4, 8), order=2)
    assert r2.passed and r2.orders["err_h1"] >= 1.8
    assert r2.orders["err_l2"] >= 2.5


def test_solve_poisson_zero_load(square4):
    W, u = solve_poisson(square4)
    assert u.shape == (W.ndofs,)
    # default manufactured load gives a nonzero interior solution
    assert np.abs(u).max() > 0
    W0, u0 = solve_poisson(square4, f=lambda pts: np.zeros(len(pts)))
    assert np.abs(u0).max() <= 1e-14


def test_elasticity_sweep_passes():
    report = elasticity_convergence(ns=(2, 4, 8))
    assert report.passed
    assert report.orders["err_u"] >= 1.0
    assert report.orders["err_sigma"] >= 1.0
    assert max(report.notes["equilibrium_residuals"]) <= 1e-9


def test_l2_error_scales_before_squaring():
    # errors of 2^600 times a hand example: their squares overflow, but the
    # norm is 2^600 times the example's, bit for bit; two terms give the
    # square root of the summed squares, and a metric weights components
    pts = np.zeros((1, 2, 2))
    wdet = np.array([[0.25, 0.75]])
    scalar = (pts, wdet, np.array([[3.0, 1.0]]))
    vector = (pts, wdet, np.array([[[1.0, 2.0], [0.0, 4.0]]]))
    zero = lambda p: np.zeros(len(p))
    vzero = lambda p: np.zeros((len(p), 2))
    assert _l2_error((scalar, zero)) == np.sqrt(0.25 * 9 + 0.75)
    assert _l2_error((scalar, zero), (vector, vzero)) == np.sqrt(3.0 + 0.25 * 5 + 0.75 * 16)
    assert _l2_error((vector, vzero, np.array([1.0, 2.0]))) == np.sqrt(0.25 * 9 + 0.75 * 32)
    huge = (pts, wdet, np.ldexp(scalar[2], 600))
    assert _l2_error((huge, zero)) == np.ldexp(_l2_error((scalar, zero)), 600)


def test_elasticity_errors_stay_finite_at_huge_lambda():
    # at lambda = 1e200 the stress errors are ~1e200, whose squares overflow
    report = elasticity_convergence(ns=(2, 4), lam=1e200)
    errors = [e for seq in report.errors.values() for e in seq]
    assert all(np.isfinite(e) and e > 0 for e in errors)
    assert all(np.isfinite(order) for order in report.orders.values())


def test_report_serialization_is_deterministic():
    a = laplace_eigenvalues(n=4).to_dict()
    b = laplace_eigenvalues(n=4).to_dict()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    r = maxwell_eigenvalues("edge1", n=4)
    d = r.to_dict()
    assert set(d) == {"family", "mesh", "eigenvalues", "zero_count", "zero_threshold",
                      "kernel_dim", "reference", "relative_errors", "passed", "notes"}
    assert len(r.positive_eigenvalues) == len(r.eigenvalues) - r.zero_count


def test_cavity_spectra_script_writes_its_reports(tmp_path, capsys):
    # scripts/cavity_spectra.py at small sizes: three parseable reports,
    # and the edge report's zero count is its interior-vertex count
    script = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "cavity_spectra.py"
    run = runpy.run_path(str(script))["run"]
    run(Namespace(n_edge=4, n_nodal=8, n_mixed=4, outdir=tmp_path))
    reports = {name: json.loads((tmp_path / f"cavity_{name}.json").read_text())
               for name in ("edge", "nodal", "mixed")}
    assert reports["edge"]["zero_count"] == reports["edge"]["notes"]["interior_vertices"]
    assert "reports written" in capsys.readouterr().out
