"""End-to-end acceptance battery for the whole library.

Each test checks one headline property at its stated tolerance and
prints a single PASS/FAIL line with the measured number. The lines are
emitted outside pytest's capture so they always reach the terminal.
The expensive runs are shared across tests through module fixtures.
"""

import json

import numpy as np
import pytest

from whitney.cli import main
from whitney.complexes import check_commuting, check_exactness, derham_complex
from whitney.elasticity import commutativity_residual
from whitney.experiments import (
    cavity_reference,
    elasticity_convergence,
    laplace_eigenvalues,
    maxwell_eigenvalues,
    maxwell_mixed_eigenvalues,
    mixed_poisson_convergence,
    observed_order,
)
from whitney.linalg import complex_ranks
from whitney.mesh import (
    generate_annulus_mesh,
    generate_cube_mesh,
    generate_disk_mesh,
    generate_square_mesh,
)


# fd-level capture swallows plain prints, so _line reports through the
# current test's capsys.disabled() when one is active.
_CAPSYS = None


@pytest.fixture(autouse=True)
def _terminal(capsys):
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def _line(index, name, ok, detail):
    text = f"[{index:>2}/10] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    if _CAPSYS is None:
        print(text)
    else:
        with _CAPSYS.disabled():
            print(text)
    return ok


@pytest.fixture(scope="module")
def edge16():
    return maxwell_eigenvalues("edge1", n=16, pattern="crossed")


@pytest.fixture(scope="module")
def nodal8():
    return maxwell_eigenvalues("nodal", n=8, pattern="uniform")


@pytest.fixture(scope="module")
def nodal12():
    return maxwell_eigenvalues("nodal", n=12, pattern="uniform")


@pytest.fixture(scope="module")
def mixed_poisson_sweep():
    return mixed_poisson_convergence(ns=(4, 8, 16, 32))


@pytest.fixture(scope="module")
def elasticity_sweep():
    return elasticity_convergence(ns=(4, 8, 16), lam=1.0, mu=1.0)


def test_edge_cavity_eigenvalues_within_1_percent(edge16):
    assert edge16.reference == cavity_reference(10) == (1, 1, 2, 4, 4, 5, 5, 8, 9, 9)
    worst = max(abs(e) for e in edge16.relative_errors)
    ok = edge16.passed and worst <= 0.01 and len(edge16.relative_errors) == 10
    assert _line(1, "edge cavity eigenvalue accuracy", ok,
                 f"max rel err {worst:.3%}, tol 1%")


def test_cavity_zero_modes_equal_interior_vertices(edge16):
    # ker curl on the free edges, from the exact rank of the curl
    mesh = generate_square_mesh(16, pattern="crossed", side=np.pi)
    curl = derham_complex(mesh, bc="essential").restricted_derivative(1)
    kernel = curl.shape[1] - complex_ranks([curl])[0]
    interior = edge16.notes["interior_vertices"]
    ok = edge16.zero_count == interior == kernel
    assert _line(2, "cavity kernel counts interior vertices", ok,
                 f"zeros {edge16.zero_count}, interior {interior}, "
                 f"free edges - rank curl {kernel}")


def test_nodal_cavity_spectrum_is_polluted(nodal8, nodal12):
    # at n = 8 some exact values have no computed value within 5 %; from
    # n = 12 the spurious values fill the band, and only the count shows it
    unmatched = nodal8.notes["unmatched_reference"]
    ok = len(unmatched) > 0
    counts = []
    for rep in (nodal8, nodal12):
        band, expected = rep.notes["band_count"], rep.notes["expected_band_count"]
        ok = ok and rep.passed and (band > 2 * expected or band < expected / 2)
        counts.append(f"{band} eigenvalues in (0,10) vs {expected} exact")
    assert _line(3, "nodal cavity spectrum pollution", ok,
                 f"n=8: {counts[0]}, no match within 5% for {unmatched}; n=12: {counts[1]}")


def test_mixed_and_galerkin_cavity_spectra_agree():
    gaps = []
    for n in (4, 8):
        rep = maxwell_mixed_eigenvalues(n=n)
        assert rep.passed and rep.zero_count == 0
        gaps.append(rep.notes["equivalence_gap"])
    ok = max(gaps) <= 1e-8
    assert _line(4, "mixed equals Galerkin cavity spectrum", ok,
                 f"max relative gap {max(gaps):.2e}, tol 1e-8")


def test_cohomology_matches_topology_and_dd_is_zero():
    disk = check_exactness(derham_complex(generate_disk_mesh(2)), (1, 0, 0))
    annulus = check_exactness(derham_complex(generate_annulus_mesh(8)), (1, 1, 0))
    cubes = []
    comp_max = 0.0
    for n in (1, 2):
        cx = derham_complex(generate_cube_mesh(n))
        for k in range(len(cx) - 2):
            comp = (cx.derivatives[k + 1] @ cx.derivatives[k]).toarray()
            comp_max = max(comp_max, np.abs(comp).max())
        cubes.append(check_exactness(cx, (1, 0, 0, 0)))
    sums_ok = (disk.alternating_sum == 1 and annulus.alternating_sum == 0
               and all(c.alternating_sum == 1 for c in cubes))
    ok = (disk.passed and annulus.passed and all(c.passed for c in cubes)
          and comp_max == 0.0 and sums_ok)
    assert _line(5, "exactness matches topology", ok,
                 f"disk {disk.passed}, annulus {annulus.passed}, "
                 f"cubes {[c.passed for c in cubes]}, |DD| = {comp_max:.1e}")


def test_projections_commute_with_derivatives():
    worst_derham = 0.0
    for cx in (derham_complex(generate_square_mesh(4), order=1),
               derham_complex(generate_square_mesh(4), order=2),
               derham_complex(generate_cube_mesh(2))):
        worst_derham = max(worst_derham, float(check_commuting(cx, degree=3).max()))
    aw = commutativity_residual(generate_square_mesh(4), degree=3)
    ok = worst_derham <= 1e-10 and aw <= 1e-9
    assert _line(6, "commuting interpolation diagrams", ok,
                 f"graded max {worst_derham:.2e} (tol 1e-10), "
                 f"stress {aw:.2e} (tol 1e-9)")


def test_mixed_poisson_rates_and_infsup(mixed_poisson_sweep):
    rep = mixed_poisson_sweep
    gammas = np.asarray(rep.infsup)
    spread = (gammas.max() - gammas.min()) / gammas.min()
    ok = (rep.passed and rep.orders["err_u"] >= 0.9
          and rep.orders["err_sigma"] >= 0.9 and spread < 0.10)
    assert _line(7, "mixed Poisson convergence and inf-sup", ok,
                 f"orders u {rep.orders['err_u']:.3f}, sigma "
                 f"{rep.orders['err_sigma']:.3f} (tol 0.9); "
                 f"inf-sup spread {spread:.2%} (tol 10%)")


def test_laplace_ground_state_rate():
    ns = (4, 8, 16)
    errors, hs = [], []
    for n in ns:
        rep = laplace_eigenvalues(n=n, count=5)
        assert rep.zero_count == 0
        assert all(e >= -1e-10 for e in rep.relative_errors)
        errors.append(rep.eigenvalues[0] - 2.0)
        hs.append(1.0 / n)
    order, _ = observed_order(hs, errors)
    ok = order >= 1.8
    assert _line(8, "Laplace ground-state eigenvalue rate", ok,
                 f"observed order {order:.2f}, tol 1.8")


def test_stress_element_unisolvence(capsys):
    code = main(["aw", "unisolvence"])
    payload = json.loads(capsys.readouterr().out)
    ok = (code == 0 and payload["pass"] and payload["reference_rank"] == 24
          and payload["trials"] == 100 and payload["failures"] == 0)
    assert _line(9, "stress element unisolvence", ok,
                 f"reference rank {payload['reference_rank']}, "
                 f"{payload['failures']} failures in {payload['trials']} trials")


def test_mixed_elasticity_rates_and_equilibrium(elasticity_sweep):
    rep = elasticity_sweep
    resid = max(rep.notes["equilibrium_residuals"])
    ok = (rep.passed and rep.orders["err_u"] >= 1.0
          and rep.orders["err_sigma"] >= 1.0 and resid <= 1e-9)
    assert _line(10, "mixed elasticity convergence", ok,
                 f"orders u {rep.orders['err_u']:.3f}, sigma "
                 f"{rep.orders['err_sigma']:.3f} (tol 1); equilibrium "
                 f"residual {resid:.1e} (tol 1e-9)")
