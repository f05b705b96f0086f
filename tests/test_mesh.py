"""Mesh construction, derived tables and the text format.

Counting oracles are closed-form: the uniform square pattern has
(n+1)^2 vertices and 2 n^2 triangles, the crossed pattern adds a
center vertex per square, and Euler characteristic chi = V - E + F
must be 1 for disk-like domains and 0 for the annulus.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from whitney.mesh import (
    Mesh,
    MeshFormatError,
    generate_annulus_mesh,
    generate_cube_mesh,
    generate_disk_mesh,
    generate_ellipse_mesh,
    generate_square_mesh,
    read_mesh,
    write_mesh,
)


def test_uniform_square_counts():
    mesh = generate_square_mesh(2, pattern="uniform")
    assert (mesh.num_vertices, mesh.num_entities(1), mesh.num_cells) == (9, 16, 8)
    assert mesh.euler_characteristic() == 1


def test_crossed_square_counts():
    mesh = generate_square_mesh(1, pattern="crossed")
    # one square: 4 corners + 1 center, 4 triangles, E = V + F - 1 = 8
    assert (mesh.num_vertices, mesh.num_entities(1), mesh.num_cells) == (5, 8, 4)
    assert mesh.euler_characteristic() == 1


def test_cube_counts():
    mesh = generate_cube_mesh(1)
    # one cube split into 6 tetrahedra sharing the main diagonal
    assert (mesh.num_vertices, mesh.num_entities(1),
            mesh.num_entities(2), mesh.num_cells) == (8, 19, 18, 6)
    assert mesh.euler_characteristic() == 1


def test_annulus_topology(annulus8):
    assert annulus8.euler_characteristic() == 0
    # two boundary circles, all 2n boundary edges
    assert int(np.count_nonzero(annulus8.boundary[1])) == 16


def test_boundary_flags_square(square4):
    assert int(np.count_nonzero(square4.boundary[0])) == 16
    assert int(np.count_nonzero(square4.boundary[1])) == 16
    assert not square4.boundary[2].any()


def test_cell_volumes_positive_total():
    mesh = generate_square_mesh(3, pattern="crossed", side=2.0)
    assert np.isclose(np.abs(mesh.signed_cell_volumes()).sum(), 4.0)
    disk = generate_disk_mesh(3)
    assert np.abs(disk.signed_cell_volumes()).sum() < np.pi  # inscribed polygon


def test_entities_stored_ascending(cube2):
    for k in range(1, 4):
        tab = cube2.entities[k]
        assert np.all(np.diff(tab, axis=1) > 0)


def test_rows_are_strictly_ascending(disk2, cube2):
    """The invariant that makes orientation signs unnecessary: every
    entity row and every cell row is strictly ascending, so each cell's
    local sub-simplices (ascending local index tuples) are the stored
    entities in the stored vertex order."""
    rng = np.random.default_rng(11)
    base = generate_square_mesh(3, pattern="crossed")
    shift = np.where(base.boundary[0][:, None], 0.0, rng.uniform(-0.03, 0.03, base.vertices.shape))
    perm = rng.permutation(base.num_vertices)
    verts = np.empty_like(base.vertices)
    verts[perm] = base.vertices + shift
    jittered = Mesh(2, verts, perm[base.cells][rng.permutation(base.num_cells)])
    for mesh in (disk2, jittered, cube2):
        assert np.all(np.diff(mesh.cells, axis=1) > 0)
        for k in range(mesh.dim + 1):
            assert np.all(np.diff(mesh.entities[k], axis=1) > 0)
            combos = list(itertools.combinations(range(mesh.dim + 1), k + 1))
            assert np.array_equal(mesh.entities[k][mesh.cell_subentities(k)],
                                  mesh.cells[:, combos])


def test_entity_measures_sum(square4):
    assert np.isclose(square4.entity_measures(2).sum(), 1.0)
    # interior edges counted once; total length exceeds the perimeter
    assert square4.entity_measures(1).sum() > 4.0


def test_nonconforming_mesh_rejected():
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [-1.0, 1.0]])
    cells = [(0, 1, 2), (1, 2, 3), (0, 2, 4), (1, 2, 4)]  # edge (1,2) in 3 cells
    with pytest.raises(MeshFormatError, match="non-conforming"):
        Mesh(2, verts, cells)


def test_degenerate_cell_rejected():
    # rejected before det B divides anything: a RuntimeWarning would fail the test
    verts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(MeshFormatError, match="degenerate"):
        Mesh(2, verts, [(0, 1, 2)])
    flat = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0],
                     [0.0, 0.0, 1.0]])
    with pytest.raises(MeshFormatError, match="degenerate"):
        Mesh(3, flat, [(0, 1, 2, 4), (1, 2, 3, 4), (0, 1, 2, 3)])


@pytest.mark.parametrize("dim", [2, 3])
def test_cofactor_geometry_matches_lapack(jittered_meshes, dim):
    mesh = jittered_meshes[dim]
    geo = mesh.geometry
    det, inv = np.linalg.det(geo.B), np.linalg.inv(geo.B)
    assert np.all(np.abs(geo.detB - det) <= 1e-14 * np.abs(det))
    assert np.all(np.abs(geo.Binv - inv) <= 1e-14 * np.abs(inv).max(axis=(1, 2))[:, None, None])
    assert np.abs(geo.Binv @ geo.B - np.eye(dim)).max() <= 1e-14
    assert np.array_equal(geo.absdet, np.abs(geo.detB))
    assert np.array_equal(mesh.signed_cell_volumes(), geo.detB / math.factorial(dim))


def test_roundtrip_bit_exact(disk2):
    text = write_mesh(disk2)
    back = read_mesh(text)
    assert np.array_equal(back.vertices, disk2.vertices)
    assert np.array_equal(back.cells, disk2.cells)
    assert write_mesh(back) == text


def test_parse_error_line_numbers():
    with pytest.raises(MeshFormatError) as err:
        read_mesh("mesh 2 3 1\nv 0 0\nv 1 0\nv zero 1\ns 0 1 2\n")
    assert err.value.line == 4
    with pytest.raises(MeshFormatError) as err:
        read_mesh("mesh 2 3 1\nv 0 0\nv 1 0\nv 0 1\ns 0 1 7\n")
    assert err.value.line == 5
    with pytest.raises(MeshFormatError, match="header"):
        read_mesh("grid 2 3 1\n")
    with pytest.raises(MeshFormatError, match="empty"):
        read_mesh("# nothing here\n")


def test_comments_and_blank_lines_ignored():
    mesh = read_mesh(
        "# a mesh\nmesh 2 3 1\n\nv 0 0  # origin\nv 1 0\nv 0 1\ns 0 1 2\n")
    assert mesh.num_cells == 1


@settings(deadline=None, max_examples=20)
@given(st.integers(1, 5), st.sampled_from(["uniform", "crossed"]))
def test_square_generator_invariants(n, pattern):
    mesh = generate_square_mesh(n, pattern=pattern)
    v, e, f = (mesh.num_entities(k) for k in range(3))
    assert v - e + f == 1
    expected_cells = 2 * n * n if pattern == "uniform" else 4 * n * n
    assert f == expected_cells
    assert int(np.count_nonzero(mesh.boundary[1])) == 4 * n
    # round trip through the text format preserves everything
    back = read_mesh(write_mesh(mesh))
    assert np.array_equal(back.vertices, mesh.vertices)
    assert np.array_equal(back.cells, mesh.cells)


@settings(deadline=None, max_examples=10)
@given(st.integers(1, 4))
def test_disk_and_ellipse_topology(n):
    for mesh in (generate_disk_mesh(n), generate_ellipse_mesh(n)):
        assert mesh.euler_characteristic() == 1
    ann = generate_annulus_mesh(8 * n)
    assert ann.euler_characteristic() == 0


def test_entity_id_lookup(square4):
    edge = tuple(square4.entities[1][5].tolist())
    assert square4.entity_id(1, edge) == 5
    assert square4.entity_id(1, edge[::-1]) == 5  # order-insensitive
    with pytest.raises(KeyError):
        square4.entity_id(1, (0, 24))
    with pytest.raises(KeyError):
        square4.entity_id(1, (0, 1, 2))


def test_geometry_is_cached_and_read_only(crossed2):
    geo = crossed2.geometry
    assert crossed2.geometry is geo
    assert np.allclose(geo.absdet.sum() / 2.0, 1.0)
    with pytest.raises(ValueError):
        geo.B[0, 0, 0] = 2.0
