import numpy as np
import pytest

from whitney.mesh import (
    Mesh,
    generate_annulus_mesh,
    generate_cube_mesh,
    generate_disk_mesh,
    generate_square_mesh,
)


@pytest.fixture(scope="session")
def square4():
    return generate_square_mesh(4, pattern="uniform")


@pytest.fixture(scope="session")
def crossed2():
    return generate_square_mesh(2, pattern="crossed")


@pytest.fixture(scope="session")
def disk2():
    return generate_disk_mesh(2)


@pytest.fixture(scope="session")
def annulus8():
    return generate_annulus_mesh(8)


@pytest.fixture(scope="session")
def cube2():
    return generate_cube_mesh(2)


@pytest.fixture
def rng():
    return np.random.default_rng(20260814)


def _jittered(mesh, h, rng):
    """Interior vertices moved by up to 0.1 h, vertices and cells
    renumbered at random."""
    shift = rng.uniform(-0.1 * h, 0.1 * h, mesh.vertices.shape)
    verts = mesh.vertices + np.where(mesh.boundary[0][:, None], 0.0, shift)
    perm = rng.permutation(mesh.num_vertices)
    renumbered = np.empty_like(verts)
    renumbered[perm] = verts
    return Mesh(mesh.dim, renumbered, perm[mesh.cells][rng.permutation(mesh.num_cells)])


@pytest.fixture(scope="session")
def jittered_meshes():
    """A jittered, renumbered crossed square (n=3) and Kuhn cube (n=2), by dimension."""
    rng = np.random.default_rng(7)
    return {2: _jittered(generate_square_mesh(3, pattern="crossed"), 1.0 / 3.0, rng),
            3: _jittered(generate_cube_mesh(2), 0.5, rng)}
