"""Oriented simplicial meshes: triangles in 2D, tetrahedra in 3D.

Every entity table is derived deterministically from the top-level
simplices: each k-simplex is stored with strictly increasing vertex
indices and tables are sorted lexicographically.  Storing everything in
ascending order makes the induced orientation of any sub-simplex agree
with its stored orientation, so no local-to-global orientation signs
are needed; tangents run from the lower to the higher vertex index and
2D edge normals are the tangent rotated clockwise by 90 degrees.

Tables are built with whole-array operations: the k-subsimplices of all
cells are gathered at once, each row read as one int64 key in base
num_vertices (`row_keys`), the keys sorted by one argsort, and a new
entity starts wherever a sorted key differs from its predecessor, so a
cumsum of those marks numbers them and yields the cell-to-entity tables
(Logg, "Efficient representation of computational meshes", 2009, with
one key per row in place of one sort pass per column).  Only where the
key would overflow int64 (tetrahedra on more than 55,108 vertices) are
the rows ordered with np.lexsort.  Cell geometry (the affine maps onto
every cell, from cofactors) is computed once, when the mesh is built;
its determinants give the signed volumes and reject degenerate cells.

Text format (comments start with '#'):

    mesh <dim> <nvertices> <nsimplices>
    v <x> <y> [<z>]          one line per vertex
    s <i0> <i1> <i2> [<i3>]  one line per top-level simplex
"""
from __future__ import annotations

import itertools
import math
from io import StringIO

import numpy as np


class MeshFormatError(ValueError):
    """Raised for malformed mesh text or invalid mesh data."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class CellGeometry:
    """Affine maps x = origin + B xi from the reference simplex onto every
    cell (columns of B are v_i - v_0), with det B, B^-1 and |det B|.

    det B and B^-1 come from cofactors (ad - bc and the adjugate in 2D,
    cross products of the columns of B in 3D): elementwise arithmetic, so
    they do not depend on the BLAS/LAPACK build.  A cell of volume
    |det B| / d! at or below 1e-14 scale^d raises MeshFormatError before
    anything is divided by det B, as does a det B or a scale that is not
    finite.  Both sides of that test are taken in units of 2^(k d), 2^k
    the binade of scale, so the floor is finite wherever det B is.
    """

    def __init__(self, vertices: np.ndarray, cells: np.ndarray, scale: float):
        v = vertices[cells]
        dim = v.shape[2]
        self.origin = v[:, 0, :]
        with np.errstate(over="ignore", invalid="ignore"):
            self.B = np.transpose(v[:, 1:, :] - v[:, :1, :], (0, 2, 1))
            if dim == 2:
                (a, b), (c, d) = np.moveaxis(self.B, 0, -1)
                self.detB = a * d - b * c
                adjugate = np.stack([np.stack([d, -b], axis=1), np.stack([-c, a], axis=1)], axis=1)
            else:
                cols = np.moveaxis(self.B, 2, 0)
                # the rows of the adjugate are b1 x b2, b2 x b0, b0 x b1
                adjugate = np.stack([np.cross(cols[(i + 1) % 3], cols[(i + 2) % 3])
                                     for i in range(3)], axis=1)
                self.detB = np.sum(adjugate[:, 0] * cols[0], axis=1)
        if not (math.isfinite(scale) and np.all(np.isfinite(self.detB))):
            raise MeshFormatError("cell volume or coordinate span overflows the float range")
        k = math.frexp(scale)[1]
        if np.any(np.ldexp(np.abs(self.detB), -k * dim) / math.factorial(dim)
                  <= 1e-14 * math.ldexp(scale, -k) ** dim):
            raise MeshFormatError("degenerate simplex (zero volume)")
        self.Binv = adjugate / self.detB[:, None, None]
        self.absdet = np.abs(self.detB)
        for arr in (self.origin, self.B, self.detB, self.Binv, self.absdet):
            arr.setflags(write=False)

    def push_points(self, ref_pts):
        """Reference points to physical points: (nc, nq, dim)."""
        return self.origin[:, None, :] + np.einsum("cij,qj->cqi", self.B, ref_pts)


class Mesh:
    """Conforming simplicial mesh with derived entity tables.

    Parameters
    ----------
    dim : int
        Topological (= geometric) dimension, 2 or 3.
    vertices : array_like, shape (V, dim)
        Vertex coordinates.
    cells : array_like, shape (T, dim+1)
        Top-level simplices as vertex index tuples (any order; they are
        canonicalized to ascending order).
    domain_tag : str
        Free-form description used in reports.
    """

    def __init__(self, dim, vertices, cells, domain_tag=""):
        if dim not in (2, 3):
            raise MeshFormatError(f"unsupported dimension {dim}")
        self.dim = int(dim)
        self.vertices = np.ascontiguousarray(vertices, dtype=float)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != dim:
            raise MeshFormatError("vertex array must have shape (V, dim)")
        if not np.all(np.isfinite(self.vertices)):
            raise MeshFormatError("non-finite vertex coordinate")
        self.domain_tag = domain_tag

        cells = np.asarray(cells, dtype=np.int64)
        if cells.ndim != 2 or cells.shape[1] != dim + 1:
            raise MeshFormatError("cell array must have shape (T, dim+1)")
        if cells.shape[0] == 0:
            raise MeshFormatError("no simplices")
        nv = self.vertices.shape[0]
        if cells.min() < 0 or cells.max() >= nv:
            raise MeshFormatError("vertex index out of range")
        cells = np.sort(cells, axis=1)
        if np.any(cells[:, :-1] == cells[:, 1:]):
            raise MeshFormatError("degenerate simplex (repeated vertex)")
        order, new = _sort_rows(cells, nv)
        if not np.all(new):
            raise MeshFormatError("duplicate simplex")
        cells = cells[order]

        self.entities: list[np.ndarray] = [None] * (dim + 1)
        self._cell_sub: list[np.ndarray] = [None] * (dim + 1)
        self.entities[0] = np.arange(nv, dtype=np.int64).reshape(-1, 1)
        self._cell_sub[0] = cells
        for k in range(1, dim):
            self.entities[k], self._cell_sub[k] = _number_subsimplices(cells, k, nv)
        self.entities[dim] = cells
        self._cell_sub[dim] = np.arange(cells.shape[0], dtype=np.int64).reshape(-1, 1)

        self._derive_boundary()
        self._check_conformity()
        self.geometry = CellGeometry(self.vertices, cells, self.scale())
        for tab in self.entities + self._cell_sub:
            tab.setflags(write=False)
        self.vertices.setflags(write=False)

    # -- derived structure -------------------------------------------------

    def _derive_boundary(self):
        dim = self.dim
        facets = self.entities[dim - 1]
        counts = np.bincount(self._cell_sub[dim - 1].ravel(), minlength=facets.shape[0])
        self._facet_cell_count = counts
        self.boundary: list[np.ndarray] = [None] * (dim + 1)
        self.boundary[dim - 1] = counts == 1
        self.boundary[dim] = np.zeros(self.num_cells, dtype=bool)
        self.boundary[0] = np.zeros(self.num_vertices, dtype=bool)
        self.boundary[0][facets[self.boundary[dim - 1]]] = True
        if dim == 3:
            edges = self.entities[1]
            pairs = facets[self.boundary[2]][:, [[0, 1], [0, 2], [1, 2]]].reshape(-1, 2)
            keys = row_keys(edges, self.num_vertices)   # ascending: the table is sorted
            self.boundary[1] = np.zeros(edges.shape[0], dtype=bool)
            self.boundary[1][np.searchsorted(keys, row_keys(pairs, self.num_vertices))] = True
        for flags in self.boundary:
            flags.setflags(write=False)

    def _check_conformity(self):
        bad = np.nonzero(self._facet_cell_count > 2)[0]
        if bad.size:
            raise MeshFormatError(
                f"non-conforming mesh: facet {bad[0]} shared by {self._facet_cell_count[bad[0]]} cells"
            )

    # -- queries -----------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def num_cells(self) -> int:
        return self.entities[self.dim].shape[0]

    @property
    def cells(self) -> np.ndarray:
        return self.entities[self.dim]

    def num_entities(self, k: int) -> int:
        return self.entities[k].shape[0]

    def cell_subentities(self, k: int) -> np.ndarray:
        """(num_cells, C(dim+1, k+1)) array of global sub-entity ids."""
        return self._cell_sub[k]

    def euler_characteristic(self) -> int:
        return int(sum((-1) ** k * self.num_entities(k) for k in range(self.dim + 1)))

    def scale(self) -> float:
        with np.errstate(over="ignore"):                # an overflow gives inf
            span = self.vertices.max(axis=0) - self.vertices.min(axis=0)
        return float(max(span.max(), 1.0))


def row_keys(rows: np.ndarray, nv: int):
    """One int64 key per row of vertex ids below nv, read as digits in base
    nv, so keys order like the rows lexicographically.  None when nv^ncols
    does not fit in int64 (tetrahedra on more than 55,108 vertices)."""
    if nv ** rows.shape[1] >= 2 ** 63:
        return None
    return np.ravel_multi_index(rows.T, (nv,) * rows.shape[1])


def _sort_rows(rows: np.ndarray, nv: int):
    """Permutation that sorts the rows lexicographically, and whether each
    sorted row differs from its predecessor (True for the first).  Equal
    rows are interchangeable, so one unstable argsort of the row keys
    serves; np.lexsort only where the keys would overflow."""
    keys = row_keys(rows, nv)
    new = np.ones(rows.shape[0], dtype=bool)
    if keys is None:
        order = np.lexsort(rows.T[::-1])
        ranked = rows[order]
        new[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
    else:
        order = np.argsort(keys)
        ranked = keys[order]
        new[1:] = ranked[1:] != ranked[:-1]
    return order, new


def _number_subsimplices(cells: np.ndarray, k: int, nv: int):
    """Sorted table of the k-subsimplices of ascending cells, and the
    (num_cells, C(dim+1, k+1)) map from each cell's local k-subsimplices
    (lexicographic in local vertex indices) to rows of that table."""
    combos = np.array(list(itertools.combinations(range(cells.shape[1]), k + 1)))
    subs = cells[:, combos].reshape(-1, k + 1)
    order, new = _sort_rows(subs, nv)
    ids = np.empty(subs.shape[0], dtype=np.int64)
    ids[order] = np.cumsum(new) - 1
    return subs[order[new]], ids.reshape(cells.shape[0], combos.shape[0])


# -- generators --------------------------------------------------------------


def _band_quads(rings: int, m: int, first: int):
    """Corner ids (a, b, c, d) of the quads between consecutive rings of
    m vertices each, ring r starting at vertex first + r * m."""
    ring, j = np.divmod(np.arange(rings * m), m)
    a = first + ring * m + j
    b = first + ring * m + (j + 1) % m
    return a, b, a + m, b + m


def _ring_vertices(radii, theta):
    """(r cos t, r sin t) for every radius (outer) and angle (inner)."""
    return np.stack([radii[:, None] * np.cos(theta), radii[:, None] * np.sin(theta)], axis=-1).reshape(-1, 2)


def generate_square_mesh(n: int, pattern: str = "uniform", side: float = 1.0) -> Mesh:
    """Structured triangulation of [0, side]^2.

    pattern "uniform": each grid cell split along the same diagonal
    (2 n^2 triangles).  pattern "crossed": each grid cell split into 4
    triangles around its centroid (4 n^2 triangles).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if pattern not in ("uniform", "crossed"):
        raise ValueError(f"unknown pattern {pattern!r}")
    xs = np.linspace(0.0, side, n + 1)
    verts = np.stack(np.meshgrid(xs, xs), axis=-1).reshape(-1, 2)
    j, i = np.divmod(np.arange(n * n), n)
    v00 = j * (n + 1) + i
    v10, v01, v11 = v00 + 1, v00 + n + 1, v00 + n + 2
    if pattern == "uniform":
        cells = np.concatenate([np.stack([v00, v10, v11], axis=1), np.stack([v00, v01, v11], axis=1)])
    else:
        mids = (xs[:-1] + xs[1:]) / 2
        verts = np.vstack([verts, np.stack(np.meshgrid(mids, mids), axis=-1).reshape(-1, 2)])
        centre = (n + 1) ** 2 + np.arange(n * n)
        cells = np.concatenate([np.stack([a, b, centre], axis=1)
                                for a, b in ((v00, v10), (v10, v11), (v11, v01), (v01, v00))])
    tag = f"square(n={n},pattern={pattern},side={side:g})"
    return Mesh(2, verts, cells, domain_tag=tag)


def generate_cube_mesh(n: int, side: float = 1.0) -> Mesh:
    """Kuhn subdivision of [0, side]^3: each grid cube split into the 6
    tetrahedra around its main diagonal.  Identical orientation in every
    cube keeps face diagonals matched, hence the mesh conforming."""
    if n < 1:
        raise ValueError("n must be >= 1")
    xs = np.linspace(0.0, side, n + 1)
    z, y, x = np.meshgrid(xs, xs, xs, indexing="ij")
    verts = np.stack([x, y, z], axis=-1).reshape(-1, 3)
    stride = np.array([1, n + 1, (n + 1) ** 2])
    # each tetrahedron walks from a cube's lowest corner along the axes in one order
    paths = np.array([np.cumsum([0] + [stride[axis] for axis in perm])
                      for perm in itertools.permutations(range(3))])
    k, j, i = np.unravel_index(np.arange(n ** 3), (n, n, n))
    base = (k * (n + 1) + j) * (n + 1) + i
    cells = (base[:, None, None] + paths[None, :, :]).reshape(-1, 4)
    tag = f"cube(n={n},side={side:g})"
    return Mesh(3, verts, cells, domain_tag=tag)


def generate_annulus_mesh(n: int, r_inner: float = 0.5, r_outer: float = 1.0) -> Mesh:
    """Structured annulus with n angular subdivisions.

    The number of radial cell rings is chosen so triangles stay roughly
    isotropic; n=8 with the default radii gives a single ring (16
    vertices, 16 boundary edges).
    """
    if n < 8:
        raise ValueError("n must be >= 8")
    if not (0.0 < r_inner < r_outer):
        raise ValueError("need 0 < r_inner < r_outer")
    rings = max(1, round(n * (r_outer - r_inner) / (np.pi * (r_inner + r_outer))))
    radii = np.linspace(r_inner, r_outer, rings + 1)
    theta = 2.0 * np.pi * np.arange(n) / n
    verts = _ring_vertices(radii, theta)
    a, b, c, d = _band_quads(rings, n, 0)
    cells = np.concatenate([np.stack([a, b, d], axis=1), np.stack([a, c, d], axis=1)])
    tag = f"annulus(n={n},r_inner={r_inner:g},r_outer={r_outer:g})"
    return Mesh(2, verts, cells, domain_tag=tag)


def generate_disk_mesh(n: int, radius: float = 1.0) -> Mesh:
    """Structured disk: a central fan surrounded by n-1 concentric bands,
    all rings carrying 6n vertices."""
    if n < 1:
        raise ValueError("n must be >= 1")
    m = 6 * n
    theta = 2.0 * np.pi * np.arange(m) / m
    radii = radius * np.arange(1, n + 1) / n
    verts = np.vstack([np.zeros((1, 2)), _ring_vertices(radii, theta)])
    j = np.arange(m)
    fan = np.stack([np.zeros(m, dtype=np.int64), 1 + j, 1 + (j + 1) % m], axis=1)
    a, b, c, d = _band_quads(n - 1, m, 1)
    cells = np.concatenate([fan, np.stack([a, b, d], axis=1), np.stack([a, c, d], axis=1)])
    tag = f"disk(n={n},radius={radius:g})"
    return Mesh(2, verts, cells, domain_tag=tag)


def generate_ellipse_mesh(n: int, aspect: float = 3.0) -> Mesh:
    """Disk triangulation stretched affinely along the x axis."""
    disk = generate_disk_mesh(n)
    verts = disk.vertices.copy()
    verts[:, 0] *= aspect
    return Mesh(2, verts, disk.cells, domain_tag=f"ellipse(n={n},aspect={aspect:g})")


# -- text format -------------------------------------------------------------


def read_mesh(source) -> Mesh:
    """Parse the text format from a string or file-like object."""
    if isinstance(source, str):
        source = StringIO(source)
    header = None
    verts: list[tuple[float, ...]] = []
    cells: list[tuple[int, ...]] = []
    dim = nv = ns = None
    for lineno, raw in enumerate(source, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if header is None:
            if fields[0] != "mesh" or len(fields) != 4:
                raise MeshFormatError("malformed header, expected 'mesh <dim> <nv> <ns>'", lineno)
            try:
                dim, nv, ns = (int(f) for f in fields[1:])
            except ValueError:
                raise MeshFormatError("malformed header, expected integers", lineno) from None
            if dim not in (2, 3):
                raise MeshFormatError(f"unsupported dimension {dim}", lineno)
            if ns <= 0:
                raise MeshFormatError("no simplices", lineno)
            header = fields
            continue
        if fields[0] == "v":
            if len(cells):
                raise MeshFormatError("vertex line after simplex lines", lineno)
            if len(fields) != dim + 1:
                raise MeshFormatError(f"malformed vertex line, expected {dim} coordinates", lineno)
            try:
                verts.append(tuple(float(f) for f in fields[1:]))
            except ValueError:
                raise MeshFormatError("malformed vertex coordinate", lineno) from None
        elif fields[0] == "s":
            if len(fields) != dim + 2:
                raise MeshFormatError(f"malformed simplex line, expected {dim + 1} vertex indices", lineno)
            try:
                idx = tuple(int(f) for f in fields[1:])
            except ValueError:
                raise MeshFormatError("malformed vertex index", lineno) from None
            if any(i < 0 or i >= nv for i in idx):
                raise MeshFormatError("vertex index out of range", lineno)
            cells.append(idx)
        else:
            raise MeshFormatError(f"malformed line, unknown record {fields[0]!r}", lineno)
    if header is None:
        raise MeshFormatError("empty mesh file")
    if len(verts) != nv:
        raise MeshFormatError(f"expected {nv} vertices, found {len(verts)}")
    if len(cells) != ns:
        raise MeshFormatError(f"expected {ns} simplices, found {len(cells)}")
    return Mesh(dim, np.array(verts), cells, domain_tag="file")


def write_mesh(mesh: Mesh, stream=None) -> str:
    """Serialize to the text format; returns the text (and writes to
    `stream` when given).  repr() of the coordinates makes the round
    trip bit-exact."""
    lines = [f"mesh {mesh.dim} {mesh.num_vertices} {mesh.num_cells}"]
    for v in mesh.vertices:
        lines.append("v " + " ".join(repr(float(x)) for x in v))
    for cell in mesh.cells:
        lines.append("s " + " ".join(str(int(i)) for i in cell))
    text = "\n".join(lines) + "\n"
    if stream is not None:
        stream.write(text)
    return text
