"""The benchmark's workloads: their operations, inputs and verification.

Every operation returns a JSON-able observation that is compared with the
reference recorded at commit e2490f5 (reference.json):

* exit codes, pass flags, strings and integers (zero counts, kernel
  dimensions, cohomology, DOF and entity counts, Euler characteristic)
  must match exactly;
* other floats must match to a relative REL_TOL;
* roundoff-level quantities are held to the package's own tolerances
  through per-operation rules, never to the recorded value.

Inputs come from the seed alone.  `spectral` has fixed inputs because its
reference is analytic on the exact square.
"""
from __future__ import annotations

import contextlib
import fnmatch
import io
import json

import numpy as np

REL_TOL = 1e-6

# Tolerances the package itself applies to these quantities (values as of
# the commit the reference was recorded at).
COMMUTE_TOL = 1e-10           # whitney.cli.COMMUTE_TOL: commuting residuals
DD_RTOL = 1e-12               # whitney.complexes.DD_RTOL: |D_{k+1} D_k|
STRUCTURE_RTOL = 1e-12        # whitney.experiments.STRUCTURE_RTOL: curl-curl vs D^T M D
SPECTRUM_MATCH_RTOL = 1e-8    # whitney.experiments.SPECTRUM_MATCH_RTOL: mixed vs Galerkin
EQUILIBRIUM_TOL = 1e-9        # whitney.experiments.elasticity_convergence pass criterion
RANK_RTOL = 1e-10             # whitney.linalg.RANK_RTOL: full rank needs cond < 1 / RANK_RTOL

SPECTRAL_COMMANDS = (
    "eig maxwell --n 16 --count 10",
    "eig maxwell --family nodal --n 8",
    "eig maxwell-mixed --n 8",
    "eig laplace --n 16 --count 10",
    "complex check --domain annulus --n 16 --betti 1,1,0",
    "complex check --domain cube --n 4 --betti 1,0,0,0",
    "complex commute --domain disk --order 2",
)
SADDLE_COMMANDS = (
    "solve mixed-poisson --ns 4,8,16,24",
    "solve elasticity --ns 4,8,16,32",
    "aw unisolvence --trials 100 --seed {seed}",
)
FINE_N = 128          # crossed square: 4 n^2 = 65,536 cells
JITTER = 0.1          # interior vertices move at most JITTER * h
CUBE_N = 8            # Kuhn cube: 6 n^3 = 3,072 tets


class MissingInput(RuntimeError):
    """An operation needs the result of an earlier operation that failed."""


class Op:
    """One closed-loop step: run(state) -> observation, checked by rules."""

    def __init__(self, name, run, rules=None, expect=None, key=None):
        self.name = name
        self.key = key or name          # entry of reference.json it is checked against
        self.run = run
        self.rules = rules or {}
        # expect(reference entry) -> expected observation for this seed
        self.expect = expect or (lambda ref: ref)

    def verify(self, observed, reference) -> list[str]:
        return compare(observed, self.expect(reference), self.rules)


# -- comparison -------------------------------------------------------------


def _flatten(value, prefix=""):
    if isinstance(value, dict):
        if not value:
            yield prefix, {}
        for key in sorted(value):
            yield from _flatten(value[key], f"{prefix}.{key}" if prefix else str(key))
    elif isinstance(value, (list, tuple)):
        if not value:
            yield prefix, []
        for i, item in enumerate(value):
            yield from _flatten(item, f"{prefix}.{i}")
    else:
        yield prefix, value


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _default(value, ref):
    if _is_number(value) and _is_number(ref) and (isinstance(value, float)
                                                  or isinstance(ref, float)):
        ok = abs(value - ref) <= REL_TOL * abs(ref)
        return None if ok else f"{value!r} != {ref!r} (rel {REL_TOL:g})"
    return None if value == ref and type(value) is type(ref) else f"{value!r} != {ref!r}"


def compare(observed, expected, rules) -> list[str]:
    """Problems found comparing an observation with its expected value.

    rules maps fnmatch patterns over dotted paths to rule(path, value, ref,
    observed) -> problem or None; other leaves are compared exactly, or to
    REL_TOL when either side is a float.
    """
    got = dict(_flatten(observed))
    want = dict(_flatten(expected))
    problems = [f"{p}: missing" for p in sorted(want.keys() - got.keys())]
    problems += [f"{p}: unexpected" for p in sorted(got.keys() - want.keys())]
    for path in sorted(want.keys() & got.keys()):
        value, ref = got[path], want[path]
        rule = next((r for pat, r in rules.items() if fnmatch.fnmatchcase(path, pat)), None)
        problem = rule(path, value, ref, observed) if rule else _default(value, ref)
        if problem:
            problems.append(f"{path}: {problem}")
    return problems


def at_most(bound):
    """Rule: |value| <= bound (a number or a function of the observation)."""

    def rule(path, value, ref, observed):
        limit = bound(observed) if callable(bound) else bound
        return None if abs(value) <= limit else f"|{value!r}| > {limit!r}"

    return rule


def _payload(key):
    return lambda observed: observed["payload"][key]


def _eigenvalue_rule(path, value, ref, observed):
    """Zero-cluster eigenvalues are roundoff: below the report's own threshold."""
    payload = observed["payload"]
    if int(path.rsplit(".", 1)[1]) < payload["zero_count"]:
        limit = payload["zero_threshold"]
        return None if abs(value) <= limit else f"zero-cluster |{value!r}| > {limit!r}"
    return _default(value, ref)


def _worst_cond_rule(path, value, ref, observed):
    """The worst sampled condition number depends on the seed: it must lie
    between the reference triangle's and the package's full-rank limit."""
    lo, hi = observed["payload"]["reference_cond"], 1.0 / RANK_RTOL
    return None if lo <= value < hi else f"{value!r} outside [{lo!r}, {hi!r})"


# -- CLI operations -----------------------------------------------------------


def run_cli(argv) -> dict:
    """whitney.cli.main in-process with stdout captured and parsed."""
    from whitney import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    text = out.getvalue()
    return {"exit": code, "payload": json.loads(text) if text.strip() else None}


def _cli_op(command, seed=None):
    argv = command.format(seed=seed).split()
    rules, expect = {}, None
    if argv[0] == "eig":
        rules["payload.eigenvalues.*"] = _eigenvalue_rule
        rules["payload.notes.equivalence_gap"] = at_most(SPECTRUM_MATCH_RTOL)
    if argv[:2] == ["complex", "commute"]:
        rules["payload.residuals.*"] = at_most(_payload("tolerance"))
        rules["payload.max_residual"] = at_most(_payload("tolerance"))
    if argv[:2] == ["solve", "elasticity"]:
        rules["payload.notes.equilibrium_residuals.*"] = at_most(EQUILIBRIUM_TOL)
    if argv[:2] == ["aw", "unisolvence"]:
        rules["payload.worst_cond"] = _worst_cond_rule

        def expect(ref):
            want = json.loads(json.dumps(ref))
            want["payload"]["seed"] = want["payload"]["config"]["seed"] = seed
            return want

    name = command.split(" --seed")[0]
    return Op(name, lambda state: run_cli(argv), rules, expect)


# -- fine-mesh inputs -----------------------------------------------------------


def jittered_crossed_square(n, rng):
    """Crossed triangulation of the unit square with every interior vertex
    moved by at most JITTER * h and all vertices and cells renumbered."""
    xs = np.linspace(0.0, 1.0, n + 1)
    mids = 0.5 * (xs[:-1] + xs[1:])
    grid = np.stack(np.meshgrid(xs, xs), axis=-1).reshape(-1, 2)
    centres = np.stack(np.meshgrid(mids, mids), axis=-1).reshape(-1, 2)
    vertices = np.vstack([grid, centres])
    j, i = np.divmod(np.arange(n * n), n)
    v00, v10 = j * (n + 1) + i, j * (n + 1) + i + 1
    v01, v11 = v00 + n + 1, v10 + n + 1
    centre = (n + 1) ** 2 + j * n + i
    cells = np.concatenate([np.stack([a, b, centre], axis=1)
                            for a, b in ((v00, v10), (v10, v11), (v11, v01), (v01, v00))])
    on_boundary = np.any((vertices == 0.0) | (vertices == 1.0), axis=1)
    radius = JITTER / n * np.sqrt(rng.random(len(vertices)))
    angle = 2.0 * np.pi * rng.random(len(vertices))
    shift = np.stack([radius * np.cos(angle), radius * np.sin(angle)], axis=1)
    vertices = vertices + np.where(on_boundary[:, None], 0.0, shift)
    perm = rng.permutation(len(vertices))
    renumbered = np.empty_like(vertices)
    renumbered[perm] = vertices
    return renumbered, perm[cells][rng.permutation(len(cells))]


def _cubic(rng):
    """A seeded cubic field and its gradient, in Horner form: the edge
    projection calls the field once per edge, so its cost must stay small
    next to the program's own per-entity work."""
    c00, c10, c01, c20, c11, c02, c30, c21, c12, c03 = rng.uniform(-1.0, 1.0, 10)

    def f(p):
        x, y = p[:, 0], p[:, 1]
        return (c00 + x * (c10 + x * (c20 + c30 * x) + y * (c11 + c21 * x))
                + y * (c01 + y * (c02 + c03 * y + c12 * x)))

    def grad_f(p):
        x, y = p[:, 0], p[:, 1]
        fx = c10 + x * (2 * c20 + 3 * c30 * x + 2 * c21 * y) + y * (c11 + c12 * y)
        fy = c01 + y * (2 * c02 + 3 * c03 * y + 2 * c12 * x) + x * (c11 + c21 * x)
        return np.stack([fx, fy], axis=1)

    return f, grad_f


def _need(state, key):
    if key not in state:
        raise MissingInput(f"input {key!r} from an earlier failed operation")
    return state[key]


def _absmax(A) -> float:
    if hasattr(A, "tocsr"):
        A = A.tocsr()
        return float(abs(A.data).max()) if A.nnz else 0.0
    return float(np.abs(A).max()) if np.size(A) else 0.0


def _mesh_summary(mesh) -> dict:
    v = mesh.vertices[mesh.cells]
    dets = np.linalg.det(v[:, 1:, :] - v[:, :1, :])
    measure = float(np.abs(dets).sum()) / (2 if mesh.dim == 2 else 6)
    return {"entities": [int(mesh.num_entities(k)) for k in range(mesh.dim + 1)],
            "euler_characteristic": int(mesh.euler_characteristic()),
            "boundary_facets": int(np.count_nonzero(mesh.boundary[mesh.dim - 1])),
            "boundary_vertices": int(np.count_nonzero(mesh.boundary[0])),
            "measure_error": abs(measure - 1.0)}


def _complex_summary(cx) -> dict:
    out = {"ndofs": [int(s.ndofs) for s in cx.spaces],
           "free": [int(s.num_free) for s in cx.spaces], "dd_residual": []}
    for D0, D1 in zip(cx.derivatives, cx.derivatives[1:]):
        scale = max(1.0, _absmax(D0) * _absmax(D1))
        out["dd_residual"].append(_absmax(D1 @ D0) / scale)
    return out


def _gap(A, B) -> float:
    """max |A - B| relative to max(|B|, 1), as edge_cavity_system measures it."""
    return _absmax(A - B) / max(_absmax(B), 1.0)


def _constant_field_energy_error(mass, D0, vertices, c) -> float:
    """D0 maps nodal values of the linear c.x to the DOFs of the constant field c,
    whose energy on a unit-measure domain is |c|^2."""
    u = D0 @ (vertices @ c)
    return abs(u @ (mass @ u) - c @ c) / (c @ c)


def fine_mesh_ops(seed):
    from whitney.complexes import derham_complex
    from whitney.mesh import Mesh, generate_cube_mesh
    from whitney.spaces import assemble_mass, assemble_stiffness_like, canonical_projection

    rng = np.random.default_rng(seed)
    vertices, cells = jittered_crossed_square(FINE_N, rng)
    f, grad_f = _cubic(rng)
    c2, c3 = rng.uniform(-1.0, 1.0, 2), rng.uniform(-1.0, 1.0, 3)

    def mesh2d(state):
        state["mesh2d"] = mesh = Mesh(2, vertices, cells, domain_tag="jittered crossed square")
        return _mesh_summary(mesh)

    def complex2d(state):
        state["cx2d"] = cx = derham_complex(_need(state, "mesh2d"), order=1, bc="essential")
        return _complex_summary(cx)

    def mass2d(state):
        cx = _need(state, "cx2d")
        W, Q, V = cx.spaces
        state["MQ"] = MQ = assemble_mass(Q)
        state["MV"] = MV = assemble_mass(V)
        return {"shapes": [list(MQ.shape), list(MV.shape)],
                "dg0_total_error": abs(MV.sum() - 1.0),
                "edge_energy_error": _constant_field_energy_error(
                    MQ, cx.derivatives[0], W.mesh.vertices, c2)}

    def curlcurl2d(state):
        cx = _need(state, "cx2d")
        Q = cx.spaces[1]
        D1 = cx.derivatives[1]
        A = assemble_stiffness_like(Q, Q, "curl")
        return {"shape": list(A.shape),
                "curlcurl_gap": _gap(D1.T @ _need(state, "MV") @ D1, A)}

    def project2d(state):
        cx = _need(state, "cx2d")
        W, Q, _ = cx.spaces
        u0 = canonical_projection(W, f)
        u1 = canonical_projection(Q, grad_f)
        nodal = f(W.mesh.vertices)
        return {"sizes": [int(u0.size), int(u1.size)],
                "nodal_error": _absmax(u0 - nodal) / max(1.0, _absmax(nodal)),
                "commuting_residual": _absmax(cx.derivatives[0] @ u0 - u1)
                / max(1.0, _absmax(u1))}

    def mesh3d(state):
        state["mesh3d"] = mesh = generate_cube_mesh(CUBE_N)
        return _mesh_summary(mesh)

    def complex3d(state):
        state["cx3d"] = cx = derham_complex(_need(state, "mesh3d"), order=1)
        return _complex_summary(cx)

    def mass3d(state):
        cx = _need(state, "cx3d")
        W, E, F, V = cx.spaces
        state["ME"] = ME = assemble_mass(E)
        state["MF"] = MF = assemble_mass(F)
        state["M3"] = M3 = assemble_mass(V)
        return {"shapes": [list(ME.shape), list(MF.shape), list(M3.shape)],
                "dg0_total_error": abs(M3.sum() - 1.0),
                "edge_energy_error": _constant_field_energy_error(
                    ME, cx.derivatives[0], W.mesh.vertices, c3)}

    def forms3d(state):
        cx = _need(state, "cx3d")
        _, E, F, _ = cx.spaces
        _, D1, D2 = cx.derivatives
        CC = assemble_stiffness_like(E, E, "curl")
        DD = assemble_stiffness_like(F, F, "div")
        return {"shapes": [list(CC.shape), list(DD.shape)],
                "curlcurl_gap": _gap(D1.T @ _need(state, "MF") @ D1, CC),
                "divdiv_gap": _gap(D2.T @ _need(state, "M3") @ D2, DD)}

    roundoff = {"measure_error": at_most(STRUCTURE_RTOL),
                "dd_residual.*": at_most(DD_RTOL),
                "dg0_total_error": at_most(STRUCTURE_RTOL),
                "edge_energy_error": at_most(COMMUTE_TOL),
                "*_gap": at_most(STRUCTURE_RTOL),
                "nodal_error": at_most(COMMUTE_TOL),
                "commuting_residual": at_most(COMMUTE_TOL)}
    steps = (mesh2d, complex2d, mass2d, curlcurl2d, project2d,
             mesh3d, complex3d, mass3d, forms3d)
    return [Op(step.__name__, step, roundoff) for step in steps]


# -- registry -------------------------------------------------------------------


def spectral_ops(seed):
    return [_cli_op(command) for command in SPECTRAL_COMMANDS]


def saddle_ops(seed):
    return [_cli_op(command, seed % 2 ** 32) for command in SADDLE_COMMANDS]


SELFCHECK_COMMAND = "complex check --domain annulus --n 8 --betti 1,1,0"


def selfcheck_ops(seed):
    """A verifier self-test: one honest operation, one checked against a
    deliberately wrong expected value, and one that raises inside whitney."""
    from whitney.mesh import generate_square_mesh
    from whitney.spaces import build_space

    honest = _cli_op(SELFCHECK_COMMAND)

    def tampered(ref):
        want = json.loads(json.dumps(ref))
        want["payload"]["levels"][1]["kernel"] += 1
        return want

    wrong = Op("wrong-expected-value", honest.run, expect=tampered, key=honest.key)
    raises = Op("raising-operation",
                lambda state: build_space(generate_square_mesh(2), "no-such-family"))
    return [honest, wrong, raises]


WORKLOADS = {"spectral": spectral_ops, "fine-mesh": fine_mesh_ops,
             "saddle": saddle_ops, "selfcheck": selfcheck_ops}

