"""Per-layer tracing of whitney from outside the package.

`Tracer.install()` wraps the public functions of each layer and rebinds
every `whitney.*` module namespace (and class) that holds them, so
callers that imported a name with `from .spaces import assemble_mass`
are traced as well.  Each call becomes a span (name, start, end, parent
span, run id); spans stay in memory and `write()` saves them when the
run ends.  A layer's self time is the summed duration of its spans minus
the time covered by their direct child spans.

`Poly.eval` and friends run ~10^5 times per commuting audit, too often
for one span per call: their time and count are aggregated into the
enclosing span instead, so the callers' self times still exclude poly
time.  Count hooks read operand shapes and return values at the span
boundary; their own cost is charged to the trace, not to any layer.
"""
from __future__ import annotations

import functools
import importlib
import json
import math
import sys
import time

LAYERS = ("mesh", "poly", "elements", "spaces", "linalg", "complexes",
          "elasticity", "experiments", "cli")

# layer -> public callables of whitney.<layer> that become spans;
# "Class.name" is a method or property.  Targets missing from the
# program are skipped and listed in the report.
SPAN_TARGETS = {
    "mesh": ("Mesh.__init__", "Mesh.signed_cell_volumes", "Mesh.entity_measures",
             "Mesh.euler_characteristic", "generate_square_mesh", "generate_cube_mesh",
             "generate_disk_mesh", "generate_annulus_mesh", "generate_ellipse_mesh",
             "read_mesh", "write_mesh"),
    "elements": ("get_family", "ElementFamily.__init__", "ElementFamily.nodal_basis",
                 "ElementFamily.nodal_derivatives", "ElementFamily.tabulate",
                 "ElementFamily.tabulate_derivative", "local_derivative_matrix",
                 "apply_dofs"),
    "spaces": ("build_space", "cell_geometry", "DiscreteSpace.restrict",
               "assemble_stiffness_like", "assemble_mass", "assemble_derivative",
               "assemble_load", "assemble_component_products", "canonical_projection",
               "evaluate_on_cells", "evaluate_derivative_on_cells"),
    "linalg": ("as_dense", "check_symmetric", "cholesky_solve",
               "symmetric_indefinite_solve", "generalized_symmetric_eig",
               "numerical_rank", "integer_rank"),
    "complexes": ("derham_complex", "incidence_matrix",
                  "DiscreteComplex.restricted_derivative", "check_exactness",
                  "check_commuting", "compute_infsup", "check_s1"),
    "elasticity": ("aw_shape_space", "aw_nodal_basis", "aw_unisolvence_check",
                   "build_stress_space", "build_displacement_space", "displacement_mass",
                   "displacement_projection", "evaluate_displacement", "evaluate_stress",
                   "assemble_compliance", "assemble_divergence", "assemble_coupling",
                   "load_vector", "interpolate_stress", "commutativity_residual",
                   "solve_mixed_elasticity"),
    "experiments": ("observed_order", "laplace_eigenvalues", "edge_cavity_system",
                    "nodal_cavity_system", "maxwell_eigenvalues",
                    "maxwell_mixed_eigenvalues", "solve_mixed_poisson",
                    "mixed_poisson_convergence", "solve_poisson",
                    "galerkin_quasioptimality_demo", "elasticity_convergence"),
    "cli": ("main", "build_parser", "canonical_json", "emit_csv"),
}
POLY_TARGETS = ("Poly.eval", "VecPoly.eval", "SymPoly.eval")

# inclusive-time groups: the summed duration of the outermost spans of
# the group (a span nested inside another of the same group adds nothing)
GROUPS = {
    "spaces.assemble_s": ("spaces:assemble_mass", "spaces:assemble_stiffness_like",
                          "spaces:assemble_derivative", "spaces:assemble_load",
                          "spaces:assemble_component_products"),
    "spaces.project_s": ("spaces:canonical_projection",),
    "linalg.eig_s": ("linalg:generalized_symmetric_eig",),
    "linalg.rank_s": ("linalg:numerical_rank", "linalg:integer_rank"),
    "linalg.solve_s": ("linalg:cholesky_solve", "linalg:symmetric_indefinite_solve"),
    "complexes.exactness_s": ("complexes:check_exactness",),
    "complexes.commuting_s": ("complexes:check_commuting",),
    "complexes.infsup_s": ("complexes:compute_infsup",),
    "elasticity.build_s": ("elasticity:build_stress_space",),
    "elasticity.assemble_s": ("elasticity:assemble_compliance", "elasticity:assemble_divergence",
                              "elasticity:assemble_coupling"),
}

# counters filled by the hooks below, reported as they stand
COUNTERS = ("mesh.cells", "poly.evals", "elements.families_built", "spaces.dofs",
            "spaces.nnz_stored", "linalg.dense_order_max", "linalg.dense_mb",
            "linalg.flop_est", "elasticity.cells")

# every per-layer metric a traced run reports, with its unit
METRIC_UNITS = {}
for _layer in LAYERS:
    METRIC_UNITS[f"{_layer}.self_s"] = "s"
    METRIC_UNITS[f"{_layer}.calls"] = "count"
    METRIC_UNITS[f"{_layer}.errors"] = "count"
METRIC_UNITS.update({name: "s" for name in GROUPS})
METRIC_UNITS.update({name: "count" for name in COUNTERS})
METRIC_UNITS.update({"linalg.dense_mb": "MB", "linalg.flop_est": "flop",
                     "spaces.nnz_useful_ratio": "ratio",
                     "trace.overhead_s": "s", "trace.count_mismatches": "count"})

# metrics that must repeat exactly between traced runs of one seed
COUNT_METRICS = tuple(sorted(name for name, unit in METRIC_UNITS.items()
                             if unit != "s" and not name.startswith("trace.")))

_DENSIFYING = {"generalized_symmetric_eig", "numerical_rank", "integer_rank", "cholesky_solve"}


def _is_sparse(a) -> bool:
    return hasattr(a, "tocsr") and hasattr(a, "nnz")


def _count_mesh_cells(tracer, span, args, kwargs, result):
    tracer.counters["mesh.cells"] += args[0].num_cells


def _count_family(tracer, span, args, kwargs, result):
    tracer.counters["elements.families_built"] += 1


def _count_dofs(tracer, span, args, kwargs, result):
    tracer.counters["spaces.dofs"] += result.ndofs


def _count_nnz(tracer, span, args, kwargs, result):
    """Stored versus true nonzeros of the matrices the outermost assembly returns."""
    if tracer.inside_group(span, GROUPS["spaces.assemble_s"]) or not _is_sparse(result):
        return
    tracer.counters["spaces.nnz_stored"] += int(result.nnz)
    tracer.nnz_true += int((result.data != 0).sum())


def _count_stress_cells(tracer, span, args, kwargs, result):
    tracer.counters["elasticity.cells"] += args[0].num_cells


def _linalg_hook(name):
    """Dense order, operand megabytes and a flop estimate, all computed from
    operand shapes (sparse operands count as dense where the call densifies
    them; a sparse LU has no shape-only estimate and adds no flops)."""

    def hook(tracer, span, args, kwargs, result):
        operands = [a for a in (*args, *kwargs.values()) if hasattr(a, "shape")]
        dense = [a for a in operands if name in _DENSIFYING or not _is_sparse(a)]
        mats = [a for a in dense if len(a.shape) == 2]
        order = max((max(a.shape) for a in mats), default=0)
        nbytes = sum(8 * math.prod(a.shape) for a in dense)
        c = tracer.counters
        c["linalg.dense_order_max"] = max(c["linalg.dense_order_max"], order)
        c["linalg.dense_mb"] = max(c["linalg.dense_mb"], nbytes / 1e6)
        if not mats:
            return
        m, n = mats[0].shape
        rhs = math.prod(operands[1].shape[1:]) if len(operands) > 1 else 1
        if name == "generalized_symmetric_eig":
            # potrf n^3/3 + sygst n^3 + syevd ~11n^3/3 + back-transform and trsm 2n^3
            flops = 7 * n ** 3
        elif name == "numerical_rank":
            big, small = max(m, n), min(m, n)
            flops = 4 * big * small ** 2 - 4 * small ** 3 / 3       # bidiagonalisation
        elif name == "integer_rank":
            r = int(result)
            flops = 3 * n * (r * m - r * (r + 1) / 2)               # Bareiss row updates
        elif name == "cholesky_solve":
            flops = n ** 3 / 3 + 2 * n ** 2 * rhs
        else:                                                      # dense LU + refinement
            flops = 2 * n ** 3 / 3 + 6 * n ** 2 * rhs
        c["linalg.flop_est"] += flops

    return hook


HOOKS = {
    "mesh:Mesh.__init__": _count_mesh_cells,
    "elements:ElementFamily.__init__": _count_family,
    "spaces:build_space": _count_dofs,
    "elasticity:build_stress_space": _count_stress_cells,
}
HOOKS.update({name: _count_nnz for name in GROUPS["spaces.assemble_s"]})
HOOKS.update({f"linalg:{fn}": _linalg_hook(fn)
              for fn in ("generalized_symmetric_eig", "numerical_rank", "integer_rank",
                         "cholesky_solve", "symmetric_indefinite_solve")})


class Tracer:
    """Spans and counters of one run; install() before the workload starts."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        # span: [name index, start, end, parent index or -1, ok, child seconds]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters = {name: 0 for name in COUNTERS}
        self.nnz_true = 0
        self.poly_s = 0.0
        self.poly_errors = 0
        self.poly_depth = 0
        self.hook_s = 0.0
        self.patched: dict[str, int] = {}
        self.missing: list[str] = []

    # -- spans ---------------------------------------------------------------

    def _span(self, name_index, fn, hook):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack = tracer.spans, tracer.stack
            idx = len(spans)
            span = [name_index, 0.0, 0.0, stack[-1] if stack else -1, False, 0.0]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
                span[4] = True
            finally:
                span[2] = clock()
                stack.pop()
                if stack:
                    spans[stack[-1]][5] += span[2] - span[1]
            if hook is not None:
                t = clock()
                hook(tracer, idx, args, kwargs, result)
                dt = clock() - t
                tracer.hook_s += dt
                if stack:
                    spans[stack[-1]][5] += dt
            return result

        return traced

    def _poly(self, fn):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.poly_depth:
                return fn(*args, **kwargs)
            tracer.poly_depth = 1
            t = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                tracer.poly_errors += 1
                raise
            finally:
                dt = clock() - t
                tracer.poly_depth = 0
                tracer.poly_s += dt
                tracer.counters["poly.evals"] += 1
                if tracer.stack:
                    tracer.spans[tracer.stack[-1]][5] += dt

        return traced

    def inside_group(self, idx: int, group) -> bool:
        parent = self.spans[idx][3]
        while parent >= 0:
            if self.names[self.spans[parent][0]] in group:
                return True
            parent = self.spans[parent][3]
        return False

    # -- installation ----------------------------------------------------------

    def install(self) -> "Tracer":
        targets = [(layer, path) for layer, paths in SPAN_TARGETS.items() for path in paths]
        targets += [("poly", path) for path in POLY_TARGETS]
        for layer, path in targets:
            module = importlib.import_module(f"whitney.{layer}")
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            raw = owner.__dict__.get(attr) if owner is not None else None
            if raw is None:
                self.missing.append(f"{layer}:{path}")
                continue
            name = f"{layer}:{path}"
            if layer == "poly":
                make = self._poly
            else:
                self.names.append(name)
                make = functools.partial(self._span, len(self.names) - 1,
                                         hook=HOOKS.get(name))
            if isinstance(raw, property):
                setattr(owner, attr, property(make(raw.fget), raw.fset, raw.fdel, raw.__doc__))
                self.patched[name] = 1
            elif owner_name:
                setattr(owner, attr, make(raw))
                self.patched[name] = 1
            else:
                self.patched[name] = _rebind_everywhere(raw, make(raw))
        return self

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics from the spans and counters recorded so far."""
        out = {name: 0.0 if unit == "s" else 0 for name, unit in METRIC_UNITS.items()}
        layer_of = [name.split(":", 1)[0] for name in self.names]
        for name_index, start, end, _, ok, child in self.spans:
            layer = layer_of[name_index]
            out[f"{layer}.self_s"] += (end - start) - child
            out[f"{layer}.calls"] += 1
            if not ok:
                out[f"{layer}.errors"] += 1
        out["poly.self_s"] = self.poly_s
        out["poly.calls"] = self.counters["poly.evals"]
        out["poly.errors"] = self.poly_errors
        for metric, group in GROUPS.items():
            out[metric] = sum(end - start for i, (n, start, end, *_rest) in enumerate(self.spans)
                              if self.names[n] in group and not self.inside_group(i, group))
        out.update(self.counters)
        stored = self.counters["spaces.nnz_stored"]
        out["spaces.nnz_useful_ratio"] = self.nnz_true / stored if stored else 1.0
        return out

    def write(self, path: str) -> None:
        records = [{"name": self.names[n], "start": start, "end": end, "parent": parent,
                    "ok": ok, "run": self.run_id}
                   for n, start, end, parent, ok, _ in self.spans]
        with open(path, "w") as fh:
            json.dump({"run": self.run_id, "poly_s": self.poly_s,
                       "poly_evals": self.counters["poly.evals"],
                       "hook_s": self.hook_s, "spans": records}, fh)


def _rebind_everywhere(original, replacement) -> int:
    """Point every whitney module attribute bound to `original` at `replacement`."""
    count = 0
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "whitney" or name.startswith("whitney.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                count += 1
    return count
