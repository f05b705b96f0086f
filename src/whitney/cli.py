"""Command-line front end for mesh generation, complex audits and experiments.

Subcommands mirror the library surface: `mesh gen|info`,
`complex check|commute`, `eig laplace|maxwell|maxwell-mixed`,
`solve poisson|mixed-poisson|elasticity`, `aw unisolvence|commute`.

JSON is the canonical output (written to --output or stdout, keys
sorted so identical runs are byte-identical); `--csv PATH` adds a
plot-ready CSV rendering; a human-readable table always goes to
stderr.  Exit codes: 0 pass, 1 check failure (a failed criterion or a
CheckFailedError from a self-audit), 2 usage error, 3 internal error
(any other exception, with its traceback on stderr).  The environment
variable WHITNEY_SEED overrides --seed.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import traceback
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import experiments
from .complexes import check_commuting, check_exactness, derham_complex
from .elasticity import NDOF, aw_unisolvence_survey, commutativity_residual
from .linalg import CheckFailedError
from .mesh import (
    generate_annulus_mesh,
    generate_cube_mesh,
    generate_disk_mesh,
    generate_ellipse_mesh,
    generate_square_mesh,
    read_mesh,
    write_mesh,
)

CONFIG_VERSION = 1
DEFAULT_SEED = 20260814
COMMUTE_TOL = 1e-10
AW_COMMUTE_TOL = 1e-9
AW_TRIALS = 100
AW_MIN_SHAPE = 0.02
# draws per sampled triangle before --min-shape is reported unreachable:
# uniform draws meet 0.43 once in ~20,000 and 0.432 once in ~150,000
# (the equilateral ratio is sqrt(3)/4 = 0.4330)
AW_MAX_DRAWS = 200_000


class UsageError(Exception):
    """Bad command-line input detected after parsing."""


@dataclass
class Outcome:
    payload: dict
    passed: bool | None
    table: str
    report: object = None


def canonical_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


# -- CSV -----------------------------------------------------------------------


def emit_csv(report) -> str:
    """CSV rendering of a report: one row per eigenvalue or level.

    RFC-4180 quoting and line endings via the csv module; spectra get
    columns index/eigenvalue/reference/relative_error (reference cells
    empty past the reference list), convergence sweeps get h, one
    column per error series and the incremental observed order of the
    first series.  Anything else falls back to sorted key/value rows.
    """
    buf = io.StringIO()
    writer = csv.writer(buf)
    if isinstance(report, experiments.SpectrumReport):
        writer.writerow(["index", "eigenvalue", "reference", "relative_error"])
        ref = list(report.reference)
        errs = list(report.relative_errors)
        for i, lam in enumerate(report.eigenvalues):
            j = i - report.zero_count
            has_ref = 0 <= j < len(errs)
            writer.writerow([i, repr(float(lam)),
                             repr(float(ref[j])) if has_ref else "",
                             repr(float(errs[j])) if has_ref else ""])
    elif isinstance(report, experiments.ConvergenceReport):
        keys = list(report.errors)
        writer.writerow(["h", *keys, "order"])
        hs = report.hs
        lead = report.errors[keys[0]]
        for i, h in enumerate(hs):
            order = "" if i == 0 else repr(float(np.log(lead[i - 1] / lead[i])
                                                 / np.log(hs[i - 1] / hs[i])))
            writer.writerow([repr(float(h)),
                             *(repr(float(report.errors[k][i])) for k in keys),
                             order])
    else:
        payload = report.to_dict() if hasattr(report, "to_dict") else dict(report)
        writer.writerow(["key", "value"])
        for key in sorted(payload):
            writer.writerow([key, json.dumps(payload[key], sort_keys=True)])
    return buf.getvalue()


# -- human tables ----------------------------------------------------------


def _flag(passed) -> str:
    return "PASS" if passed else "FAIL"


def _spectrum_table(rep: experiments.SpectrumReport) -> str:
    lines = [f"{rep.family} spectrum on {rep.mesh}",
             f"  zero eigenvalues: {rep.zero_count} "
             f"(threshold {rep.zero_threshold:.3e}, kernel {rep.zero_count})"]
    positive = rep.positive_eigenvalues
    shown = max(len(rep.reference), min(10, positive.size))
    lines.append(f"  {'#':>3} {'computed':>12} {'reference':>10} {'rel err':>10}")
    for i in range(min(shown, positive.size)):
        if i < len(rep.relative_errors):
            ref = f"{rep.reference[i]:10.4f}"
            err = f"{rep.relative_errors[i]:10.2e}"
        else:
            ref = err = " " * 10
        lines.append(f"  {i:>3} {positive[i]:12.6f} {ref} {err}")
    for key, val in sorted(rep.notes.items()):
        lines.append(f"  {key}: {val}")
    lines.append(f"  {_flag(rep.passed)}")
    return "\n".join(lines)


def _convergence_table(rep: experiments.ConvergenceReport) -> str:
    keys = list(rep.errors)
    head = f"  {'h':>10} " + " ".join(f"{k:>12}" for k in keys)
    if rep.infsup is not None:
        head += f" {'infsup':>10}"
    lines = [f"{rep.name} sweep", head]
    for i, h in enumerate(rep.hs):
        row = f"  {h:>10.5f} " + " ".join(f"{rep.errors[k][i]:>12.6e}" for k in keys)
        if rep.infsup is not None:
            row += f" {rep.infsup[i]:>10.6f}"
        lines.append(row)
    orders = ", ".join(f"{k}: {rep.orders[k]:.3f} (fit rms {rep.fit_residuals[k]:.1e})"
                       for k in keys)
    lines.append(f"  observed orders: {orders}")
    if rep.passed is not None:
        lines.append(f"  {_flag(rep.passed)}")
    return "\n".join(lines)


def _kv_table(title: str, payload: dict) -> str:
    return "\n".join([title] + [f"  {key}: {payload[key]}" for key in sorted(payload)])


# -- mesh sources ----------------------------------------------------------


def _add_mesh_source(parser, require_domain=False):
    if not require_domain:
        parser.add_argument("--mesh", metavar="PATH", help="mesh text file to load")
    parser.add_argument("--domain", choices=["square", "cube", "disk", "annulus", "ellipse"],
                        required=require_domain, help="generated domain")
    parser.add_argument("--n", type=int, default=4, help="refinement parameter (default 4)")
    parser.add_argument("--pattern", choices=["uniform", "crossed"], default="uniform",
                        help="square triangulation pattern (default uniform)")
    parser.add_argument("--side", type=float, default=1.0,
                        help="square/cube side length (default 1)")
    parser.add_argument("--radius", type=float, default=1.0, help="disk radius (default 1)")
    parser.add_argument("--aspect", type=float, default=3.0,
                        help="ellipse aspect ratio (default 3)")
    parser.add_argument("--r-inner", type=float, default=0.5,
                        help="annulus inner radius (default 0.5)")
    parser.add_argument("--r-outer", type=float, default=1.0,
                        help="annulus outer radius (default 1)")


def _resolve_mesh(args):
    path = getattr(args, "mesh", None)
    if path:
        with open(path) as fh:
            return read_mesh(fh)
    if args.domain is None:
        raise UsageError("need either --mesh or --domain")
    return _generate(args)


def _generate(args):
    if args.domain == "square":
        return generate_square_mesh(args.n, pattern=args.pattern, side=args.side)
    if args.domain == "cube":
        return generate_cube_mesh(args.n, side=args.side)
    if args.domain == "disk":
        return generate_disk_mesh(args.n, radius=args.radius)
    if args.domain == "annulus":
        return generate_annulus_mesh(args.n, r_inner=args.r_inner, r_outer=args.r_outer)
    if args.domain == "ellipse":
        return generate_ellipse_mesh(args.n, aspect=args.aspect)
    raise UsageError(f"unknown domain {args.domain!r}")


def _mesh_info(mesh) -> dict:
    return {"dim": mesh.dim, "domain": mesh.domain_tag,
            "entities": {str(k): int(mesh.num_entities(k)) for k in range(mesh.dim + 1)},
            "euler_characteristic": mesh.euler_characteristic(),
            "boundary_facets": int(np.count_nonzero(mesh.boundary[mesh.dim - 1])),
            "boundary_vertices": int(np.count_nonzero(mesh.boundary[0]))}


def _in_range(convert, low, high=math.inf):
    """argparse type: convert(text), which must lie in [low, high)."""
    def parse(text):
        value = convert(text)
        if not low <= value < high:
            raise argparse.ArgumentTypeError(f"must lie in [{low:g}, {high:g}), got {text}")
        return value
    parse.__name__ = convert.__name__           # argparse's "invalid int value: 'x'"
    return parse


def _int_list(text: str) -> tuple:
    try:
        values = tuple(int(v) for v in text.split(","))
    except ValueError:
        raise UsageError(f"expected comma-separated integers, got {text!r}") from None
    if not values:
        raise UsageError("empty integer list")
    return values


# -- command handlers --------------------------------------------------------


def _cmd_mesh_gen(args) -> Outcome:
    mesh = _generate(args)
    with open(args.output, "w") as fh:
        write_mesh(mesh, fh)
    payload = _mesh_info(mesh)
    payload["output"] = args.output
    return Outcome(payload, None, _kv_table(f"mesh written to {args.output}", payload))


def _cmd_mesh_info(args) -> Outcome:
    mesh = _resolve_mesh(args)
    payload = _mesh_info(mesh)
    return Outcome(payload, None, _kv_table("mesh", payload))


def _cmd_complex_check(args) -> Outcome:
    mesh = _resolve_mesh(args)
    betti = _int_list(args.betti)
    cx = derham_complex(mesh, order=args.order, bc=args.bc)
    report = check_exactness(cx, betti)
    payload = report.to_dict()
    payload["families"] = list(cx.family_names)
    table = _kv_table(f"complex order {args.order} ({args.bc} bc) on {mesh.domain_tag}",
                      {"cohomology": [lv.cohomology for lv in report.levels],
                       "expected": list(betti),
                       "dims": [lv.dim for lv in report.levels],
                       "result": _flag(report.passed)})
    return Outcome(payload, report.passed, table, report)


def _cmd_complex_commute(args) -> Outcome:
    mesh = _resolve_mesh(args)
    cx = derham_complex(mesh, order=args.order, bc=args.bc)
    residuals = check_commuting(cx, degree=args.degree)
    passed = bool(residuals.max() <= args.tol)
    payload = {"residuals": [float(r) for r in residuals],
               "max_residual": float(residuals.max()),
               "tolerance": args.tol,
               "degree": args.degree,
               "families": list(cx.family_names),
               "pass": passed}
    return Outcome(payload, passed,
                   _kv_table(f"commuting diagram order {args.order}", payload))


def _study(run, args) -> Outcome:
    """Handler of the eig and solve commands: run(args) gives their report."""
    report = run(args)
    table = (_spectrum_table if isinstance(report, experiments.SpectrumReport)
             else _convergence_table)(report)
    return Outcome(report.to_dict(), report.passed, table, report)


def _parse_coefficient(text: str):
    try:
        values = [float(v) for v in text.split(",")]
    except ValueError:
        raise UsageError(f"expected comma-separated floats, got {text!r}") from None
    if len(values) == 1:
        return values[0]
    if len(values) == 2:
        return tuple(values)
    raise UsageError("coefficient must be a scalar or two diagonal entries")


def _random_triangle(rng, min_shape):
    # shape floor area >= min_shape * diam^2: slivers drive the DOF matrix
    # conditioning past the rank tolerance long before exact degeneracy
    for _ in range(AW_MAX_DRAWS):
        verts = rng.uniform(-1.0, 1.0, size=(3, 2))
        e1, e2 = verts[1] - verts[0], verts[2] - verts[0]
        area = 0.5 * abs(e1[0] * e2[1] - e1[1] * e2[0])
        diam = max(np.linalg.norm(verts[i] - verts[j])
                   for i, j in ((0, 1), (0, 2), (1, 2)))
        if area >= min_shape * diam ** 2:
            return verts
    raise ValueError(f"no triangle with area >= {min_shape} * diameter^2 in {AW_MAX_DRAWS} "
                     "draws; lower --min-shape")


def _cmd_aw_unisolvence(args) -> Outcome:
    seed = int(os.environ.get("WHITNEY_SEED", args.seed))
    rng = np.random.default_rng(seed)
    # the reference triangle first, then the trials, all in one survey
    triangles = [np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])]
    triangles += [_random_triangle(rng, args.min_shape) for _ in range(args.trials)]
    rank, cond = aw_unisolvence_survey(triangles)
    failures = int(np.count_nonzero(rank[1:] != NDOF))
    passed = bool(rank[0] == NDOF) and failures == 0
    payload = {"reference_rank": int(rank[0]),
               "reference_cond": float(cond[0]),
               "trials": args.trials,
               "failures": failures,
               "worst_cond": float(cond.max()),
               "min_shape": args.min_shape,
               "seed": seed,
               "pass": passed}
    return Outcome(payload, passed, _kv_table("stress element unisolvence", payload))


def _cmd_aw_commute(args) -> Outcome:
    mesh = generate_square_mesh(args.n, pattern=args.pattern)
    residual = commutativity_residual(mesh, degree=args.degree)
    passed = residual <= args.tol
    payload = {"residual": float(residual), "tolerance": args.tol,
               "degree": args.degree, "n": args.n, "pattern": args.pattern,
               "pass": bool(passed)}
    return Outcome(payload, passed, _kv_table("stress interpolation commutes with div", payload))


# -- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="whitney",
        description="Simplicial finite element complexes: audits and experiments.")
    top = parser.add_subparsers(dest="group", required=True, metavar="COMMAND")

    def leaf(sub, name, handler, help_, mesh_source=False, require_domain=False,
             mesh_output=False):
        p = sub.add_parser(name, help=help_, description=help_)
        if mesh_source:
            _add_mesh_source(p, require_domain=require_domain)
        p.add_argument("--output", "-o", metavar="PATH", required=mesh_output,
                       help="output path (JSON report; mesh text for `mesh gen`)")
        p.add_argument("--csv", metavar="PATH",
                       help="also write a CSV rendering ('-' for stdout)")
        p.set_defaults(handler=handler, output_is_mesh=mesh_output)
        return p

    mesh = parser_sub(top, "mesh", "generate and inspect meshes")
    leaf(mesh, "gen", _cmd_mesh_gen, "generate a mesh file",
         mesh_source=True, require_domain=True, mesh_output=True)
    leaf(mesh, "info", _cmd_mesh_info, "entity counts and topology of a mesh",
         mesh_source=True)

    cx = parser_sub(top, "complex", "discrete complex audits")
    check = leaf(cx, "check", _cmd_complex_check, "exactness/Betti audit",
                 mesh_source=True)
    check.add_argument("--order", type=int, default=1, choices=(1, 2))
    check.add_argument("--bc", choices=("none", "essential"), default="none")
    check.add_argument("--betti", required=True, metavar="B0,B1,...",
                       help="expected cohomology dimensions, e.g. 1,0,0")
    commute = leaf(cx, "commute", _cmd_complex_commute,
                   "interpolation commutes with the derivative", mesh_source=True)
    commute.add_argument("--order", type=int, default=1, choices=(1, 2))
    commute.add_argument("--bc", choices=("none", "essential"), default="none")
    commute.add_argument("--degree", type=_in_range(int, 0), default=3,
                         help="polynomial battery degree (default 3)")
    commute.add_argument("--tol", type=_in_range(float, 0.0), default=COMMUTE_TOL,
                         help=f"max residual allowed (default {COMMUTE_TOL:g})")

    eig = parser_sub(top, "eig", "eigenvalue studies")
    lap = leaf(eig, "laplace", partial(_study, lambda a: experiments.laplace_eigenvalues(
                   domain=a.domain, family=a.family, n=a.n, pattern=a.pattern, count=a.count)),
               "Dirichlet Laplace spectrum")
    lap.add_argument("--domain", choices=("square", "ellipse"), default="square")
    lap.add_argument("--family", choices=tuple(experiments.EDGE_PARTNER), default="lagrange1")
    lap.add_argument("--n", type=int, default=8)
    lap.add_argument("--pattern", choices=("uniform", "crossed"), default="uniform")
    lap.add_argument("--count", type=_in_range(int, 1), default=10,
                     help="reference eigenvalues to compare (default 10)")
    maxw = leaf(eig, "maxwell", partial(_study, lambda a: experiments.maxwell_eigenvalues(
                    family=a.family, n=a.n, pattern=a.pattern, count=a.count)),
                "cavity spectrum on the pi square")
    maxw.add_argument("--family", choices=("edge1", "nodal"), default="edge1")
    maxw.add_argument("--n", type=int, default=16)
    maxw.add_argument("--pattern", choices=("uniform", "crossed"), default=None,
                      help="defaults per family: crossed for edge1, uniform for nodal")
    maxw.add_argument("--count", type=_in_range(int, 1), default=10)
    mixed = leaf(eig, "maxwell-mixed", partial(_study, lambda a:
                 experiments.maxwell_mixed_eigenvalues(n=a.n, pattern=a.pattern, count=a.count)),
                 "cavity spectrum, mixed form on the range of curl")
    mixed.add_argument("--n", type=int, default=8)
    mixed.add_argument("--pattern", choices=("uniform", "crossed"), default="crossed")
    mixed.add_argument("--count", type=_in_range(int, 1), default=10)

    solve = parser_sub(top, "solve", "convergence sweeps")
    poisson = leaf(solve, "poisson", partial(_study, lambda a:
                   experiments.galerkin_quasioptimality_demo(
                       ns=_int_list(a.ns), order=a.order, pattern=a.pattern)),
                   "primal Poisson sweep")
    poisson.add_argument("--order", type=int, default=1, choices=(1, 2))
    poisson.add_argument("--ns", default="4,8,16,32", help="refinement levels")
    poisson.add_argument("--pattern", choices=("uniform", "crossed"), default="uniform")
    mp = leaf(solve, "mixed-poisson", partial(_study, lambda a:
              experiments.mixed_poisson_convergence(
                  ns=_int_list(a.ns), coefficient=_parse_coefficient(a.coefficient),
                  pattern=a.pattern)),
              "mixed Poisson sweep with inf-sup monitoring")
    mp.add_argument("--ns", default="4,8,16,32", help="refinement levels")
    mp.add_argument("--coefficient", default="1",
                    help="scalar or two diagonal entries, e.g. 2,0.5")
    mp.add_argument("--pattern", choices=("uniform", "crossed"), default="uniform")
    el = leaf(solve, "elasticity", partial(_study, lambda a: experiments.elasticity_convergence(
                  ns=_int_list(a.ns), lam=a.lam, mu=a.mu, pattern=a.pattern)),
              "mixed elasticity sweep")
    el.add_argument("--ns", default="4,8,16", help="refinement levels")
    el.add_argument("--lam", type=float, default=1.0, help="first Lame parameter")
    el.add_argument("--mu", type=float, default=1.0, help="shear modulus")
    el.add_argument("--pattern", choices=("uniform", "crossed"), default="uniform")

    aw = parser_sub(top, "aw", "symmetric stress element checks")
    uni = leaf(aw, "unisolvence", _cmd_aw_unisolvence,
               "DOF matrix rank over random triangles")
    uni.add_argument("--trials", type=_in_range(int, 0), default=AW_TRIALS)
    uni.add_argument("--seed", type=int, default=DEFAULT_SEED,
                     help=f"rng seed (default {DEFAULT_SEED}; WHITNEY_SEED overrides)")
    # no triangle has area >= sqrt(3)/4 diameter^2, the equilateral ratio
    uni.add_argument("--min-shape", type=_in_range(float, 0.0, math.sqrt(3.0) / 4.0),
                     default=AW_MIN_SHAPE,
                     help="shape floor area >= min-shape * diameter^2 for sampled "
                          f"triangles (default {AW_MIN_SHAPE})")
    awc = leaf(aw, "commute", _cmd_aw_commute,
               "stress interpolation commutes with divergence")
    awc.add_argument("--n", type=int, default=4)
    awc.add_argument("--pattern", choices=("uniform", "crossed"), default="uniform")
    awc.add_argument("--degree", type=_in_range(int, 0), default=3)
    awc.add_argument("--tol", type=_in_range(float, 0.0), default=AW_COMMUTE_TOL,
                     help=f"max residual allowed (default {AW_COMMUTE_TOL:g})")
    return parser


def parser_sub(top, name, help_):
    group = top.add_parser(name, help=help_, description=help_)
    sub = group.add_subparsers(dest="command", required=True, metavar="SUBCOMMAND")
    return sub


_CONFIG_SKIP = {"handler", "group", "command", "output", "csv", "output_is_mesh"}


def _run_config(args) -> dict:
    """Echo of the options a run actually used, embedded in its output."""
    params = {k: v for k, v in sorted(vars(args).items()) if k not in _CONFIG_SKIP}
    seed = params.pop("seed", None)
    if seed is not None:
        seed = int(os.environ.get("WHITNEY_SEED", seed))
    return {"command": f"{args.group} {args.command}", "params": params, "seed": seed,
            "version": CONFIG_VERSION}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        outcome = args.handler(args)
    except (UsageError, ValueError, OSError) as exc:     # MeshFormatError is a ValueError
        print(f"whitney: {exc}", file=sys.stderr)
        return 2
    except CheckFailedError as exc:
        print(f"whitney: check failed: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        traceback.print_exc()
        print(f"whitney: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3

    payload = dict(outcome.payload)
    payload["config"] = _run_config(args)
    text = canonical_json(payload)
    if args.output_is_mesh or not args.output:
        sys.stdout.write(text)
    else:
        with open(args.output, "w") as fh:
            fh.write(text)
    if args.csv:
        csv_text = emit_csv(outcome.report if outcome.report is not None else payload)
        if args.csv == "-":
            sys.stdout.write(csv_text)
        else:
            with open(args.csv, "w") as fh:
                fh.write(csv_text)
    print(outcome.table, file=sys.stderr)
    return 0 if outcome.passed in (True, None) else 1
