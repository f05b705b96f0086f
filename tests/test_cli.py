"""Command-line behavior: exit codes, payload schema, CSV, determinism.

All invocations go through main(argv) in-process; stdout carries the
canonical JSON payload, stderr the human table.  Exit code oracle:
0 = pass, 1 = a check ran and failed, 2 = bad invocation, 3 = the
program crashed.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from whitney import cli, experiments
from whitney.cli import DEFAULT_SEED, build_parser, emit_csv, main
from whitney.complexes import DiscreteComplex, derham_complex
from whitney.experiments import ConvergenceReport, SpectrumReport
from whitney.linalg import CheckFailedError, SingularSystemError
from whitney.mesh import read_mesh

ALL_SUBCOMMANDS = [
    ("mesh", "gen"), ("mesh", "info"),
    ("complex", "check"), ("complex", "commute"),
    ("eig", "laplace"), ("eig", "maxwell"), ("eig", "maxwell-mixed"),
    ("solve", "poisson"), ("solve", "mixed-poisson"), ("solve", "elasticity"),
    ("aw", "unisolvence"), ("aw", "commute"),
]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_mesh_gen_roundtrips(tmp_path, capsys):
    path = tmp_path / "square.mesh"
    code, out, err = run(capsys, "mesh", "gen", "--domain", "square", "--n", "2",
                         "--output", str(path))
    assert code == 0
    with open(path) as fh:
        mesh = read_mesh(fh)
    assert mesh.num_vertices == 9 and mesh.num_cells == 8
    payload = json.loads(out)
    assert payload["entities"] == {"0": 9, "1": 16, "2": 8}
    assert payload["output"] == str(path)
    assert payload["config"]["command"] == "mesh gen"
    assert payload["config"]["version"] == 1
    assert "mesh written" in err


def test_mesh_gen_requires_output(capsys):
    assert run(capsys, "mesh", "gen", "--domain", "square")[0] == 2


def test_mesh_info_from_file_and_domain(tmp_path, capsys):
    path = tmp_path / "m.mesh"
    run(capsys, "mesh", "gen", "--domain", "annulus", "--n", "8", "--output", str(path))
    code, out, _ = run(capsys, "mesh", "info", "--mesh", str(path))
    assert code == 0
    assert json.loads(out)["euler_characteristic"] == 0
    code, out, _ = run(capsys, "mesh", "info", "--domain", "cube", "--n", "1")
    assert code == 0
    assert json.loads(out)["entities"] == {"0": 8, "1": 19, "2": 18, "3": 6}
    assert run(capsys, "mesh", "info")[0] == 2         # neither --mesh nor --domain
    assert run(capsys, "mesh", "info", "--mesh", "/nonexistent")[0] == 2


def test_complex_check_exit_codes(capsys):
    ok, out, err = run(capsys, "complex", "check", "--domain", "square", "--n", "2",
                       "--betti", "1,0,0")
    assert ok == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert payload["families"] == ["lagrange1", "edge1", "dg0"]
    assert "PASS" in err
    bad, out, err = run(capsys, "complex", "check", "--domain", "square", "--n", "2",
                        "--betti", "1,1,0")
    assert bad == 1 and "FAIL" in err
    assert run(capsys, "complex", "check", "--domain", "square",
               "--betti", "one,zero")[0] == 2


def test_complex_commute_passes(capsys):
    code, out, _ = run(capsys, "complex", "commute", "--domain", "disk", "--n", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["max_residual"] <= payload["tolerance"]


def test_laplace_and_maxwell_exit_codes(capsys):
    code, out, _ = run(capsys, "eig", "laplace", "--n", "8")
    assert code == 0 and json.loads(out)["passed"] is True
    # coarse edge run: accurate to a few percent only, so the 1% check fails
    assert run(capsys, "eig", "maxwell", "--n", "4")[0] == 1
    # an H(curl) family is not valid for the Laplace solver
    assert run(capsys, "eig", "laplace", "--family", "edge1")[0] == 2
    assert run(capsys, "eig", "laplace", "--family", "lagrange9")[0] == 2


def test_maxwell_nodal_and_mixed(capsys):
    code, out, _ = run(capsys, "eig", "maxwell", "--family", "nodal", "--n", "8")
    assert code == 0
    payload = json.loads(out)
    assert payload["notes"]["pattern"] == "uniform"
    assert payload["passed"] is True
    code, out, _ = run(capsys, "eig", "maxwell-mixed", "--n", "4")
    assert code == 0
    assert json.loads(out)["notes"]["equivalence_gap"] <= 1e-8


def test_crashes_are_distinct_from_failed_checks(capsys, monkeypatch):
    def raises(exc):
        def handler(*args, **kwargs):
            raise exc
        return handler

    monkeypatch.setattr(experiments, "laplace_eigenvalues", raises(TypeError("bad operand")))
    code, out, err = run(capsys, "eig", "laplace", "--n", "4")
    assert code == 3 and out == ""
    assert "Traceback" in err and "internal error: TypeError: bad operand" in err
    # a singular solve is a crash, not bad input
    monkeypatch.setattr(experiments, "laplace_eigenvalues",
                        raises(SingularSystemError("singular system")))
    code, out, err = run(capsys, "eig", "laplace", "--n", "4")
    assert code == 3 and out == ""
    assert "Traceback" in err and "internal error: SingularSystemError: singular system" in err
    monkeypatch.setattr(experiments, "laplace_eigenvalues",
                        raises(CheckFailedError("threshold count disagrees")))
    code, _, err = run(capsys, "eig", "laplace", "--n", "4")
    assert code == 1 and "check failed: threshold count disagrees" in err


def test_zeroed_cell_row_fails_complex_check(capsys, monkeypatch):
    # a zeroed cell row keeps d o d = 0 but fails the rank cross-check
    def broken(mesh, order=1, bc="none"):
        cx = derham_complex(mesh, order=order, bc=bc)
        D1 = cx.derivatives[1].tolil()
        D1[0, :] = 0.0
        return DiscreteComplex(cx.spaces, (cx.derivatives[0], D1.tocsr()))

    monkeypatch.setattr(cli, "derham_complex", broken)
    code, out, err = run(capsys, "complex", "check", "--domain", "square", "--n", "2",
                         "--betti", "1,0,0")
    assert code == 1 and out == ""
    assert "check failed: rank cross-check failed at level 1" in err


@pytest.mark.parametrize("bc,betti,ranks", [("none", "1,0,0,0", [728, 3456, 3072]),
                                            ("essential", "0,0,0,1", [343, 2689, 3071])])
def test_cube8_complex_check(capsys, bc, betti, ranks):
    code, out, _ = run(capsys, "complex", "check", "--domain", "cube", "--n", "8",
                       "--bc", bc, "--betti", betti)
    payload = json.loads(out)
    assert code == 0 and payload["pass"] is True
    assert [lv["rank"] for lv in payload["levels"]] == ranks + [0]


def test_unknown_commands_are_usage_errors(capsys):
    assert run(capsys, "spectral")[0] == 2
    assert run(capsys, "mesh", "shrink")[0] == 2
    assert run(capsys, "eig", "maxwell", "--family", "face1")[0] == 2


@pytest.mark.parametrize("group,sub", ALL_SUBCOMMANDS)
def test_every_subcommand_has_help(capsys, group, sub):
    assert main([group, sub, "--help"]) == 0
    assert sub in capsys.readouterr().out


def test_output_and_csv_files(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    csv_path = tmp_path / "report.csv"
    code, out, _ = run(capsys, "eig", "laplace", "--n", "4", "--count", "5",
                       "--output", str(out_path), "--csv", str(csv_path))
    assert code == 0 and out == ""
    payload = json.loads(out_path.read_text())
    assert payload["config"]["command"] == "eig laplace"
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "index,eigenvalue,reference,relative_error"
    assert len(lines) == 1 + len(payload["eigenvalues"])


def test_csv_to_stdout(capsys):
    code, out, _ = run(capsys, "solve", "mixed-poisson", "--ns", "2,4", "--csv", "-")
    assert code == 0
    csv_start = out.index("h,")
    lines = out[csv_start:].splitlines()
    assert lines[0] == "h,err_u,err_sigma,order"
    assert len(lines) == 3


def test_seed_env_override(tmp_path, capsys, monkeypatch):
    code, out, _ = run(capsys, "aw", "unisolvence", "--trials", "3")
    assert code == 0
    assert json.loads(out)["seed"] == DEFAULT_SEED
    monkeypatch.setenv("WHITNEY_SEED", "7")
    code, out, _ = run(capsys, "aw", "unisolvence", "--trials", "3")
    payload = json.loads(out)
    assert payload["seed"] == 7
    assert payload["config"]["seed"] == 7
    assert payload["failures"] == 0


def test_aw_commute_passes(capsys):
    code, out, _ = run(capsys, "aw", "commute", "--n", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["residual"] <= payload["tolerance"]


def test_repeated_runs_are_byte_identical(capsys):
    argv = ["eig", "maxwell-mixed", "--n", "2"]
    code1 = main(list(argv))
    first = capsys.readouterr().out
    code2 = main(list(argv))
    second = capsys.readouterr().out
    assert code1 == code2 == 0
    assert first == second


# the README's complex check and eig commands: exit code 0 and the
# integers they report (eigenvalues counts the spectrum entries)
README_COUNTS = [
    (("complex", "check", "--domain", "annulus", "--n", "16", "--betti", "1,1,0"),
     {"ranks": [47, 64, 0], "cohomology": [1, 1, 0]}),
    (("eig", "laplace", "--n", "16", "--count", "10"),
     {"zero_count": 0, "kernel_dim": 0, "eigenvalues": 225}),
    (("eig", "maxwell", "--n", "16", "--count", "10"),
     {"zero_count": 481, "kernel_dim": 481, "eigenvalues": 1504}),
    (("eig", "maxwell", "--family", "nodal", "--n", "8"),
     {"zero_count": 0, "kernel_dim": 0, "eigenvalues": 98}),
    (("eig", "maxwell-mixed", "--n", "8"),
     {"zero_count": 0, "kernel_dim": 0, "eigenvalues": 255, "multiplier_dim": 255}),
]


@pytest.mark.parametrize("argv,counts", README_COUNTS, ids=[
    "complex-check-annulus", "eig-laplace", "eig-maxwell", "eig-maxwell-nodal",
    "eig-maxwell-mixed"])
def test_readme_commands_keep_their_counts(capsys, argv, counts):
    code, out, _ = run(capsys, *argv)
    payload = json.loads(out)
    if "levels" in payload:
        got = {"ranks": [lv["rank"] for lv in payload["levels"]],
               "cohomology": [lv["cohomology"] for lv in payload["levels"]]}
    else:
        got = {"zero_count": payload["zero_count"], "kernel_dim": payload["kernel_dim"],
               "eigenvalues": len(payload["eigenvalues"])}
        if "multiplier_dim" in counts:
            got["multiplier_dim"] = payload["notes"]["multiplier_dim"]
    assert code == 0
    assert got == counts


def test_emit_csv_spectrum_alignment():
    report = SpectrumReport(
        family="edge1", mesh="m", eigenvalues=np.array([0.0, 1.5, 4.5]),
        zero_count=1, zero_threshold=1e-9, kernel_dim=1,
        reference=(1.0,), relative_errors=(0.5,), passed=True)
    lines = emit_csv(report).split("\r\n")
    assert lines[0] == "index,eigenvalue,reference,relative_error"
    assert lines[1] == "0,0.0,,"            # zero mode carries no reference
    assert lines[2] == "1,1.5,1.0,0.5"
    assert lines[3] == "2,4.5,,"            # past the reference list
    assert lines[4] == ""


def test_emit_csv_convergence_orders():
    report = ConvergenceReport(
        name="sweep", hs=(0.5, 0.25), errors={"err_u": (1.0, 0.25), "err_sigma": (2.0, 1.0)},
        orders={"err_u": 2.0, "err_sigma": 1.0}, fit_residuals={"err_u": 0.0, "err_sigma": 0.0})
    lines = emit_csv(report).split("\r\n")
    assert lines[0] == "h,err_u,err_sigma,order"
    assert lines[1] == "0.5,1.0,2.0,"       # no order at the first level
    assert lines[2] == "0.25,0.25,1.0,2.0"  # log2(1.0/0.25) = 2 of the first series
    # empty spectrum degenerates to a bare header
    empty = SpectrumReport(family="x", mesh="m", eigenvalues=np.empty(0),
                           zero_count=0, zero_threshold=0.0, kernel_dim=0,
                           reference=(), relative_errors=(), passed=True)
    assert emit_csv(empty) == "index,eigenvalue,reference,relative_error\r\n"


def test_emit_csv_fallback_key_value():
    text = emit_csv({"b": 2, "a": [1, 2]})
    lines = text.split("\r\n")
    assert lines[0] == "key,value"
    assert lines[1] == 'a,"[1, 2]"'
    assert lines[2] == "b,2"


def test_parser_covers_all_subcommands():
    parser = build_parser()
    # argparse keeps the registered group parsers; every advertised pair parses
    for group, sub in ALL_SUBCOMMANDS:
        argv = [group, sub, "--help"]
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(argv)
        assert exc.value.code == 0


def test_cli_import_leaves_out_scipy_special():
    # scipy.special adds ~0.1 s to every start-up; the quadrature tables replace it
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import whitney.cli; "
            "sys.exit('scipy.special' in sys.modules)")
    assert subprocess.run([sys.executable, "-c", code, src], timeout=60).returncode == 0


def test_edge_cavity_leaves_out_scipy_csgraph():
    # the tree of the kernel split comes from the collapse, not a graph search
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = ("import sys, io, contextlib; sys.path.insert(0, sys.argv[1]); import whitney.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = whitney.cli.main(['eig', 'maxwell', '--n', '4'])\n"
            "sys.exit(code not in (0, 1) or 'scipy.sparse.csgraph' in sys.modules)")
    assert subprocess.run([sys.executable, "-c", code, src], timeout=60,
                          stderr=subprocess.DEVNULL).returncode == 0
