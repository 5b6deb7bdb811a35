import os
import subprocess
import sys
from pathlib import Path

import pytest

import gspencer
from gspencer import cli
from gspencer.fileio import serialize_algebra, serialize_cochain, parse_cochain
from gspencer.models import conformal_algebra, space_form_algebra
from gspencer.spencer import (Cochain, cohomology_dims, spencer_d, standard_complex,
                              random_integer_cochain)

from conftest import rng_for


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_pass(tmp_path, capsys):
    path = tmp_path / "conf3.alg"
    path.write_text(serialize_algebra(conformal_algebra(3)))
    code, out, _ = run_cli(capsys, "validate", str(path))
    assert code == 0
    assert out.startswith("PASS")


def test_validate_perturbed_constant(tmp_path, capsys):
    text = serialize_algebra(space_form_algebra(3, 1))
    bad = text.replace("[e1,A1_2] = 1*e2", "[e1,A1_2] = 1*e2 + 1*e3", 1)
    path = tmp_path / "bad.alg"
    path.write_text(bad)
    code, out, _ = run_cli(capsys, "validate", str(path))
    assert code == 1
    assert "FAIL" in out and "Jacobi" in out


def test_validate_truncated_file(tmp_path, capsys):
    text = serialize_algebra(conformal_algebra(3))
    path = tmp_path / "cut.alg"
    path.write_text("\n".join(text.splitlines()[:5]))
    code, _, err = run_cli(capsys, "validate", str(path))
    assert code == 3
    assert "parse error" in err or "line" in err


def test_prolong_so(capsys):
    code, out, _ = run_cli(capsys, "prolong", "--family", "so", "--dim", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert any(line.split()[:2] == ["1", "0"] and "finite type" in line
               for line in lines[1:])


def test_prolong_co(capsys):
    code, out, _ = run_cli(capsys, "prolong", "--family", "co", "--dim", "3",
                           "--format", "csv")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert rows[0][:2] == ["1", "3"]
    assert rows[1][:2] == ["2", "0"]


def test_prolong_glc(capsys):
    code, out, _ = run_cli(capsys, "prolong", "--family", "glC", "--m", "2",
                           "--max-order", "3", "--format", "csv")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert [r[1] for r in rows] == ["12", "16", "20"]
    assert rows[-1][3] == "not finite by order 3"


def test_prolong_from_algebra_file(tmp_path, capsys):
    path = tmp_path / "sf.alg"
    path.write_text(serialize_algebra(space_form_algebra(3, 0)))
    code, out, _ = run_cli(capsys, "prolong", "--algebra", str(path), "--format", "csv")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert rows[0][:2] == ["1", "0"]  # so_3 is of finite type at order 1
    # the degree-0 generators read off conformal(3), and off the co_3 prolongation
    # conjugated by a rational g (rational structure constants), are co_3 again
    conf = tmp_path / "conf3.alg"
    conf.write_text(serialize_algebra(conformal_algebra(3)))
    flags = ("--max-order", "3", "--format", "csv")
    expected = run_cli(capsys, "prolong", "--family", "co", "--dim", "3", *flags)[:2]
    assert expected[0] == 0 and "finite type" in expected[1]
    for alg_path in (conf, Path(__file__).resolve().parent / "golden" / "co3_conj_order3.alg"):
        assert run_cli(capsys, "prolong", "--algebra", str(alg_path), *flags)[:2] == expected, \
            alg_path.name


def test_cohomology_table_conformal(capsys):
    code, out, _ = run_cli(capsys, "cohomology", "--family", "conformal", "--dim", "3",
                           "--w-dim", "2", "--p", "0..2", "--format", "csv")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert [r[5] for r in rows] == ["0", "0", "3"]


def test_cohomology_table_space_form(capsys):
    code, out, _ = run_cli(capsys, "cohomology", "--family", "space-form", "--dim", "5",
                           "--w-dim", "3", "--p", "1", "--format", "csv")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert rows[0][5] == "25"


def test_cohomology_cr(capsys):
    code, out, _ = run_cli(capsys, "cohomology", "--family", "cr", "--m", "2", "--k", "1",
                           "--max-order", "2", "--w-dim", "3", "--p", "1..2",
                           "--format", "csv")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert [r[5] for r in rows] == ["0", "0"]


def test_solve_zero_cochain(tmp_path, capsys):
    alg = conformal_algebra(3)
    path_a = tmp_path / "c3.alg"
    path_a.write_text(serialize_algebra(alg))
    c = standard_complex(alg, 2)
    path_z = tmp_path / "zero.coch"
    path_z.write_text(serialize_cochain(Cochain.zero(c, 1, 2, 0)))
    code, out, _ = run_cli(capsys, "solve", "--algebra", str(path_a),
                           "--cochain", str(path_z))
    assert code == 0
    assert out.startswith("cochain p 2 q 1")


def test_solve_roundtrip(tmp_path, capsys):
    rng = rng_for("clisolve")
    alg = conformal_algebra(3)
    path_a = tmp_path / "c3.alg"
    path_a.write_text(serialize_algebra(alg))
    c = standard_complex(alg, 3)
    y0 = random_integer_cochain(c, 2, 1, 0, rng)
    z = spencer_d(y0)
    path_z = tmp_path / "z.coch"
    path_z.write_text(serialize_cochain(z))
    out_path = tmp_path / "sol.coch"
    code, out, _ = run_cli(capsys, "solve", "--algebra", str(path_a),
                           "--cochain", str(path_z), "--output", str(out_path))
    assert code == 0
    sol = parse_cochain(out_path.read_text(), alg)
    assert spencer_d(sol) == z


def test_solve_obstructed_exit_two(tmp_path, capsys):
    # a generator of the nonzero cohomology of the full conformal 4-model
    alg = conformal_algebra(4)
    c = standard_complex(alg, 4)
    entry = cohomology_dims(c, 1, 2, 0, certificates=True)
    from gspencer.spencer import cochain_to_coords
    from gspencer.linalg import Subspace, nonzero_pairs
    b_span = Subspace.from_vectors(entry.dim_space,
                                   [nonzero_pairs(cochain_to_coords(b)) for b in entry.b_basis]) \
        if entry.b_basis else Subspace.zero(entry.dim_space)
    gen = next(z for z in entry.z_basis if not b_span.contains(cochain_to_coords(z)))
    path_a = tmp_path / "c4.alg"
    path_a.write_text(serialize_algebra(alg))
    path_z = tmp_path / "gen.coch"
    path_z.write_text(serialize_cochain(gen))
    code, out, _ = run_cli(capsys, "solve", "--algebra", str(path_a),
                           "--cochain", str(path_z))
    assert code == 2
    assert out.splitlines()[0] == "OBSTRUCTED"


def test_solve_non_cocycle_exit_one(tmp_path, capsys):
    rng = rng_for("clinoncoc")
    alg = conformal_algebra(4)
    c = standard_complex(alg, 4)
    for _ in range(20):
        x = random_integer_cochain(c, 1, 2, 0, rng)
        if not spencer_d(x).is_zero():
            break
    path_a = tmp_path / "c4.alg"
    path_a.write_text(serialize_algebra(alg))
    path_z = tmp_path / "x.coch"
    path_z.write_text(serialize_cochain(x))
    code, _, err = run_cli(capsys, "solve", "--algebra", str(path_a),
                           "--cochain", str(path_z))
    assert code == 1
    assert "not a cocycle" in err


def test_bad_flags_exit_three(tmp_path, capsys):
    bad_alg = {}
    for marker in ("x", "7", "-1"):
        bad_alg[marker] = tmp_path / f"truncated_{marker}.alg"
        bad_alg[marker].write_text(serialize_algebra(conformal_algebra(3)).replace(
            "height 2", f"height 2 truncated {marker}", 1))
    bad_coch = tmp_path / "p9.coch"
    bad_coch.write_text("cochain p 9 q 2 level 0 W 2\n")
    missing = str(tmp_path / "missing")
    not_utf8 = tmp_path / "latin1.alg"
    not_utf8.write_bytes(b"algebra caf\xe9\n")
    zero_coch = tmp_path / "zero.coch"
    zero_coch.write_text(serialize_cochain(
        Cochain.zero(standard_complex(conformal_algebra(3), 2), 1, 2, 0)))
    solve_zero = ("solve", "--family", "conformal", "--dim", "3", "--cochain", str(zero_coch))
    conf3 = ("cohomology", "--family", "conformal", "--dim", "3", "--w-dim", "2")
    table = [
        ("prolong", "--family", "so"),
        conf3 + ("--p", "1..x"),
        conf3 + ("--p", "5..2"),
        conf3 + ("--p", "-1"),
        conf3 + ("--q", "-1"),
        conf3 + ("--level", "-1"),
        ("validate", str(bad_alg["x"])),
        ("cohomology", "--algebra", str(bad_alg["x"]), "--w-dim", "2"),
        ("validate", str(bad_alg["7"])),
        ("cohomology", "--algebra", str(bad_alg["7"]), "--w-dim", "2", "--p", "0..3"),
        ("cohomology", "--family", "cr", "--m", "2", "--k", "1", "--w-dim", "3",
         "--max-order", "2", "--p", "3"),
        ("validate", str(bad_alg["-1"])),
        ("solve", "--family", "conformal", "--dim", "3", "--cochain", str(bad_coch)),
        ("validate", missing),
        ("cohomology", "--algebra", missing, "--w-dim", "2"),
        ("solve", "--family", "conformal", "--dim", "3", "--cochain", missing),
        ("validate", str(not_utf8)),
        solve_zero + ("--output", str(tmp_path / "no" / "such" / "x.coch")),
        solve_zero + ("--output", str(tmp_path)),
    ]
    for argv in table:
        code, _, err = run_cli(capsys, *argv)
        assert code == 3, argv
        assert len(err.strip().splitlines()) == 1, (argv, err)
        assert "Traceback" not in err, argv


def test_paper_verify_all_pass(capsys):
    code, out, err = run_cli(capsys, "paper-verify", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    rows = [line for line in lines[1:] if "," in line]
    assert all(line.rsplit(",", 1)[1] == "pass" for line in rows)
    assert "claims pass" in err
    golden = Path(__file__).resolve().parent.parent / "perfbench" / "expected" / "paper_verify.csv"
    assert out.splitlines() == golden.read_text(encoding="utf-8").splitlines()


GOLDEN = Path(__file__).resolve().parent / "golden"
CR21 = ("cohomology", "--family", "cr", "--m", "2", "--k", "1", "--max-order", "2",
        "--w-dim", "3", "--p", "0..2", "--format", "csv")


def _fresh_cli(*argv):
    """Run `python -m gspencer.cli` in a fresh interpreter; (exit code, stdout bytes)."""
    src = str(Path(gspencer.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONHASHSEED="12345",
               PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-m", "gspencer.cli", *argv], env=env,
                          capture_output=True, timeout=300)
    return proc.returncode, proc.stdout


# The cochain inputs are d(y0) for a seeded integer y0 in C^{2,1} of conformal(3)
# with W = 3, and the first cohomology generator of conformal(4), W = 4, at
# (p, q) = (1, 2) that test_solve_obstructed_exit_two picks.
@pytest.mark.parametrize("golden, code, argv", [
    ("cr_2_1_q1.csv", 0, CR21 + ("--q", "1")),
    ("cr_2_1_q2.csv", 0, CR21 + ("--q", "2")),
    ("conformal3_w3_dy0.solved", 0, ("solve", "--family", "conformal", "--dim", "3",
                                     "--cochain", str(GOLDEN / "conformal3_w3_dy0.coch"))),
    ("conformal4_w4_generator.obstructed", 2,
     ("solve", "--family", "conformal", "--dim", "4",
      "--cochain", str(GOLDEN / "conformal4_w4_generator.coch"))),
])
def test_cli_output_matches_golden_file(golden, code, argv):
    assert _fresh_cli(*argv) == (code, (GOLDEN / golden).read_bytes())


def test_outputs_deterministic(capsys):
    # the second run is a fresh interpreter with another hash seed, so no
    # in-process cache and no set or dict ordering can make the outputs agree
    argv = ("cohomology", "--family", "conformal", "--dim", "3",
            "--w-dim", "2", "--p", "0..2", "--format", "csv")
    _, out1, _ = run_cli(capsys, *argv)
    assert _fresh_cli(*argv) == (0, out1.encode())
