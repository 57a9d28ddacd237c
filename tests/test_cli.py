"""End-to-end CLI tests: exit codes, report shapes, and byte determinism."""

import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import diskkernels
from diskkernels.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_psd_pass(capsys):
    code, out, _ = run_cli(capsys, "psd", "--kernel", "szego", "--grid", "radial[0.5;angles=8]")
    assert code == 0
    report = json.loads(out)
    assert report["is_psd"] is True
    assert report["kernel"] == "szego"
    assert report["grid"]["size"] == 8


def test_psd_refuted_negative_kernel(capsys):
    code, out, _ = run_cli(
        capsys, "psd", "--kernel", "diff(szego,scale(2,szego))",
        "--grid", "radial[0.5;angles=8]",
    )
    assert code == 2
    assert json.loads(out)["is_psd"] is False


def test_psd_bad_radius_is_usage_error(capsys):
    code, out, err = run_cli(
        capsys, "psd", "--kernel", "szego", "--grid", "radial[1.5;angles=4]"
    )
    assert code == 1
    assert out == ""
    # Caret diagnostic points at the offending radius.
    lines = err.splitlines()
    assert lines[0] == "radial[1.5;angles=4]"
    assert lines[1].index("^") == lines[0].index("1.5")


def test_unknown_kernel_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "psd", "--kernel", "szegoo", "--grid", "radial[0.5;angles=4]")
    assert code == 1
    assert "unknown kernel" in err


def test_missing_required_flag_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "psd", "--kernel", "szego")
    assert code == 1
    assert "error" in err.lower()


def test_dominance_monomial_square(capsys):
    code, out, _ = run_cli(
        capsys, "dominance",
        "--k1", "subbergman[b=blaschke[0,0;c=1],alpha=0]",
        "--k2", "szego",
        "--grid", "radial[0.2,0.4,0.6,0.8;angles=16]",
    )
    assert code == 0
    report = json.loads(out)
    assert report["delta_min"] <= 2.0 + 1e-9
    assert set(report) == {"delta_min", "min_eig", "jitter", "grid", "kernel1", "kernel2"}
    # Embedded specs re-parse to the same structures.
    from diskkernels.specs import parse_kernel

    assert parse_kernel(report["kernel1"]) == parse_kernel(
        "subbergman[b=blaschke[0,0;c=1],alpha=0]"
    )


def test_ratio_table(capsys):
    code, out, _ = run_cli(
        capsys, "ratio", "--b", "atomic[sigma=1,xi=1]", "--radii", "0.9,0.99,0.999"
    )
    assert code == 0
    report = json.loads(out)
    oracle = [1.0 / (1.0 - r * r) for r in (0.9, 0.99, 0.999)]
    np.testing.assert_allclose(report["values"], oracle, rtol=1e-3)
    assert report["sup"] == max(report["values"])


def test_onb_identity(capsys):
    code, out, _ = run_cli(
        capsys, "onb", "--b", "blaschke[0,0;c=1]", "--grid", "radial[0.5;angles=8]"
    )
    assert code == 0
    report = json.loads(out)
    assert report["residual"] <= 1e-12
    assert report["orthonormality_defect"] <= 1e-12
    assert len(report["basis"]) == 2


def test_onb_rejects_non_blaschke(capsys):
    code, _, err = run_cli(
        capsys, "onb", "--b", "atomic[sigma=1,xi=1]", "--grid", "radial[0.5;angles=8]"
    )
    assert code == 1
    assert "Blaschke" in err


def test_toeplitz_stdout_csv(capsys):
    code, out, _ = run_cli(
        capsys, "--degree", "2", "toeplitz", "--b", "blaschke[0;c=1]", "--alpha", "0"
    )
    assert code == 0
    rows = list(csv.reader(out.splitlines()))
    matrix = np.array(
        [[complex(*map(float, cell.split(","))) for cell in row] for row in rows]
    )
    assert matrix.shape == (3, 3)
    assert matrix[1, 0] == pytest.approx(np.sqrt(0.5))


def test_toeplitz_degree_after_subcommand(capsys):
    code, out, _ = run_cli(
        capsys, "toeplitz", "--b", "blaschke[0;c=1]", "--alpha", "0", "--degree", "2"
    )
    assert code == 0
    assert len(out.splitlines()) == 3


def test_toeplitz_file_output(tmp_path, capsys):
    target = tmp_path / "matrix.csv"
    code, out, _ = run_cli(
        capsys, "--degree", "4", "toeplitz", "--b", "blaschke[0.5;c=1]",
        "--alpha", "1", "--kind", "coanalytic", "--out", str(target),
    )
    assert code == 0
    report = json.loads(out)
    assert report["csv"] == str(target)
    assert target.exists()
    sidecar = json.loads((tmp_path / "matrix.csv.json").read_text())
    assert sidecar["kind"] == "coanalytic"
    assert sidecar["alpha"] == 1.0


def test_membership_pass_and_refute(capsys):
    code, _, _ = run_cli(
        capsys, "membership", "--f", "const[1]", "--kernel", "szego",
        "--c", "1", "--grid", "radial[0.5;angles=8]",
    )
    assert code == 0
    code, out, _ = run_cli(
        capsys, "membership", "--f", "const[1]", "--kernel", "szego",
        "--c", "0.5", "--grid", "radial[0.5;angles=8]",
    )
    assert code == 2
    assert json.loads(out)["is_psd"] is False


def test_multiplier_pass(capsys):
    code, out, _ = run_cli(
        capsys, "multiplier", "--phi", "blaschke[0;c=1]", "--kernel", "szego",
        "--delta", "1", "--grid", "radial[0.5;angles=8]",
    )
    assert code == 0
    assert json.loads(out)["is_psd"] is True


def test_verify_sub_requires_grid(capsys):
    code, _, err = run_cli(capsys, "verify", "sub", "--b", "blaschke[0;c=1]")
    assert code == 1
    assert "--grid" in err


def test_verify_sub_pass(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "sub", "--b", "blaschke[0,0;c=1]",
        "--grid", "radial[0.2,0.5,0.8;angles=8]",
    )
    assert code == 0
    report = json.loads(out)
    assert report["theorem"] == "sub"
    assert report["verdict"] == "pass"


def test_verify_sub2_blaschke_uses_forward_direction(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "sub2", "--b", "blaschke[0,0;c=1]",
        "--grid", "radial[0.2,0.5,0.8;angles=8]",
    )
    assert code == 0
    assert json.loads(out)["theorem"] == "sub2-forward"


def test_verify_sub2_atomic_divergent(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "sub2", "--b", "atomic[sigma=1,xi=1]",
        "--radii", "0.9,0.99,0.999",
    )
    assert code == 0
    report = json.loads(out)
    assert report["theorem"] == "sub2-converse"
    assert report["verdict"] == "divergent"


def test_verify_m1_composite(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "m1", "--b", "atomic[sigma=1,xi=1]",
        "--grid", "radial[0.2,0.5,0.8;angles=8]",
    )
    assert code == 0
    report = json.loads(out)
    assert report["theorem"] == "m1-special-case"
    assert report["verdict"] == "pass"
    assert len(report["details"]) == 2


def test_csv_format_flattens_report(capsys):
    code, out, _ = run_cli(
        capsys, "--format", "csv", "psd", "--kernel", "szego",
        "--grid", "radial[0.5;angles=4]",
    )
    assert code == 0
    rows = {row[0]: row[1] for row in csv.reader(out.splitlines())}
    assert rows["is_psd"] == "true"
    assert rows["kernel"] == "szego"
    assert "grid.size" in rows


def test_identical_invocations_are_byte_identical(capsys):
    argv = [
        "dominance", "--k1", "szego", "--k2", "scale(2,szego)",
        "--grid", "random[n=20,rmax=0.8,seed=5]",
    ]
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second
    # Grids with an omitted seed fall back to --seed and stay deterministic.
    argv = [
        "--seed", "9", "dominance", "--k1", "szego", "--k2", "scale(2,szego)",
        "--grid", "random[n=20,rmax=0.8]",
    ]
    _, third, _ = run_cli(capsys, *argv)
    _, fourth, _ = run_cli(capsys, *argv)
    assert third == fourth
    assert json.loads(third)["grid"]["spec"] != json.loads(first)["grid"]["spec"]


def test_console_entry_point_runs():
    src = os.path.dirname(os.path.dirname(os.path.abspath(diskkernels.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "diskkernels", "psd", "--kernel", "szego",
         "--grid", "radial[0.5;angles=4]"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["is_psd"] is True


@pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
def test_bad_tol_is_usage_error(capsys, tol):
    for argv in (
        ["psd", "--kernel", "szego", "--grid", "radial[0.5;angles=8]", "--tol", tol],
        ["--tol", tol, "dominance", "--k1", "szego", "--k2", "szego",
         "--grid", "radial[0.5;angles=8]"],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert "--tol" in err


def test_angles_below_one_is_usage_error(capsys):
    for argv in (
        ["ratio", "--b", "blaschke[0.5;c=1]", "--radii", "0.5,0.9", "--angles", "0"],
        ["verify", "sub2", "--b", "atomic[sigma=1,xi=1]", "--angles", "-2"],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert "--angles" in err


def test_overflowing_kernel_is_usage_error_without_warnings(capsys):
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(
            capsys, "psd", "--kernel", "scale(1e400,szego)", "--grid", "radial[0.5;angles=8]"
        )
    assert code == 1
    assert out == ""
    assert "non-finite" in err
