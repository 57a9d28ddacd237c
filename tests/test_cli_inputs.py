"""CLI input handling: unwritable output paths, non-Schur test functions,
the dense-size limit on grids and truncation degrees, random grids too
crowded to sample, and the --seed flag."""

import json
import os
import subprocess
import sys
import tracemalloc

import pytest

import diskkernels
from diskkernels import kernels
from diskkernels.cli import main
from diskkernels.formatting import _fmt_count, _fmt_gigabytes
from diskkernels.kernels import (
    MAX_DENSE_BYTES,
    PointSet,
    RadialGrid,
    RandomGrid,
    Szego,
    gram,
)
from diskkernels.operators import SpaceWeight, monomial_norms
from diskkernels.specs import SpecParseError, parse_function, parse_grid


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_toeplitz_out_in_missing_directory_is_an_error_line(capsys, tmp_path):
    target = tmp_path / "missing_dir" / "x.csv"
    code, out, err = run_cli(
        capsys, "toeplitz", "--b", "blaschke[0.5]", "--degree", "8", "--out", str(target)
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")
    assert "No such file or directory" in err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1


def test_membership_f_need_not_be_a_schur_function(capsys):
    grid = "radial[0.5;angles=8]"
    code, out, err = run_cli(
        capsys, "membership", "--f", "poly[1,0.5]", "--kernel", "szego", "--c", "2",
        "--grid", grid,
    )
    # ||1 + z/2||_{H^2} = sqrt(1.25) < 2.
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["is_psd"] is True
    assert report["f"] == "poly[1,0.5]"
    code, out, _ = run_cli(
        capsys, "membership", "--f", "const[2]", "--kernel", "szego", "--c", "3",
        "--grid", grid,
    )
    assert code == 0
    assert json.loads(out)["f"] == "const[2]"
    # ||2||_{H^2} = 2 > 1.5 is refuted on the same grid.
    code, out, _ = run_cli(
        capsys, "membership", "--f", "const[2]", "--kernel", "szego", "--c", "1.5",
        "--grid", grid,
    )
    assert code == 2
    assert json.loads(out)["is_psd"] is False


def test_multiplier_phi_above_sup_norm_one(capsys):
    # The multiplier norm of 1.5 z on H^2 is 1.5.
    args = ("multiplier", "--phi", "poly[0,1.5]", "--kernel", "szego",
            "--grid", "radial[0.5,0.9;angles=16]")
    code, out, err = run_cli(capsys, *args, "--delta", "2")
    assert (code, err) == (0, "")
    assert json.loads(out)["phi"] == "poly[0,1.5]"
    code, out, _ = run_cli(capsys, *args, "--delta", "1.2")
    assert code == 2
    assert json.loads(out)["is_psd"] is False


@pytest.mark.parametrize(
    "argv",
    [
        ("toeplitz", "--b", "poly[2,1]", "--degree", "8"),
        ("ratio", "--b", "const[2]", "--radii", "0.5"),
        ("membership", "--f", "poly[2]", "--kernel", "dbr[b=poly[2]]", "--c", "2",
         "--grid", "radial[0.5;angles=8]"),
        ("multiplier", "--phi", "poly[0,1.5]", "--kernel", "cscale(poly[2],szego)",
         "--delta", "3", "--grid", "radial[0.5;angles=8]"),
    ],
)
def test_b_and_kernel_symbols_keep_the_unit_ball_check(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "unit ball" in err or "at most 1" in err


def test_parse_function_schur_flag():
    assert parse_function("poly[1,0.5]", schur=False).unit_ball_check is False
    assert parse_function("const[2]", schur=False).value == 2
    with pytest.raises(SpecParseError):
        parse_function("poly[1,0.5]")
    with pytest.raises(SpecParseError):
        parse_function("const[nan]", schur=False)


def test_limit_lies_above_test_and_benchmark_sizes():
    assert 16 * 1600**2 <= MAX_DENSE_BYTES
    assert 16 * 1025**2 <= MAX_DENSE_BYTES


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return peak


@pytest.mark.parametrize(
    "argv",
    [
        ("psd", "--kernel", "szego", "--grid", "random[n=100000,rmax=0.5,seed=1]"),
        ("psd", "--kernel", "szego", "--grid", "radial[0.3,0.6;angles=50000]"),
        ("toeplitz", "--b", "blaschke[0.5]", "--degree", "100000"),
        ("--degree", "100000", "toeplitz", "--b", "atomic[sigma=1,xi=1]", "--alpha", "1"),
    ],
)
def test_oversized_grid_or_degree_is_refused_before_allocation(capsys, argv):
    result = {}
    peak = _peak_bytes(lambda: result.update(code=main(list(argv))))
    captured = capsys.readouterr()
    assert result["code"] == 1
    assert captured.out == ""
    assert "100000 x 100000 complex matrix" in captured.err or (
        "100001 x 100001 complex matrix" in captured.err
    )
    assert "above the limit" in captured.err
    assert peak < 4 * 1024 * 1024


def test_grid_specs_check_the_limit_at_construction():
    with pytest.raises(SpecParseError, match="complex matrix"):
        parse_grid("random[n=100000,rmax=0.5,seed=1]")
    with pytest.raises(ValueError, match="complex matrix"):
        RadialGrid((0.5,), 100000)
    with pytest.raises(ValueError, match="complex matrix"):
        RandomGrid(100000, 0.5, 1)
    with pytest.raises(ValueError, match="complex matrix"):
        monomial_norms(0.0, 100000)
    with pytest.raises(ValueError, match="complex matrix"):
        SpaceWeight.for_degree(-1.0, 100000)


def test_limit_is_one_module_constant(monkeypatch):
    monkeypatch.setattr(kernels, "MAX_DENSE_BYTES", 16 * 10 * 10)
    assert RadialGrid((0.5,), 10).size == 10
    with pytest.raises(ValueError, match="a grid of 11 points"):
        RadialGrid((0.5,), 11)
    assert len(monomial_norms(0.0, 9)) == 10
    with pytest.raises(ValueError, match="degree 10 "):
        monomial_norms(0.0, 10)
    points = PointSet(tuple(0.05 * k for k in range(11)))
    with pytest.raises(ValueError, match="a Gram matrix of 11 points"):
        gram(Szego(), points)


HUGE = "9" * 4000


@pytest.mark.parametrize(
    "argv",
    [
        ("ratio", "--b", "poly[0.5]", "--radii", "0.5", "--angles", HUGE),
        ("--degree", HUGE, "toeplitz", "--b", "poly[0.5]"),
        ("psd", "--kernel", "szego", "--grid", "random[n=%s,rmax=0.5]" % HUGE),
    ],
    ids=["ratio --angles", "toeplitz --degree", "psd random grid"],
)
def test_oversized_size_message_is_short(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "1.00e+4000" in err
    # A caret diagnostic echoes its spec line, which is the input itself.
    for line in err.splitlines():
        assert line in argv or len(line.encode()) < 200


def test_grid_and_degree_messages_name_huge_sizes_briefly():
    for build in (
        lambda: RadialGrid((0.5,), 10**4000),
        lambda: RandomGrid(10**4000, 0.5, 0),
        lambda: monomial_norms(0.0, 10**4000),
    ):
        with pytest.raises(ValueError, match="complex matrix") as info:
            build()
        assert len(str(info.value)) < 200


def test_counts_print_in_full_below_ten_to_the_fifteenth():
    assert _fmt_count(100001) == "100001"
    assert _fmt_count(10**15 - 1) == "999999999999999"
    assert _fmt_count(10**15) == "1.00e+15"
    # Beyond Python's limit on integer digits, which str() would refuse.
    assert _fmt_count(10**5000) == "1.00e+5000"


NINES = "9" * 400


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ("ratio", "--b", "poly[0.5]", "--radii", "0.5", "--angles", NINES),
            "1.00e+400 angles per circle need about 9.6e+392 GB, "
            "above the limit of 0.268 GB",
        ),
        (
            ("toeplitz", "--b", "poly[0.5]", "--degree", NINES),
            "degree 1.00e+400 needs a 1.00e+400 x 1.00e+400 complex matrix "
            "(1.6e+792 GB), above the limit of 0.268 GB",
        ),
        (
            ("ratio", "--b", "poly[0.5]", "--radii", "0.5", "--angles", "1000000000"),
            "1000000000 angles per circle need about 96 GB, "
            "above the limit of 0.268 GB",
        ),
        (
            ("toeplitz", "--b", "poly[0.5]", "--degree", "100000"),
            "degree 100000 needs a 100001 x 100001 complex matrix (160 GB), "
            "above the limit of 0.268 GB",
        ),
    ],
    ids=["ratio huge", "toeplitz huge", "ratio", "toeplitz"],
)
def test_refused_sizes_name_the_gigabytes_they_need(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (1, "", "error: %s\n" % message)


@pytest.mark.parametrize(
    "grid, message",
    [
        ("random[n=2,rmax=4e-11,seed=1]", "2 points 1e-10 apart within radius 4e-11: "),
        ("random[n=3,rmax=1e-300,seed=1]", "3 points 1e-10 apart within radius 1e-300: "),
        ("random[n=300,rmax=1e-9,seed=1]", "300 points 1e-10 apart within radius 1e-09: "),
        # Half the packing bound, but no two draws lie 1e-10 apart.
        (
            "random[n=2,rmax=5e-11,seed=1]",
            "2 points 1e-10 apart within radius 5e-11: 128 draws were refused",
        ),
    ],
    ids=["n=2,rmax=4e-11", "n=3,rmax=1e-300", "n=300,rmax=1e-9", "n=2,rmax=5e-11"],
)
def test_a_random_grid_too_crowded_to_sample_is_refused(grid, message):
    # In a child with a timeout, since the sampler once redrew such grids forever.
    src = os.path.dirname(os.path.dirname(os.path.abspath(diskkernels.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "diskkernels", "psd", "--kernel", "szego", "--grid", grid],
        capture_output=True,
        text=True,
        env=env,
        timeout=5,
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert "cannot sample " + message in proc.stderr


def test_gigabytes_print_as_percent_g_on_both_sides_of_the_float_range():
    assert _fmt_gigabytes(268435456) == "0.268"
    assert _fmt_gigabytes(160004000032) == "160"
    assert _fmt_gigabytes(10**300 - 1) == _fmt_gigabytes(10**300) == "1e+291"
    assert _fmt_gigabytes(12345 * 10**400) == "1.23e+395"
    assert _fmt_gigabytes(16 * 10**8000) == "1.6e+7992"


@pytest.mark.parametrize("grid", ["random[n=4,rmax=0.5]", "radial[0.5;angles=4]"])
@pytest.mark.parametrize("seed", ["-1", "-" + "9" * 30, "1.5", "x", ""])
def test_seed_is_checked_when_the_flags_are_read(capsys, grid, seed):
    call = ("psd", "--kernel", "szego", "--grid", grid)
    for argv in (("--seed", seed) + call, call + ("--seed", seed)):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err == "error: argument --seed: must be an integer >= 0, got %r\n" % seed


def test_seed_may_have_any_number_of_digits(capsys):
    seed = "9" * 30
    grid = "random[n=4,rmax=0.5]"
    code, out, err = run_cli(capsys, "--seed", seed, "psd", "--kernel", "szego", "--grid", grid)
    assert code == 0, err
    assert json.loads(out)["grid"]["spec"] == "random[n=4,rmax=0.5,seed=%s]" % seed
