"""Each report is built in one place: the library value, the CLI output and
the theorem-check details must agree bit for bit."""

import ast
import inspect
import json
from types import ModuleType

import pytest

import diskkernels
from diskkernels import (
    AtomicSingularInner,
    BlaschkeProduct,
    SubBergman,
    Szego,
    TaylorPolynomial,
    WeightedBergman,
    dominance_delta_min,
    ratio_table,
    sample_grid,
    verify_equality_converse,
)
from diskkernels import operators, psd
from diskkernels.cli import main
from diskkernels.specs import parse_grid


def cli_report(capsys, *argv):
    code = main(list(argv))
    assert code == 0
    return json.loads(capsys.readouterr().out)


@pytest.mark.parametrize(
    "b, spec",
    [
        (AtomicSingularInner(1.0, 1.0), "atomic[sigma=1,xi=1]"),
        (BlaschkeProduct((0.5, -0.3j)), "blaschke[0.5,-0.3i;c=1]"),
        (TaylorPolynomial((0.5, 0.5)), "poly[0.5,0.5]"),
    ],
)
def test_ratio_table_is_the_cli_table_and_the_converse_table(capsys, b, spec):
    radii, angles = (0.999, 0.5, 0.9), 17
    table = ratio_table(b, radii, angles)
    cli = cli_report(
        capsys, "ratio", "--b", spec, "--radii", "0.999,0.5,0.9", "--angles", "17"
    )
    assert cli["values"] == table
    assert cli["sup"] == max(table) == max(ratio_table(b, radii, angles))
    details = verify_equality_converse(b, radii, angles).details[0]
    assert details["values"] == ratio_table(b, sorted(radii), angles)
    assert details["reference_at_half"] == table[1]


def test_dominance_report_dict_is_the_cli_report_and_the_verify_detail(capsys):
    grid = "radial[0.2,0.5,0.8;angles=8]"
    points = sample_grid(parse_grid(grid))
    b = BlaschkeProduct((0.0, 0.0))
    expected = dominance_delta_min(SubBergman(b, 0.0), Szego(), points).report_dict()
    cli = cli_report(
        capsys, "dominance", "--k1", "subbergman[b=blaschke[0,0;c=1],alpha=0]",
        "--k2", "szego", "--grid", grid,
    )
    assert cli == expected

    inclusion = dominance_delta_min(WeightedBergman(-1.0), SubBergman(b, 0.0), points)
    verify = cli_report(
        capsys, "verify", "sub", "--b", "blaschke[0,0;c=1]", "--grid", grid
    )
    assert verify["details"] == [inclusion.report_dict()]


def test_package_exports_no_submodules():
    assert "psd" not in diskkernels.__all__
    exported = [getattr(diskkernels, name) for name in diskkernels.__all__]
    assert not any(isinstance(obj, ModuleType) for obj in exported)
    assert "dominance_delta_min" in diskkernels.__all__


def _calls(function, callee):
    """The calls in a function's source whose callee reads ``callee``."""
    tree = ast.parse(inspect.getsource(function))
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and ast.unparse(node.func) == callee
    ]


def test_dense_hermitian_steps_are_written_once():
    psd_tree = ast.parse(inspect.getsource(psd))
    assigned = {
        target.id
        for node in ast.walk(psd_tree)
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    assert "FACTOR_BLOCK" in assigned and "SOLVE_BLOCK" not in assigned
    assert not _calls(psd._as_matrix, "np.isfinite")
    # _dominance reads G2's spectrum through _verdict's rule, not its own.
    spectral_rules = [
        call
        for call in _calls(psd._dominance, "max")
        if any(isinstance(arg, ast.Name) and arg.id == "spectral" for arg in call.args)
    ]
    assert not spectral_rules and not _calls(psd._dominance, "_least_and_norm")
    assert len(_calls(psd._dominance, "_verdict")) == 1
    assert len(_calls(operators.defect, "np.linalg.eigh")) == 1
