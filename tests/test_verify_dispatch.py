"""One home for the forward-or-converse choice: ``verify.verify_equality``.

The command line forwards its flags to ``verify`` and decides nothing by
symbol type; every verdict's exit code comes from ``TheoremReport.holds``.
The same file pins the angle-count limit of ratio tables.
"""

import ast
import json
from pathlib import Path

import pytest
from test_cli_inputs import _peak_bytes

from diskkernels import cli, kernels, psd, verify
from diskkernels.formatting import canonical_json
from diskkernels.functions import BlaschkeProduct, ratio_table
from diskkernels.kernels import sample_grid
from diskkernels.specs import parse_function, parse_grid
from diskkernels.verify import TheoremReport, verify_equality, verify_m1

SRC = Path(verify.__file__).parent
ATOMIC = "atomic[sigma=1,xi=1]"
GRID = "radial[0.3,0.7;angles=6]"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_names_no_symbol_class_and_calls_no_isinstance():
    functions_tree = ast.parse((SRC / "functions.py").read_text())
    classes = {n.name for n in ast.walk(functions_tree) if isinstance(n, ast.ClassDef)}
    assert "BlaschkeProduct" in classes
    cli_tree = ast.parse((SRC / "cli.py").read_text())
    names = set()
    for node in ast.walk(cli_tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.asname or node.name)
    assert not names & classes
    assert "isinstance" not in names


def test_m1_honours_angles(capsys):
    code, out, err = run_cli(
        capsys, "verify", "m1", "--b", ATOMIC, "--grid", GRID, "--angles", "8"
    )
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["details"][1]["grid"]["angles"] == 8
    points = sample_grid(parse_grid(GRID))
    expected = verify_m1(parse_function(ATOMIC), points, angles=8).report_dict()
    assert out == canonical_json(expected) + "\n"


def test_sub2_converse_still_checks_its_grid(capsys):
    code, out, err = run_cli(
        capsys, "verify", "sub2", "--b", ATOMIC, "--grid", "radial[1.5;angles=4]"
    )
    assert (code, out) == (1, "")
    assert err.splitlines() == [
        "radial[1.5;angles=4]",
        "       ^",
        "grid radius must lie in (0, 1)",
    ]


def test_verify_equality_dispatches_on_the_symbol():
    points = sample_grid(parse_grid(GRID))
    forward = verify_equality(parse_function("blaschke[0.3,0.5i]"), 0.0, points)
    assert forward.theorem == "sub2-forward"
    for spec in (ATOMIC, "poly[0.5,0.3]"):
        converse = verify_equality(parse_function(spec), 0.0, None, angles=8)
        assert converse.theorem == "sub2-converse"
        assert converse.grid["angles"] == 8


def test_blaschke_without_grid_is_refused_before_any_gram(monkeypatch):
    def no_compute(*args, **kwargs):
        raise AssertionError("computed before refusing")

    monkeypatch.setattr(psd, "gram", no_compute)
    monkeypatch.setattr(verify, "dominance_delta_min", no_compute)
    monkeypatch.setattr(verify, "pointwise_bound_constant", no_compute)
    with pytest.raises(ValueError, match="needs a grid"):
        verify_equality(BlaschkeProduct((0.5,)), 0.0, None)


def test_onb_refuses_a_non_blaschke_symbol_before_sampling(capsys, monkeypatch):
    def no_sampling(*args, **kwargs):
        raise AssertionError("grid sampled before refusing")

    monkeypatch.setattr(cli, "sample_grid", no_sampling)
    code, out, err = run_cli(capsys, "onb", "--b", ATOMIC, "--grid", GRID)
    assert (code, out) == (1, "")
    assert err == "error: the model-space basis needs a finite Blaschke product\n"


@pytest.mark.parametrize(
    "verdict, holds",
    [("pass", True), ("fail", False), ("divergent", True), ("bounded", False)],
)
def test_holds_follows_the_verdict(verdict, holds):
    report = TheoremReport("sub", "poly[0.5]", None, {}, None, 0.0, verdict, ())
    assert report.holds is holds


def test_ratio_table_refuses_an_oversized_angle_count(monkeypatch):
    b = parse_function("poly[0.5]")
    with pytest.raises(ValueError, match="1000000000 angles per circle"):
        ratio_table(b, (0.5,), 10**9)
    monkeypatch.setattr(kernels, "MAX_DENSE_BYTES", 96 * 10)
    assert len(ratio_table(b, (0.5,), 10)) == 1
    with pytest.raises(ValueError, match="above the limit"):
        ratio_table(b, (0.5,), 11)


@pytest.mark.parametrize(
    "argv",
    [
        ("ratio", "--b", "poly[0.5]", "--radii", "0.5", "--angles", "1000000000"),
        ("verify", "sub2", "--b", ATOMIC, "--angles", "1000000000"),
        ("verify", "m1", "--b", ATOMIC, "--grid", GRID, "--angles", "1000000000"),
    ],
)
def test_oversized_angles_exit_1_before_allocating(capsys, argv):
    result = {}
    peak = _peak_bytes(lambda: result.update(code=cli.main(list(argv))))
    captured = capsys.readouterr()
    assert (result["code"], captured.out) == (1, "")
    assert captured.err.startswith("error: 1000000000 angles per circle need")
    assert peak < 4 * 1024 * 1024
