"""Numbers at the edge of the spec grammar: integer literals beyond the float
range or above 2^53, and polynomial coefficients that overflow on the
certification grid."""

import json

import pytest

from diskkernels.cli import main
from diskkernels.functions import SchurBoundError, TaylorPolynomial
from diskkernels.specs import SpecParseError, parse_function, parse_grid

BIG_SEED = 9007199254740993  # 2^53 + 1, which a float rounds to 2^53


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "grid, token",
    [
        ("radial[0.5;angles=1e400]", "1e400"),
        ("random[n=1e400,rmax=0.5]", "1e400"),
        ("random[n=4,rmax=0.5,seed=1e400]", "1e400"),
        ("radial[0.5;angles=" + "9" * 4301 + "]", "9" * 4301),
    ],
)
def test_integer_beyond_range_is_a_caret_diagnostic(capsys, grid, token):
    code, out, err = run_cli(capsys, "psd", "--kernel", "szego", "--grid", grid)
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    text, caret, message = err.splitlines()
    assert text == grid
    assert caret.index("^") == grid.index(token)
    assert message == "integer out of range"


def test_huge_integral_size_is_refused_by_the_size_limit(capsys):
    code, out, err = run_cli(
        capsys, "psd", "--kernel", "szego", "--grid", "radial[0.5;angles=1e300]"
    )
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    assert "complex matrix (1.6e+592 GB), above the limit" in err


def test_digits_only_integer_is_read_exactly(capsys):
    grid = "random[n=4,rmax=0.5,seed=%d]" % BIG_SEED
    assert parse_grid(grid).seed == BIG_SEED
    code, out, err = run_cli(capsys, "psd", "--kernel", "szego", "--grid", grid)
    assert code == 0, err
    assert json.loads(out)["grid"]["spec"] == grid


def test_integral_exponent_literals_are_still_integers():
    assert parse_grid("radial[0.5;angles=1e2]").angles == 100
    assert parse_grid("random[n=8,rmax=0.5,seed=2.0]").seed == 2
    with pytest.raises(SpecParseError, match="expected an integer"):
        parse_grid("radial[0.5;angles=2.5]")


def test_polynomial_overflowing_on_the_grid_is_refused():
    # The grid values are NaN here, and NaN > 1 is false.
    coeffs = (0.0, 1e308, 1e308, 1e308, 1e308)
    with pytest.raises(SchurBoundError, match="max modulus nan"):
        TaylorPolynomial(coeffs)
    with pytest.raises(SpecParseError, match="exceeds the unit ball"):
        parse_function("poly[1e308,1e308]")
