"""Kernel, symbol and point parameters that are NaN or infinite are rejected.

A range check such as ``alpha < -1`` is false for NaN, so without an explicit
finiteness check a NaN parameter would pass and later yield NaN coefficients,
read as a refutation.
"""

import math

import pytest

from diskkernels import (
    AtomicSingularInner,
    BlaschkeProduct,
    ConstantFunction,
    PointSet,
    Scale,
    SubBergman,
    Szego,
    TaylorPolynomial,
    WeightedBergman,
    ensure_in_disk,
    default_grid,
    eval_kernel,
    membership_check,
    monomial_norms,
    multiplier_check,
    ratio_values,
)
from diskkernels.cli import main

NAN, INF = math.nan, math.inf
B = BlaschkeProduct((0.5,))

BUILDERS = {
    "scale-nan": lambda: Scale(NAN, Szego()),
    "scale-inf": lambda: Scale(INF, Szego()),
    "bergman-nan": lambda: WeightedBergman(NAN),
    "bergman-inf": lambda: WeightedBergman(INF),
    "subbergman-nan": lambda: SubBergman(B, NAN),
    "subbergman-inf": lambda: SubBergman(B, INF),
    "const-nan": lambda: ConstantFunction(NAN),
    "poly-nan": lambda: TaylorPolynomial((NAN, 0.5)),
    "poly-nan-unchecked": lambda: TaylorPolynomial((NAN,), unit_ball_check=False),
    "blaschke-zero-nan": lambda: BlaschkeProduct((NAN,)),
    "blaschke-constant-nan": lambda: BlaschkeProduct((0.5,), NAN),
    "atomic-mass-inf": lambda: AtomicSingularInner(INF),
    "atomic-atom-nan": lambda: AtomicSingularInner(1.0, NAN),
    "monomial-norms-nan": lambda: monomial_norms(NAN, 4),
    "monomial-norms-inf": lambda: monomial_norms(INF, 4),
    "point-set-nan": lambda: PointSet((0.5, NAN)),
    "ensure-in-disk-nan": lambda: ensure_in_disk(NAN),
    "eval-kernel-nan": lambda: eval_kernel(Szego(), NAN, 0.0),
    "ratio-values-nan": lambda: ratio_values(B, [0.5, NAN]),
    "membership-bound-nan": lambda: membership_check(B, Szego(), NAN, default_grid()),
    "membership-bound-inf": lambda: membership_check(B, Szego(), INF, default_grid()),
    "multiplier-bound-nan": lambda: multiplier_check(B, Szego(), NAN, default_grid()),
}


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_non_finite_parameter_is_rejected(name):
    with pytest.raises(ValueError):
        BUILDERS[name]()


@pytest.mark.parametrize(
    "kernel", ["bergman[alpha=1e400]", "subbergman[b=blaschke[0.5;c=1],alpha=1e400]"]
)
def test_cli_rejects_overflowing_parameter_at_parse(capsys, kernel):
    code = main(["psd", "--kernel", kernel, "--grid", "radial[0.5;angles=8]"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    text, caret, message = captured.err.rstrip("\n").split("\n")
    assert text == kernel
    assert caret.strip() == "^"
    assert message == "non-finite alpha: inf"


def test_cli_rejects_non_finite_weight(capsys):
    code = main(
        ["toeplitz", "--b", "blaschke[0.5;c=1]", "--alpha", "nan", "--degree", "2"]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: non-finite alpha: nan\n"
