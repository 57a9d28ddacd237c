"""Kernel nodes and symbols answer their own structure.

Each kernel node class carries ``diagonal_series`` and each symbol class
``monomial``, so ``psd`` names no node or symbol class. The two functions
below are the ``isinstance`` ladders that ``psd`` used before, kept verbatim
as the reference: the oracle's coefficients must match them bit for bit and
its errors word for word, and ``is_psd`` must pick the same route.
"""

import ast
import contextlib
import io
import pathlib
import typing
from typing import Optional

import numpy as np
import pytest

from diskkernels import kernels as kx
from diskkernels import cli, functions, psd
from diskkernels.functions import (
    AtomicSingularInner,
    BlaschkeProduct,
    ConstantFunction,
    NormalizedZeroKernel,
    TaylorPolynomial,
    normalized_zero_kernel,
)
from diskkernels.kernels import (
    RadialGrid,
    gram,
    sample_grid,
    weighted_bergman_coefficients,
)
from diskkernels.psd import DEFAULT_TOL, diagonal_positivity_oracle, is_psd
from diskkernels.specs import parse_function
from diskkernels.verify import (
    verify_equality_converse,
    verify_equality_forward,
    verify_inclusion,
    verify_m1,
)


def _radial_monomial(f) -> Optional[tuple[complex, int]]:
    """Decompose f as c * z^k when possible; None otherwise."""
    if isinstance(f, BlaschkeProduct):
        if all(a == 0 for a in f.zeros):
            return f.unimodular_constant, f.degree
        return None
    if isinstance(f, ConstantFunction):
        return f.value, 0
    if isinstance(f, TaylorPolynomial):
        support = [i for i, c in enumerate(f.coefficients) if c != 0]
        if len(support) == 0:
            return 0.0 + 0.0j, 0
        if len(support) == 1:
            k = support[0]
            return f.coefficients[k], k
        return None
    if isinstance(f, NormalizedZeroKernel):
        if f.value_at_zero == 0:
            return 1.0 + 0.0j, 0
        return None
    return None


def _diagonal_series(kernel, order: int) -> np.ndarray:
    if isinstance(kernel, kx.Szego):
        return np.ones(order + 1)
    if isinstance(kernel, kx.WeightedBergman):
        return weighted_bergman_coefficients(kernel.alpha, order)
    if isinstance(kernel, (kx.DBR, kx.SubBergman)):
        mono = _radial_monomial(kernel.b)
        if mono is None:
            raise ValueError(
                "kernel is not rotation-invariant: symbol is not of the form c z^k"
            )
        c, k = mono
        alpha = kernel.alpha if isinstance(kernel, kx.SubBergman) else -1.0
        base = weighted_bergman_coefficients(alpha, order)
        out = base.copy()
        if k <= order:
            out[k:] -= (abs(c) ** 2) * base[: order + 1 - k]
        return out
    if isinstance(kernel, kx.Sum):
        return _diagonal_series(kernel.left, order) + _diagonal_series(
            kernel.right, order
        )
    if isinstance(kernel, kx.Difference):
        return _diagonal_series(kernel.left, order) - _diagonal_series(
            kernel.right, order
        )
    if isinstance(kernel, kx.Scale):
        return kernel.factor * _diagonal_series(kernel.operand, order)
    if isinstance(kernel, kx.SchurProduct):
        conv = np.convolve(
            _diagonal_series(kernel.left, order),
            _diagonal_series(kernel.right, order),
        )
        return conv[: order + 1]
    if isinstance(kernel, kx.ConjugateScale):
        mono = _radial_monomial(kernel.func)
        if mono is None:
            raise ValueError(
                "kernel is not rotation-invariant: conjugate-scaling symbol is "
                "not of the form c z^k"
            )
        c, k = mono
        base = _diagonal_series(kernel.operand, order)
        out = np.zeros(order + 1)
        if k <= order:
            out[k:] = (abs(c) ** 2) * base[: order + 1 - k]
        return out
    raise TypeError("not a kernel expression: %r" % (kernel,))


class EvalOnly:
    """A symbol with ``eval`` and nothing else: b(z) = z/2."""

    def eval(self, z):
        return 0.5 * np.asarray(z, dtype=complex)


SYMBOLS = {
    "blaschke-at-0": BlaschkeProduct((0.0,)),
    "blaschke-at-0-cubed": BlaschkeProduct((0.0, -0.0, 0.0), -1j),
    "blaschke-off-0": BlaschkeProduct((0.3,)),
    "blaschke-mixed": BlaschkeProduct((0.0, 0.5j)),
    "atomic": AtomicSingularInner(1.0, 1.0),
    "atomic-rotated": AtomicSingularInner(0.4, 1j),
    "poly-none": TaylorPolynomial((0.0,)),
    "poly-none-negzero": TaylorPolynomial((-0.0, 0.0, -0.0 - 0.0j)),
    "poly-one-const": TaylorPolynomial((0.5, -0.0)),
    "poly-one": TaylorPolynomial((-0.0, 0.0, -0.6j, -0.0)),
    "poly-one-high": TaylorPolynomial((0.0,) * 9 + (0.9,)),
    "poly-two": TaylorPolynomial((0.3, 0.4)),
    "poly-two-gap": TaylorPolynomial((0.0, 0.2, -0.0, 0.5)),
    "const": ConstantFunction(0.5j),
    "const-zero": ConstantFunction(-0.0),
    "f0-b0-zero": normalized_zero_kernel(BlaschkeProduct((0.0, 0.4))),
    "f0-b0-nonzero": normalized_zero_kernel(BlaschkeProduct((0.5,))),
    "eval-only": EvalOnly(),
}

SZ = kx.Szego()
B1 = kx.WeightedBergman(1.5)
KERNELS = {
    "szego": SZ,
    "bergman-0": kx.WeightedBergman(0.0),
    "bergman-hardy": kx.WeightedBergman(-1.0),
    "bergman-1.5": B1,
    "sum": kx.Sum(SZ, B1),
    "difference": kx.Difference(SZ, kx.WeightedBergman(0.0)),
    "scale": kx.Scale(2.5, B1),
    "scale-zero": kx.Scale(0.0, kx.Difference(SZ, B1)),
    "schur": kx.SchurProduct(SZ, kx.DBR(SYMBOLS["poly-one"])),
    "schur-raises": kx.SchurProduct(kx.DBR(SYMBOLS["poly-two"]), SZ),
    "difference-both-raise": kx.Difference(
        kx.DBR(SYMBOLS["atomic"]), kx.ConjugateScale(SYMBOLS["poly-two"], SZ)
    ),
    "cscale-over-raising-operand": kx.ConjugateScale(
        SYMBOLS["atomic"], kx.DBR(SYMBOLS["blaschke-off-0"])
    ),
    "cscale-nested": kx.ConjugateScale(
        SYMBOLS["poly-one"], kx.ConjugateScale(SYMBOLS["const"], kx.Difference(SZ, B1))
    ),
}
for _name, _f in SYMBOLS.items():
    KERNELS["dbr-" + _name] = kx.DBR(_f)
    KERNELS["subbergman-" + _name] = kx.SubBergman(_f, 0.5)
    KERNELS["cscale-" + _name] = kx.ConjugateScale(_f, B1)

ORDERS = (0, 1, 7, 128, 2048)


def _outcome(series, kernel, order):
    """(coefficient bytes, dtype) or (exception type, message)."""
    try:
        coeffs = series(kernel, order)
    except Exception as exc:
        return type(exc), str(exc)
    return coeffs.tobytes(), coeffs.dtype


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("name", sorted(KERNELS))
def test_oracle_matches_the_reference_ladder(name, order):
    kernel = KERNELS[name]
    expected = _outcome(_diagonal_series, kernel, order)
    got = _outcome(
        lambda k, n: diagonal_positivity_oracle(k, n).coefficients, kernel, order
    )
    assert got == expected
    if expected[0] is not ValueError:
        verdict = diagonal_positivity_oracle(kernel, order).nonnegative
        assert verdict == bool(np.min(_diagonal_series(kernel, order)) >= -1e-12)


def test_the_kernels_reach_every_branch_of_the_reference():
    """Both errors, both verdicts, and a shift k beyond the order."""
    outcomes = [_outcome(_diagonal_series, k, 7) for k in KERNELS.values()]
    messages = {message for kind, message in outcomes if kind is ValueError}
    assert {m.split(": ")[1] for m in messages} == {
        "symbol is not of the form c z^k",
        "conjugate-scaling symbol is not of the form c z^k",
    }
    verdicts = {
        diagonal_positivity_oracle(k, 7).nonnegative
        for k, (kind, _) in zip(KERNELS.values(), outcomes)
        if kind is not ValueError
    }
    assert verdicts == {True, False}
    assert SYMBOLS["poly-one-high"].monomial()[1] > 7


@pytest.mark.parametrize("name", sorted(SYMBOLS))
def test_monomial_matches_the_reference(name):
    f = SYMBOLS[name]
    monomial = f.monomial() if hasattr(f, "monomial") else None
    assert monomial == _radial_monomial(f)


GRID = sample_grid(RadialGrid(radii=(0.3, 0.7), angles=6))


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_routed_or_dense_choice_follows_the_reference(name):
    kernel = KERNELS[name]
    try:
        _diagonal_series(kernel, 0)
        rotation_invariant = True
    except ValueError:
        rotation_invariant = False
    G = gram(kernel, GRID)
    assert (psd._angle_blocks(G, DEFAULT_TOL) is not None) == rotation_invariant
    is_psd(G)


@pytest.mark.parametrize(
    "kernel, role",
    [
        (kx.DBR(EvalOnly()), "symbol"),
        (kx.SubBergman(EvalOnly(), 1.0), "symbol"),
        (kx.ConjugateScale(EvalOnly(), SZ), "conjugate-scaling symbol"),
    ],
)
def test_a_symbol_with_only_eval_is_not_rotation_invariant(kernel, role):
    message = "^kernel is not rotation-invariant: %s is not" % role
    with pytest.raises(ValueError, match=message):
        diagonal_positivity_oracle(kernel)
    G = gram(kernel, GRID)
    assert psd._angle_blocks(G, DEFAULT_TOL) is None
    assert is_psd(G).is_psd
    assert np.isfinite(psd.dominance_delta_min(kernel, SZ, GRID).delta_min)


SYMBOL_CLASSES = {
    "BlaschkeProduct",
    "AtomicSingularInner",
    "TaylorPolynomial",
    "ConstantFunction",
    "NormalizedZeroKernel",
}


def _names(path):
    """Every identifier, attribute and imported name in a module's source."""
    tree = ast.parse(pathlib.Path(path).read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
    return names


def test_psd_names_no_symbol_class_and_no_series_ladder():
    names = _names(psd.__file__)
    assert not names & SYMBOL_CLASSES
    assert "weighted_bergman_coefficients" not in names
    assert not names & {"_diagonal_series", "_radial_monomial"}


def test_every_node_and_symbol_class_answers_its_own_structure():
    for cls in typing.get_args(kx.KernelExpr):
        assert "diagonal_series" in vars(cls), cls.__name__
        assert "rounding_bound" in vars(cls), cls.__name__
    symbols = typing.get_args(functions.SchurFunction) + (NormalizedZeroKernel,)
    assert {cls.__name__ for cls in symbols} == SYMBOL_CLASSES
    for cls in symbols:
        assert "monomial" in vars(cls), cls.__name__


CONSTANT_SYMBOLS = [
    "poly[0.5]", "poly[0.5,0]", "poly[0]", "poly[0,-0]", "const[0.5]"
]


@pytest.mark.parametrize("spec", CONSTANT_SYMBOLS)
def test_verify_refuses_a_constant_symbol_of_any_kind(spec):
    b = parse_function(spec)
    with pytest.raises(ValueError, match="^the symbol must be non-constant$"):
        verify_inclusion(b, 0.0, GRID)
    with pytest.raises(ValueError, match="^the symbol must be non-constant$"):
        verify_equality_converse(b)
    with pytest.raises(ValueError, match="^the symbol must be non-constant$"):
        verify_m1(b, GRID)


@pytest.mark.parametrize("spec", CONSTANT_SYMBOLS)
@pytest.mark.parametrize("statement", ["sub", "sub2", "m1"])
def test_cli_verify_refuses_a_constant_symbol(spec, statement):
    out, err = io.StringIO(), io.StringIO()
    argv = ["verify", statement, "--b", spec, "--grid", "radial[0.5;angles=4]"]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert (code, out.getvalue()) == (1, "")
    assert err.getvalue() == "error: the symbol must be non-constant\n"


def test_verify_still_runs_nonconstant_monomials_and_blaschke_products():
    for b in (TaylorPolynomial((0.0, 0.5)), BlaschkeProduct((0.0, 0.0))):
        assert verify_inclusion(b, 0.0, GRID).verdict == "pass"
    assert verify_equality_forward(BlaschkeProduct((0.0,)), 0.0, GRID).verdict == "pass"


def test_every_node_class_bounds_its_entries():
    tree = ast.parse(pathlib.Path(kx.__file__).read_text())
    defined = {
        node.name: {item.name for item in node.body if isinstance(item, ast.FunctionDef)}
        for node in tree.body
        if isinstance(node, ast.ClassDef)
    }
    for cls in typing.get_args(kx.KernelExpr):
        assert "entry_bound" in defined[cls.__name__], cls.__name__
