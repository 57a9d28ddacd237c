"""Tests for the Schur-class symbol types: evaluation, Taylor data, ratios."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diskkernels import (
    AtomicSingularInner,
    BlaschkeProduct,
    ConstantFunction,
    SchurBoundError,
    TaylorPolynomial,
    UnitDiskError,
    blaschke_ratio,
    evaluate,
    normalized_zero_kernel,
    ratio_table,
    ratio_values,
    taylor_coefficients,
)


def test_evaluate_identity_symbol():
    b = BlaschkeProduct((0.0,))
    assert evaluate(b, 0.5) == pytest.approx(0.5)
    assert evaluate(b, 0.3 - 0.2j) == pytest.approx(0.3 - 0.2j)


def test_evaluate_atomic_at_origin():
    s = AtomicSingularInner(1.0, 1.0)
    assert evaluate(s, 0.0) == pytest.approx(np.exp(-1.0))


def test_evaluate_single_zero_fixes_sign_convention():
    # Factors are (a - z)/(1 - conj(a) z), so the value at 0 is the zero itself.
    b = BlaschkeProduct((0.5,))
    assert evaluate(b, 0.0) == pytest.approx(0.5)


def test_evaluate_rejects_boundary_and_exterior():
    b = BlaschkeProduct((0.5,))
    with pytest.raises(UnitDiskError):
        evaluate(b, 1.0)
    with pytest.raises(UnitDiskError):
        evaluate(b, 1.2 + 0.1j)


def test_evaluate_rejects_near_atom():
    s = AtomicSingularInner(1.0, 1.0)
    with pytest.raises(UnitDiskError):
        evaluate(s, 1.0 - 1e-13)


def test_inner_variants_stay_inside_unit_circle():
    symbols = [
        BlaschkeProduct((0.5, -0.3 + 0.2j), np.exp(0.7j)),
        AtomicSingularInner(2.0, -1.0),
    ]
    radii = np.array([0.1, 0.5, 0.9, 0.99])
    angles = np.exp(2j * np.pi * np.arange(16) / 16)
    for f in symbols:
        for r in radii:
            for u in angles:
                assert abs(evaluate(f, r * u)) < 1.0


def test_taylor_monomial_square():
    got = taylor_coefficients(BlaschkeProduct((0.0, 0.0)), 3)
    np.testing.assert_allclose(got, [0.0, 0.0, 1.0, 0.0], atol=1e-15)


def test_taylor_single_zero_against_series_oracle():
    # Oracle first: (1/2 - z) * sum_n (z/2)^n, multiplied term by term.
    geo = 0.5 ** np.arange(8)
    oracle = 0.5 * geo.copy()
    oracle[1:] -= geo[:-1]
    np.testing.assert_allclose(oracle[:3], [0.5, -0.75, -0.375], rtol=0, atol=0)
    got = taylor_coefficients(BlaschkeProduct((0.5,)), 2)
    np.testing.assert_allclose(got, oracle[:3], atol=1e-15)


def test_taylor_atomic_leading_coefficients():
    got = taylor_coefficients(AtomicSingularInner(1.0, 1.0), 0)
    np.testing.assert_allclose(got, [np.exp(-1.0)], atol=1e-15)
    # Next order from the exponential-of-series recurrence by hand:
    # s = exp(g) with g = -1 - 2z - 2z^2 - ..., so s'(0) = g'(0) s(0) = -2/e.
    got = taylor_coefficients(AtomicSingularInner(1.0, 1.0), 1)
    np.testing.assert_allclose(got, [np.exp(-1.0), -2 * np.exp(-1.0)], atol=1e-15)


@settings(max_examples=25, deadline=None)
@given(
    re=st.floats(min_value=-0.5, max_value=0.5),
    im=st.floats(min_value=-0.5, max_value=0.5),
    order=st.integers(min_value=8, max_value=40),
)
def test_taylor_partial_sums_obey_geometric_tail(re, im, order):
    z = complex(re, im)
    if abs(z) > 0.5:
        z *= 0.5 / abs(z)
    b = BlaschkeProduct((0.4, -0.3j), np.exp(0.3j))
    coeffs = taylor_coefficients(b, order)
    partial = np.polynomial.polynomial.polyval(z, coeffs)
    bound = 2.0 ** (-(order - 2)) / (1.0 - abs(z))
    assert abs(evaluate(b, z) - partial) <= bound


def test_polynomial_certification_rejects_non_schur():
    with pytest.raises(SchurBoundError):
        TaylorPolynomial((0.0, 2.0))
    # The escape hatch defers the failure to evaluation time on a bad point.
    loose = TaylorPolynomial((0.0, 2.0), unit_ball_check=False)
    assert evaluate(loose, 0.25) == pytest.approx(0.5)


def test_constant_function_requires_closed_ball():
    assert evaluate(ConstantFunction(0.3 + 0.4j), 0.9) == pytest.approx(0.3 + 0.4j)
    with pytest.raises(SchurBoundError):
        ConstantFunction(1.0 + 1e-6)


def test_atomic_requires_positive_mass_and_unimodular_atom():
    with pytest.raises(ValueError):
        AtomicSingularInner(0.0, 1.0)
    with pytest.raises(ValueError):
        AtomicSingularInner(1.0, 0.5)


def test_blaschke_requires_unimodular_constant_and_disk_zeros():
    with pytest.raises(ValueError):
        BlaschkeProduct((0.5,), 2.0)
    with pytest.raises(UnitDiskError):
        BlaschkeProduct((1.5,))


def test_normalized_zero_kernel_identity_symbol():
    nk = normalized_zero_kernel(BlaschkeProduct((0.0,)))
    assert nk.inverse_sup_bound == pytest.approx(1.0)
    for z in (0.0, 0.5, -0.2 + 0.6j):
        assert evaluate(nk, z) == pytest.approx(1.0)


def test_normalized_zero_kernel_inverse_bound():
    # Oracle first: |b(0)| = 1/2 plugged into sqrt((1+t)/(1-t)).
    oracle = np.sqrt((1 + 0.5) / (1 - 0.5))
    assert oracle == pytest.approx(np.sqrt(3.0))
    nk = normalized_zero_kernel(BlaschkeProduct((-0.5,)))
    assert nk.value_at_zero == pytest.approx(-0.5)
    assert nk.inverse_sup_bound == pytest.approx(oracle)


def test_normalized_zero_kernel_monomial_square_is_one_at_origin():
    nk = normalized_zero_kernel(BlaschkeProduct((0.0, 0.0)))
    assert evaluate(nk, 0.0) == pytest.approx(1.0)


def test_normalized_zero_kernel_rejects_unimodular_constant():
    with pytest.raises(ValueError):
        normalized_zero_kernel(ConstantFunction(1.0))


def test_blaschke_ratio_identity_and_monomials():
    b = BlaschkeProduct((0.0,))
    for z in (0.1, 0.5j, -0.7 + 0.2j):
        assert blaschke_ratio(b, z) == pytest.approx(1.0)
    assert blaschke_ratio(BlaschkeProduct((0.0, 0.0)), 0.6) == pytest.approx(1.36)


def test_blaschke_ratio_monomials_match_geometric_sum_exactly():
    # (1 - |z|^{2N})/(1 - |z|^2) telescopes to sum_{k<N} |z|^{2k}.
    for n in (1, 2, 3, 5):
        b = BlaschkeProduct((0.0,) * n)
        for z in (0.3, 0.8j, -0.55 + 0.4j):
            expected = sum(abs(z) ** (2 * k) for k in range(n))
            assert blaschke_ratio(b, z) == pytest.approx(expected, rel=1e-13)


def test_blaschke_ratio_atomic_against_direct_oracle():
    # Oracle first: s(0.9) = exp(-19), so the ratio is (1 - e^{-38})/(1 - 0.81).
    oracle = (1.0 - np.exp(-38.0)) / (1.0 - 0.81)
    assert oracle == pytest.approx(5.2631579, rel=1e-7)
    got = blaschke_ratio(AtomicSingularInner(1.0, 1.0), 0.9)
    assert got == pytest.approx(oracle, rel=1e-12)


def test_ratio_values_vectorizes_and_stays_nonnegative():
    z = np.array([0.1, 0.5j, -0.3 + 0.6j, 0.85])
    vals = ratio_values(BlaschkeProduct((0.5, -0.3)), z)
    assert vals.shape == z.shape
    assert np.all(vals >= 0.0)


def test_ratio_sup_estimate_monomial_bounds():
    b2 = BlaschkeProduct((0.0, 0.0))
    assert max(ratio_table(b2, [0.5, 0.9, 0.999], 64)) <= 2.0
    assert max(ratio_table(b2, [0.999], 64)) == pytest.approx(2.0, abs=1e-2)
    assert max(ratio_table(BlaschkeProduct((0.0,)), [0.3, 0.7], 64)) == pytest.approx(1.0)


def test_ratio_sup_estimate_is_monotone_under_refinement():
    b = BlaschkeProduct((0.5, -0.3 + 0.2j))
    coarse = max(ratio_table(b, [0.4, 0.8], 8))
    fine = max(ratio_table(b, [0.2, 0.4, 0.6, 0.8, 0.9], 32))
    assert coarse <= fine + 1e-15


def test_ratio_sup_estimate_atomic_grows_toward_boundary():
    # Oracle first: on the positive real axis |s(r)| is tiny, so the ratio
    # at r = 0.999 is essentially 1/(1 - r^2).
    oracle = 1.0 / (1.0 - 0.999**2)
    assert oracle == pytest.approx(500.25, rel=1e-4)
    got = max(ratio_table(AtomicSingularInner(1.0, 1.0), [0.9, 0.99, 0.999], 64))
    assert got >= oracle * (1.0 - 1e-9)


EMPTY_INPUT_SYMBOLS = [
    BlaschkeProduct((0.3, 0.0)),
    AtomicSingularInner(1.0, 0.6 + 0.8j),
    TaylorPolynomial((0.2, 0.3)),
    TaylorPolynomial((2.0,), unit_ball_check=False),
    ConstantFunction(0.5j),
    normalized_zero_kernel(BlaschkeProduct((0.5,))),
]


def test_every_symbol_class_is_covered_for_empty_input():
    from diskkernels import functions

    classes = set(functions.SchurFunction.__args__) | {functions.NormalizedZeroKernel}
    assert classes == {type(f) for f in EMPTY_INPUT_SYMBOLS}


@pytest.mark.parametrize("f", EMPTY_INPUT_SYMBOLS, ids=lambda f: type(f).__name__)
@pytest.mark.parametrize("shape", [(0,), (0, 1), (1, 0), (0, 5)])
def test_symbols_accept_empty_input(f, shape):
    out = np.asarray(f.eval(np.empty(shape, dtype=complex)))
    assert out.shape == shape
    assert out.dtype == complex
