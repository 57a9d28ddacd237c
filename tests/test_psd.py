"""PSD verdicts, dominance constants, the diagonal oracle, and grid refutation."""

import math

import numpy as np
import pytest

from diskkernels import (
    BlaschkeProduct,
    ConjugateScale,
    Difference,
    PointSet,
    RadialGrid,
    Scale,
    SubBergman,
    Szego,
    TaylorPolynomial,
    WeightedBergman,
    default_grid,
    diagonal_positivity_oracle,
    dominance_delta_min,
    gram,
    is_psd,
    membership_check,
    multiplier_check,
    sample_grid,
)
from diskkernels.psd import refutation_scan

B_Z = BlaschkeProduct((0.0,))
B_Z2 = BlaschkeProduct((0.0, 0.0))


def test_is_psd_rank_one_boundary_case():
    verdict = is_psd(np.array([[1.0, 1.0], [1.0, 1.0]]))
    assert verdict.is_psd
    assert verdict.min_eigenvalue == pytest.approx(0.0, abs=1e-15)


def test_is_psd_refutes_indefinite_matrix():
    verdict = is_psd(np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert not verdict.is_psd
    assert verdict.min_eigenvalue == pytest.approx(-1.0)


def test_is_psd_accepts_szego_gram():
    assert is_psd(gram(Szego(), default_grid())).is_psd


def test_is_psd_rejects_non_hermitian_and_non_finite():
    with pytest.raises(ValueError):
        is_psd(np.array([[1.0, 2.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        is_psd(np.array([[np.inf, 0.0], [0.0, 1.0]]))


def test_dominance_scale_factor():
    report = dominance_delta_min(Szego(), Scale(2.0, Szego()), default_grid())
    assert report.delta_min == pytest.approx(0.5, abs=1e-9)
    assert report.regularization_jitter > 0.0
    assert report.min_eig_at_delta >= -1e-9


def test_dominance_self_is_one():
    for K in (Szego(), WeightedBergman(1.0), SubBergman(B_Z2, 0.0)):
        report = dominance_delta_min(K, K, default_grid())
        assert report.delta_min == pytest.approx(1.0, abs=1e-9)


def test_dominance_requires_psd_denominator():
    bad = Difference(Szego(), Scale(2.0, Szego()))
    with pytest.raises(ValueError):
        dominance_delta_min(Szego(), bad, default_grid())


def test_dominance_monomial_square_grid_limits():
    # Oracle first: the diagonal coefficients of delta*Szego - SubBergman(z^2,0)
    # are delta-1, delta-2, delta-2, ..., so the true constant is 2; the grid
    # value approaches it from below. The reverse direction has coefficients
    # delta-1, 2 delta-1, ..., giving 1.
    fwd_oracle = diagonal_positivity_oracle(
        Difference(Scale(2.0, Szego()), SubBergman(B_Z2, 0.0)), 128
    )
    assert fwd_oracle.nonnegative
    rev_oracle = diagonal_positivity_oracle(
        Difference(Scale(1.0, SubBergman(B_Z2, 0.0)), Szego()), 128
    )
    assert rev_oracle.nonnegative

    P = default_grid()
    fwd = dominance_delta_min(SubBergman(B_Z2, 0.0), Szego(), P)
    assert fwd.delta_min <= 2.0 + 1e-9
    rev = dominance_delta_min(Szego(), SubBergman(B_Z2, 0.0), P)
    assert rev.delta_min <= 1.0 + 1e-9

    # Refinement pushes both toward their analytic limits.
    fine = sample_grid(RadialGrid((0.2, 0.4, 0.6, 0.8, 0.9, 0.95), 16))
    assert dominance_delta_min(SubBergman(B_Z2, 0.0), Szego(), fine).delta_min > (
        fwd.delta_min - 1e-9
    )


def test_dominance_monotone_under_grid_refinement():
    grids = [
        sample_grid(RadialGrid((0.3, 0.6), 8)),
        sample_grid(RadialGrid((0.3, 0.6, 0.8), 8)),
        sample_grid(RadialGrid((0.3, 0.6, 0.8, 0.9), 8)),
    ]
    values = [
        dominance_delta_min(SubBergman(B_Z2, 0.0), Szego(), P).delta_min
        for P in grids
    ]
    assert values[0] <= values[1] + 1e-9 <= values[2] + 2e-9


def test_oracle_geometric_series():
    series = diagonal_positivity_oracle(Szego(), 16)
    np.testing.assert_allclose(series.coefficients, np.ones(17), atol=1e-14)
    assert series.nonnegative


def test_oracle_difference_coefficient_patterns():
    # (2 - (1 + x))/(1 - x) = 1: constant series.
    series = diagonal_positivity_oracle(
        Difference(Scale(2.0, Szego()), SubBergman(B_Z2, 0.0)), 8
    )
    expected = np.zeros(9)
    expected[0] = 1.0
    np.testing.assert_allclose(series.coefficients, expected, atol=1e-14)
    # (1 + x)/(1 - x) - 1/(1 - x) = x/(1 - x): 0, 1, 1, ...
    series = diagonal_positivity_oracle(
        Difference(SubBergman(B_Z2, 0.0), Szego()), 8
    )
    expected = np.ones(9)
    expected[0] = 0.0
    np.testing.assert_allclose(series.coefficients, expected, atol=1e-14)


def test_oracle_detects_negative_coefficients():
    series = diagonal_positivity_oracle(
        Difference(Scale(1.9, Szego()), SubBergman(B_Z2, 0.0)), 32
    )
    assert not series.nonnegative


def test_oracle_rejects_non_rotation_invariant_kernels():
    from diskkernels import DBR

    with pytest.raises(ValueError):
        diagonal_positivity_oracle(DBR(BlaschkeProduct((0.5,))))


def test_oracle_never_contradicts_grid_verdicts():
    # Where the oracle certifies positivity, no grid may refute; where it finds
    # a negative coefficient, a fine enough grid agrees.
    P = sample_grid(RadialGrid((0.3, 0.6, 0.85, 0.95), 24))
    cases = [
        Difference(Scale(2.0, Szego()), SubBergman(B_Z2, 0.0)),
        Difference(Scale(1.5, SubBergman(B_Z2, 0.0)), Szego()),
        Difference(Scale(1.9, Szego()), SubBergman(B_Z2, 0.0)),
    ]
    for K in cases:
        series = diagonal_positivity_oracle(K, 128)
        verdict = is_psd(gram(K, P))
        if series.nonnegative:
            assert verdict.is_psd
        else:
            assert not verdict.is_psd


def test_membership_constant_one_in_hardy_space():
    verdict = membership_check(lambda z: 1.0, Szego(), 1.0, default_grid())
    assert verdict.is_psd


def test_membership_kernel_section_with_its_own_norm():
    w = 0.5
    c = math.sqrt(1.0 / (1.0 - w * w))  # ||k_w|| = sqrt(k(w, w))
    verdict = membership_check(
        lambda z: 1.0 / (1.0 - w * z), Szego(), c, default_grid()
    )
    assert verdict.is_psd


def test_membership_refutes_function_outside_hardy_space():
    # 1/(1-z) has divergent coefficient sum; c = 10 fails once the scan
    # reaches circles near the boundary.
    hit = refutation_scan(
        lambda pts: membership_check(lambda z: 1.0 / (1.0 - z), Szego(), 10.0, pts)
    )
    assert hit is not None
    points, verdict = hit
    assert not verdict.is_psd
    assert max(abs(z) for z in points.points) >= 0.9


def test_refutation_scan_returns_none_for_true_members():
    hit = refutation_scan(
        lambda pts: membership_check(lambda z: 1.0, Szego(), 1.0, pts)
    )
    assert hit is None


def test_multiplier_shift_is_contractive():
    assert multiplier_check(B_Z, Szego(), 1.0, default_grid()).is_psd


def test_multiplier_refutes_expansive_symbol():
    two_z = TaylorPolynomial((0.0, 2.0), unit_ball_check=False)
    verdict = multiplier_check(two_z, Szego(), 1.0, default_grid())
    assert not verdict.is_psd
    assert multiplier_check(two_z, Szego(), 2.0, default_grid()).is_psd


def test_multiplier_atomic_on_bergman():
    from diskkernels import AtomicSingularInner

    s = AtomicSingularInner(1.0, 1.0)
    assert multiplier_check(s, WeightedBergman(0.0), 1.0, default_grid()).is_psd


def test_schur_product_closure_of_psd_grams():
    rng = np.random.default_rng(11)
    for _ in range(10):
        n = int(rng.integers(2, 8))
        A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        B = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        G1 = A @ A.conj().T
        G2 = B @ B.conj().T
        assert is_psd(G1 * G2).is_psd


def test_positivity_preserving_expressions_on_grids():
    kernels = [
        Szego(),
        WeightedBergman(0.0),
        SubBergman(BlaschkeProduct((0.3, -0.4j)), 1.0),
        ConjugateScale(BlaschkeProduct((0.5,)), Szego()),
        Scale(3.0, WeightedBergman(2.0)),
    ]
    P = sample_grid(RadialGrid((0.25, 0.55, 0.85), 10))
    for K in kernels:
        assert is_psd(gram(K, P)).is_psd


def test_point_set_roundtrip_in_report():
    P = PointSet((0.1, 0.5j))
    report = dominance_delta_min(Szego(), Szego(), P)
    assert report.grid == "explicit"
    assert report.grid_size == 2


@pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf])
def test_bad_tolerance_is_rejected_before_compute(tol):
    P = default_grid()
    calls = [
        lambda: is_psd(gram(Szego(), P), tol),
        lambda: is_psd(np.eye(2), tol),
        lambda: dominance_delta_min(Szego(), Szego(), P, tol),
        lambda: membership_check(lambda z: 1.0, Szego(), 1.0, P, tol),
        lambda: multiplier_check(B_Z, Szego(), 1.0, P, tol),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="tolerance"):
            call()
