"""Theorem-level verification reports: inclusion, equality, and composition."""

import json

import numpy as np
import pytest

from diskkernels import (
    AtomicSingularInner,
    BlaschkeProduct,
    ConjugateScale,
    ConstantFunction,
    SubBergman,
    Szego,
    default_grid,
    dominance_delta_min,
    evaluate,
    gram,
    is_psd,
    normalized_zero_kernel,
    verify_equality_converse,
    verify_equality_forward,
    verify_inclusion,
    verify_m1,
)
from diskkernels.formatting import canonical_json

ATOMIC = AtomicSingularInner(1.0, 1.0)
REPORT_KEYS = {
    "theorem",
    "b",
    "alpha",
    "grid",
    "analytic_constant",
    "measured",
    "verdict",
    "details",
}


def test_inclusion_identity_symbol_hits_constant_exactly():
    report = verify_inclusion(BlaschkeProduct((0.0,)), 0.0, default_grid())
    assert report.verdict == "pass"
    assert report.analytic_constant == pytest.approx(1.0)
    assert report.measured == pytest.approx(1.0, abs=1e-9)


def test_inclusion_monomial_square():
    report = verify_inclusion(BlaschkeProduct((0.0, 0.0)), 0.0, default_grid())
    assert report.verdict == "pass"
    assert report.measured <= report.analytic_constant + 1e-6


def test_inclusion_offset_zero_stays_below_analytic_bound():
    report = verify_inclusion(BlaschkeProduct((-0.5,)), 0.0, default_grid())
    assert report.verdict == "pass"
    assert report.analytic_constant == pytest.approx(3.0)
    assert report.measured <= 3.0 + 1e-6


def test_inclusion_atomic_witness():
    report = verify_inclusion(ATOMIC, 0.0, default_grid())
    assert report.verdict == "pass"
    t = abs(evaluate(ATOMIC, 0.0))
    assert report.analytic_constant == pytest.approx((1 + t) / (1 - t))


def test_inclusion_rejects_constant_symbols():
    with pytest.raises(ValueError):
        verify_inclusion(ConstantFunction(0.5), 0.0, default_grid())


def test_forward_identity_symbol():
    report = verify_equality_forward(BlaschkeProduct((0.0,)), 0.0, default_grid())
    assert report.verdict == "pass"
    assert report.measured == pytest.approx(1.0, abs=1e-9)


def test_forward_monomial_square_bound():
    report = verify_equality_forward(BlaschkeProduct((0.0, 0.0)), 0.0, default_grid())
    assert report.verdict == "pass"
    assert report.measured <= 2.0 + 1e-9
    assert report.analytic_constant <= 4.0  # N * C with C <= N
    assert report.measured <= report.analytic_constant * (1 + 1e-6)


def test_forward_cube_with_bergman_weight():
    report = verify_equality_forward(BlaschkeProduct((0.0, 0.0, 0.0)), 1.0, default_grid())
    assert report.verdict == "pass"
    assert report.analytic_constant <= 9.0 + 1e-9


def test_forward_requires_blaschke_symbol():
    with pytest.raises(TypeError):
        verify_equality_forward(ATOMIC, 0.0, default_grid())


def test_converse_identity_symbol_bounded_at_one():
    report = verify_equality_converse(BlaschkeProduct((0.0,)))
    assert report.verdict == "bounded"
    np.testing.assert_allclose(report.details[0]["values"], [1.0, 1.0, 1.0], atol=1e-12)


def test_converse_blaschke_values_stay_bounded():
    report = verify_equality_converse(BlaschkeProduct((0.5, -0.3)))
    assert report.verdict == "bounded"


def test_converse_atomic_diverges_with_oracle_values():
    # Oracle first: on the positive real axis the symbol is essentially zero,
    # so the ratio at radius r is 1/(1-r^2).
    oracle = [1.0 / (1.0 - r * r) for r in (0.9, 0.99, 0.999)]
    np.testing.assert_allclose(oracle, [5.2631578, 50.251256, 500.25012], rtol=1e-6)
    report = verify_equality_converse(ATOMIC)
    assert report.verdict == "divergent"
    np.testing.assert_allclose(report.details[0]["values"], oracle, rtol=1e-3)
    assert report.measured == pytest.approx(oracle[-1], rel=1e-3)


def test_converse_respects_custom_radii():
    report = verify_equality_converse(ATOMIC, radii=(0.5, 0.9, 0.99, 0.999), angles=32)
    assert report.verdict == "divergent"
    assert len(report.details[0]["values"]) == 4


def test_m1_blaschke_branch():
    for zeros in [(0.0,), (0.0, 0.0)]:
        report = verify_m1(BlaschkeProduct(zeros), default_grid())
        assert report.verdict == "pass"
        inner = report.details
        assert inner[0]["theorem"] == "sub"
        assert inner[1]["theorem"] == "sub2-forward"


def test_m1_atomic_branch_uses_divergence():
    report = verify_m1(ATOMIC, default_grid())
    assert report.verdict == "pass"
    assert report.details[1]["theorem"] == "sub2-converse"
    assert report.details[1]["verdict"] == "divergent"


def test_report_dict_shape_and_canonical_json():
    report = verify_inclusion(BlaschkeProduct((0.0, 0.0)), 0.0, default_grid())
    obj = report.report_dict()
    assert set(obj) == REPORT_KEYS
    assert obj["verdict"] in {"pass", "fail", "divergent", "bounded"}
    text = canonical_json(obj)
    parsed = json.loads(text)
    assert parsed["theorem"] == "sub"
    # Canonical form is stable: re-serializing the parsed object is identical.
    assert canonical_json(parsed) == text


def test_normalized_kernel_chain_supports_inclusion():
    # The inclusion argument rests on f0 * (Szego row) being dominated by the
    # target kernel at the squared inverse-sup bound; check the two pieces
    # numerically for the atomic witness.
    b = ATOMIC
    nk = normalized_zero_kernel(b)
    P = default_grid()
    chain = ConjugateScale(nk, Szego())
    target = SubBergman(b, 1.0)
    delta = dominance_delta_min(chain, target, P).delta_min
    assert delta <= nk.inverse_sup_bound**2 * (1 + 1e-6)
    # And the chain kernel itself is positive.
    assert is_psd(gram(chain, P)).is_psd


def test_measured_dominance_never_exceeds_analytic_constant():
    rng = np.random.default_rng(5)
    P = default_grid()
    for _ in range(6):
        deg = int(rng.integers(1, 4))
        zeros = []
        while len(zeros) < deg:
            z = complex(rng.uniform(-0.7, 0.7), rng.uniform(-0.7, 0.7))
            if abs(z) < 0.7:
                zeros.append(z)
        b = BlaschkeProduct(tuple(zeros))
        alpha = float(rng.choice([0.0, 1.0, 2.0]))
        report = verify_inclusion(b, alpha, P)
        assert report.verdict == "pass"
        assert report.measured <= report.analytic_constant * (1 + 1e-6)


def test_converse_rejects_angles_below_one():
    with pytest.raises(ValueError, match="angle"):
        verify_equality_converse(ATOMIC, angles=0)


def test_canonical_json_rejects_non_finite_floats():
    for value in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="non-finite"):
            canonical_json({"tol": value})
