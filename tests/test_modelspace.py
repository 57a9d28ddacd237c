"""Rational orthonormal bases of the model space and the kernel-sum identity."""

import tracemalloc

import numpy as np
import pytest

from diskkernels import (
    DBR,
    BlaschkeProduct,
    ConstantFunction,
    blaschke_ratio,
    default_grid,
    eval_kernel,
    onb_sum_check,
    pointwise_bound_constant,
    sample_grid,
    takenaka_malmquist,
)
from diskkernels.specs import parse_grid


def test_basis_for_monomial_square_is_one_and_z():
    basis = takenaka_malmquist(BlaschkeProduct((0.0, 0.0)))
    assert basis.dimension == 2
    for z in (0.0, 0.5, -0.3 + 0.6j):
        assert basis.eval_element(0, z) == pytest.approx(1.0)
        assert basis.eval_element(1, z) == pytest.approx(z)


def test_basis_for_monomial_cube():
    basis = takenaka_malmquist(BlaschkeProduct((0.0, 0.0, 0.0)))
    z = 0.4 - 0.25j
    for n in range(3):
        assert basis.eval_element(n, z) == pytest.approx(z**n)


def test_first_element_single_zero_against_normalization_oracle():
    # Oracle first: normalizing the kernel of the one-dimensional space at the
    # zero a = 1/2 gives sqrt(1-|a|^2)/(1 - conj(a) z) = (sqrt(3)/2)/(1 - z/2).
    a = 0.5
    oracle = lambda z: np.sqrt(1 - a * a) / (1 - a * z)
    basis = takenaka_malmquist(BlaschkeProduct((a,)))
    for z in (0.0, 0.3 + 0.1j, -0.8j):
        assert basis.eval_element(0, z) == pytest.approx(oracle(z), rel=1e-14)


def test_basis_rejects_degree_zero():
    with pytest.raises(ValueError):
        takenaka_malmquist(BlaschkeProduct(()))
    with pytest.raises(TypeError):
        takenaka_malmquist(ConstantFunction(0.5))


def test_orthonormality_defect_small_for_spread_zeros():
    b = BlaschkeProduct((0.5, -0.3 + 0.2j, 0.1 - 0.7j, 0.8), np.exp(1.2j))
    basis = takenaka_malmquist(b)
    assert basis.orthonormality_defect() <= 1e-9
    assert basis.pairing_tail_estimate() <= 1e-11


def test_onb_sum_identity_degree_one():
    assert onb_sum_check(BlaschkeProduct((0.0,)), default_grid()) <= 1e-14


def test_onb_sum_identity_monomial_square():
    # Both the basis sum and the kernel reduce to 1 + conj(w) z.
    assert onb_sum_check(BlaschkeProduct((0.0, 0.0)), default_grid()) <= 1e-12


def test_onb_sum_identity_generic_zeros():
    b = BlaschkeProduct((0.5, -0.3))
    assert onb_sum_check(b, default_grid()) <= 1e-10


@pytest.mark.parametrize(
    "zeros, n",
    [((0.3, 0.5j), 1024), ((0.6, -0.2 + 0.4j, 0.0), 300), ((0.9,), 129)],
)
def test_onb_sum_check_is_the_whole_matrix_residual_in_bounded_memory(zeros, n):
    b = BlaschkeProduct(zeros)
    points = sample_grid(parse_grid("random[n=%d,rmax=0.9,seed=1]" % n))
    tracemalloc.start()
    try:
        got = onb_sum_check(b, points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arr = points.array
    E = takenaka_malmquist(b).eval_all(arr)
    summed = np.einsum("ni,nj->ij", E, E.conj())
    whole = float(np.max(np.abs(summed - DBR(b).eval(arr[:, None], arr[None, :]))))
    assert got.hex() == whole.hex()
    if n >= 1024:
        # The whole-matrix form peaked at 4.00 n^2 complex entries.
        assert peak <= 1.0 * n * n * 16


def test_onb_sum_matches_kernel_entrywise():
    b = BlaschkeProduct((0.4j, -0.6, 0.2 + 0.3j))
    basis = takenaka_malmquist(b)
    K = DBR(b)
    for z, w in [(0.1, 0.7j), (-0.5 + 0.2j, 0.3), (0.85, -0.85)]:
        total = sum(
            basis.eval_element(n, z) * np.conj(basis.eval_element(n, w))
            for n in range(basis.dimension)
        )
        assert total == pytest.approx(eval_kernel(K, z, w), abs=1e-11)


def test_pointwise_bound_matches_ratio_everywhere():
    P = default_grid()
    for zeros in [(0.0, 0.0), (0.5,), (0.3, -0.4 + 0.2j, 0.6j)]:
        b = BlaschkeProduct(zeros)
        basis = takenaka_malmquist(b)
        for w in P.points:
            total = sum(
                abs(basis.eval_element(n, w)) ** 2 for n in range(basis.dimension)
            )
            assert total == pytest.approx(blaschke_ratio(b, w), abs=1e-10)


def test_pointwise_bound_constant_monomials():
    P = default_grid()
    assert pointwise_bound_constant(BlaschkeProduct((0.0,)), P) == pytest.approx(1.0)
    c2 = pointwise_bound_constant(BlaschkeProduct((0.0, 0.0)), P)
    assert c2 <= 2.0
    assert c2 == pytest.approx(1.81, abs=1e-12)  # max at radius 0.9
    for N in (3, 4):
        cN = pointwise_bound_constant(BlaschkeProduct((0.0,) * N), P)
        assert cN <= N


def test_taylor_matrix_reproduces_elements():
    b = BlaschkeProduct((0.5, -0.2 + 0.4j))
    basis = takenaka_malmquist(b)
    C = basis.taylor_matrix(64)
    z = 0.35 - 0.15j
    powers = z ** np.arange(65)
    for n in range(basis.dimension):
        series = np.dot(C[n], powers)
        assert series == pytest.approx(basis.eval_element(n, z), abs=1e-12)
