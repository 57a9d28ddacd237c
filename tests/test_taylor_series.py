"""Linear-time Taylor series: the atomic series against mpmath, and the
Toeplitz fill, Blaschke product and model-basis matrix against the loops
they replaced, which are kept here as references."""

import time

import mpmath
import numpy as np
import pytest

from diskkernels.functions import (
    AtomicSingularInner,
    BlaschkeProduct,
    mobius_factor_series,
)
from diskkernels.modelspace import takenaka_malmquist
from diskkernels.operators import SpaceWeight, _toeplitz_fill


def loop_toeplitz_fill(coeffs, weight, degree):
    norms = np.sqrt(weight.norms_sq[: degree + 1])
    M = np.zeros((degree + 1, degree + 1), dtype=coeffs.dtype)
    for d in range(degree + 1):
        if coeffs[d] == 0:
            continue
        idx = np.arange(degree + 1 - d)
        M[idx + d, idx] = coeffs[d] * norms[idx + d] / norms[idx]
    return M


def loop_blaschke_taylor(b, order):
    out = np.zeros(order + 1, dtype=complex)
    out[0] = 1.0
    for a in b.zeros:
        out = np.convolve(out, mobius_factor_series(a, order))[: order + 1]
    return b.unimodular_constant * out


def loop_taylor_matrix(basis, order):
    rows = []
    for n in range(basis.dimension):
        prefix, normalization = basis.element_data(n)
        pole = basis.product.zeros[n]
        series = normalization * np.conj(pole) ** np.arange(order + 1)
        for a in prefix:
            series = np.convolve(series, mobius_factor_series(a, order))[: order + 1]
        rows.append(series)
    return np.asarray(rows)


def mpmath_atomic_series(mass, atom, orders):
    """e^-m L_n^(-1)(2m) conj(atom)^n at 50 digits."""
    with mpmath.workdps(50):
        m = mpmath.mpf(mass)
        xi = mpmath.conj(mpmath.mpc(atom))
        return np.array(
            [
                complex(mpmath.exp(-m) * mpmath.laguerre(n, -1, 2 * m) * xi**n)
                for n in orders
            ]
        )


SAMPLED_ORDERS = sorted(
    set(range(12)) | set(np.linspace(12, 1024, 28).astype(int).tolist())
)


@pytest.mark.parametrize(
    "mass, atom",
    [(1.3, 1.0), (1.3, -1.0), (1.3, 0.6 + 0.8j), (0.05, -0.8 + 0.6j), (7.0, 1j)],
)
def test_atomic_series_matches_laguerre_values(mass, atom):
    series = AtomicSingularInner(mass, atom).taylor(1024)
    reference = mpmath_atomic_series(mass, atom, SAMPLED_ORDERS)
    assert np.max(np.abs(series[SAMPLED_ORDERS] - reference)) <= 1e-14


def test_atomic_series_at_one_is_real():
    series = AtomicSingularInner(0.7).taylor(256)
    assert not np.any(series.imag)


def test_atomic_series_at_large_order_is_finite_and_fast():
    start = time.perf_counter()
    series = AtomicSingularInner(1.0, 0.6 + 0.8j).taylor(200_000)
    elapsed = time.perf_counter() - start
    assert series.shape == (200_001,)
    assert np.all(np.isfinite(series))
    assert np.max(np.abs(series)) <= 1.0
    assert elapsed < 2.0


@pytest.mark.parametrize("alpha", [-1.0, 0.0, 1.0])
@pytest.mark.parametrize("degree", [0, 1, 2, 17])
@pytest.mark.parametrize("dtype", [float, complex])
def test_toeplitz_fill_is_bit_identical_to_the_loop(alpha, degree, dtype):
    rng = np.random.default_rng(degree + 10 * int(alpha + 1))
    coeffs = rng.standard_normal(degree + 1).astype(dtype)
    if dtype is complex:
        coeffs += 1j * rng.standard_normal(degree + 1)
    # Zero coefficients of every sign must print as +0.0, as the loop left them.
    zeros = [0.0, -0.0] if dtype is float else [0.0, -0.0, complex(-0.0, -0.0)]
    for k, z in zip(range(degree, -1, -2), zeros):
        coeffs[k] = z
    weight = SpaceWeight.for_degree(alpha, degree)
    new = _toeplitz_fill(coeffs, weight, degree)
    old = loop_toeplitz_fill(coeffs, weight, degree)
    assert new.dtype == old.dtype
    assert new.tobytes() == old.tobytes()


@pytest.mark.parametrize(
    "zeros",
    [
        (0.5,),
        (0.0, 0.0),
        (0.3, 0.5j, -0.2 + 0.1j),
        (0.9, -0.8, 0.0, 0.9, 0.4 - 0.3j),
    ],
)
def test_blaschke_taylor_is_bit_identical_to_the_loop(zeros):
    b = BlaschkeProduct(zeros, np.exp(0.3j))
    for order in (0, 1, 64):
        assert b.taylor(order).tobytes() == loop_blaschke_taylor(b, order).tobytes()


@pytest.mark.parametrize("degree", [1, 2, 3, 8, 32])
def test_taylor_matrix_matches_the_loop(degree):
    rng = np.random.default_rng(degree)
    zeros = 0.8 * np.sqrt(rng.random(degree)) * np.exp(2j * np.pi * rng.random(degree))
    zeros[:: max(1, degree // 3)] = 0.0
    if degree >= 3:
        zeros[-1] = zeros[1]
    basis = takenaka_malmquist(BlaschkeProduct(tuple(zeros)))
    for order in (0, 1, 64):
        new = basis.taylor_matrix(order)
        assert new.shape == (degree, order + 1)
        assert np.max(np.abs(new - loop_taylor_matrix(basis, order))) <= 1e-15
