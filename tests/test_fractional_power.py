"""The kernel power (1 - conj(w) z)^(-alpha - 2) at non-integer and integer alpha.

A non-integer power is computed in real arithmetic as |base|^p times the
phase exp(i p arg base); it must agree with numpy's complex power and with
mpmath to 1e-14 relative. An integer power keeps numpy's complex power, so
its bits are unchanged.
"""

import mpmath
import numpy as np
import pytest

from diskkernels.functions import BlaschkeProduct
from diskkernels.kernels import SubBergman, WeightedBergman, eval_kernel


def _points(count, seed):
    rng = np.random.default_rng(seed)
    radius = 0.98 * np.sqrt(rng.random(count))
    return radius * np.exp(2j * np.pi * rng.random(count))


Z = _points(60, 1)[:, None]
W = _points(60, 2)[None, :]
BASE = 1.0 - np.conj(W) * Z
B = BlaschkeProduct((0.3, 0.5j))


def _rel(a, b):
    return float(np.max(np.abs(a - b) / np.abs(b)))


@pytest.mark.parametrize("alpha", [-0.5, 0.5, 1.5, 2.7])
def test_non_integer_power_matches_complex_pow(alpha):
    p = -(alpha + 2.0)
    assert _rel(WeightedBergman(alpha).eval(Z, W), BASE**p) <= 1e-14
    if alpha >= 0.0:
        bw, bz = B.eval(W), B.eval(Z)
        expected = (1.0 - np.conj(bw) * bz) * BASE**p
        assert _rel(SubBergman(B, alpha).eval(Z, W), expected) <= 1e-14


@pytest.mark.parametrize("alpha", [-0.5, 0.5, 1.5, 2.7])
def test_non_integer_power_matches_mpmath(alpha):
    p = -(alpha + 2.0)
    ours = WeightedBergman(alpha).eval(Z, W)
    worst = 0.0
    with mpmath.workdps(40):
        for i, j in zip(range(0, 60, 3), range(60)):
            exact = mpmath.power(mpmath.mpc(BASE[i, j]), mpmath.mpf(p))
            worst = max(worst, float(abs(ours[i, j] - exact) / abs(exact)))
    assert worst <= 1e-14


@pytest.mark.parametrize("alpha", [-1.0, 0.0, 1.0, 2.0, 5.0])
def test_integer_power_keeps_complex_pow_bits(alpha):
    p = -(alpha + 2.0)
    assert WeightedBergman(alpha).eval(Z, W).tobytes() == (BASE**p).tobytes()
    if alpha >= 0.0:
        bw, bz = B.eval(W), B.eval(Z)
        expected = (1.0 - np.conj(bw) * bz) * BASE**p
        assert SubBergman(B, alpha).eval(Z, W).tobytes() == expected.tobytes()


@pytest.mark.parametrize("alpha", [0.5, 3.0])
def test_a_single_pair_matches_the_array(alpha):
    z, w = complex(Z[5, 0]), complex(W[0, 7])
    value = eval_kernel(WeightedBergman(alpha), z, w)
    assert value == WeightedBergman(alpha).eval(Z, W)[5, 7]
