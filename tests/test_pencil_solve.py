"""The blocked triangular solve behind dominance_delta_min.

``psd._solve_lower`` solves the dominance pencil with numpy alone, on the
dense route and the angular-frequency route. scipy's ``solve_triangular``
is the reference: the solve must agree with it to rounding, dense
dominance constants must agree with a scipy-solved pencil, and routed
reports must equal those of one batched ``np.linalg.solve`` bit for bit.
"""

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from diskkernels import (
    BlaschkeProduct,
    RadialGrid,
    RandomGrid,
    SubBergman,
    Szego,
    WeightedBergman,
    dominance_delta_min,
    gram,
    sample_grid,
)
from diskkernels import psd
from diskkernels.psd import DEFAULT_TOL, SOLVE_BLOCK, _angle_blocks, _solve_lower


def _lower_stack(rng, count, n):
    """Well-conditioned lower-triangular factors, as Cholesky returns them."""
    A = rng.normal(size=(count, n, n)) + 1j * rng.normal(size=(count, n, n))
    spd = A @ A.conj().transpose(0, 2, 1) / n + np.eye(n)
    return np.linalg.cholesky(spd)


def _scipy_solve_lower(L, B):
    return np.stack([solve_triangular(l, b, lower=True) for l, b in zip(L, B)])


def _relative_error(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


@pytest.mark.parametrize("n", [1, SOLVE_BLOCK - 1, SOLVE_BLOCK, SOLVE_BLOCK + 1, 200])
def test_solve_lower_matches_scipy_on_one_matrix(n):
    rng = np.random.default_rng(n)
    L = _lower_stack(rng, 1, n)
    B = rng.normal(size=(1, n, n)) + 1j * rng.normal(size=(1, n, n))
    assert _relative_error(_solve_lower(L, B), _scipy_solve_lower(L, B)) <= 1e-12


def test_solve_lower_matches_scipy_on_a_stack():
    rng = np.random.default_rng(7)
    L = _lower_stack(rng, 40, 4)
    B = rng.normal(size=(40, 4, 4)) + 1j * rng.normal(size=(40, 4, 4))
    assert _relative_error(_solve_lower(L, B), _scipy_solve_lower(L, B)) <= 1e-12


def test_solve_lower_is_one_solve_within_a_block():
    rng = np.random.default_rng(3)
    L = _lower_stack(rng, 16, 10)
    B = rng.normal(size=(16, 10, 10)) + 1j * rng.normal(size=(16, 10, 10))
    np.testing.assert_array_equal(_solve_lower(L, B), np.linalg.solve(L, B))
    # A conjugate-transposed (non-contiguous) right-hand side, as in the pencil.
    Bt = B.conj().transpose(0, 2, 1)
    np.testing.assert_array_equal(_solve_lower(L, Bt), np.linalg.solve(L, Bt))


ROUTED_CASES = [
    (Szego(), WeightedBergman(0.0), RadialGrid(radii=(0.2, 0.5, 0.8), angles=8)),
    (WeightedBergman(0.0), Szego(), RadialGrid(radii=(0.3, 0.6, 0.9), angles=40)),
    (
        WeightedBergman(-0.5),
        SubBergman(BlaschkeProduct((0.0, 0.0)), 0.5),
        RadialGrid(radii=tuple(0.09 * k for k in range(1, 11)), angles=16),
    ),
]


@pytest.mark.parametrize("k1,k2,grid", ROUTED_CASES)
def test_routed_dominance_is_one_solve_per_step(monkeypatch, k1, k2, grid):
    points = sample_grid(grid)
    assert _angle_blocks(gram(k2, points), DEFAULT_TOL) is not None
    got = dominance_delta_min(k1, k2, points).report_dict()
    monkeypatch.setattr(psd, "_solve_lower", np.linalg.solve)
    assert got == dominance_delta_min(k1, k2, points).report_dict()


def _dense_report_pair(monkeypatch, k1, k2, grid):
    points = sample_grid(grid)
    assert _angle_blocks(gram(k2, points), DEFAULT_TOL) is None
    got = dominance_delta_min(k1, k2, points)
    monkeypatch.setattr(psd, "_solve_lower", _scipy_solve_lower)
    return got, dominance_delta_min(k1, k2, points)


@pytest.mark.parametrize(
    "k1,k2,grid",
    [
        # Ten points: the dominating Gram has condition number about 4e5.
        (WeightedBergman(0.0), Szego(), RandomGrid(count=10, rmax=0.95, seed=2)),
        # 130 points, three row blocks; the Gram is not well conditioned,
        # but delta (about 1) is attained where the pencil is stable.
        (Szego(), WeightedBergman(0.0), RandomGrid(count=130, rmax=0.95, seed=2)),
    ],
)
def test_dense_delta_matches_scipy_reference(monkeypatch, k1, k2, grid):
    got, want = _dense_report_pair(monkeypatch, k1, k2, grid)
    assert got.delta_min == pytest.approx(want.delta_min, rel=1e-12, abs=0)
    assert got.regularization_jitter == want.regularization_jitter


def test_dense_delta_on_an_ill_conditioned_grid_agrees_to_six_digits(monkeypatch):
    # cond(G2 + jitter I) is about 1e14 here; only about 8 digits of delta
    # survive any change of solver, and reports promise 1e-6.
    k1 = SubBergman(BlaschkeProduct((0.3, 0.5j)), 0.0)
    grid = RandomGrid(count=320, rmax=0.9, seed=1)
    got, want = _dense_report_pair(monkeypatch, k1, Szego(), grid)
    assert got.delta_min == pytest.approx(want.delta_min, rel=1e-6, abs=0)
