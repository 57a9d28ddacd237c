"""The blocked triangular solve behind dominance_delta_min.

``psd._solve_lower`` solves the dominance pencil with numpy alone, on the
dense route and the angular-frequency route. scipy's ``solve_triangular``
is the reference: the solve must agree with it to rounding, dense
dominance constants must agree with a scipy-solved pencil, and routed
reports must equal those of one batched ``np.linalg.solve`` bit for bit.
The solve runs in place, and the pencil keeps the bits of the arithmetic
that held about five n x n temporaries while holding about three.
"""

import tracemalloc

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from diskkernels import (
    BlaschkeProduct,
    RadialGrid,
    RandomGrid,
    Scale,
    SubBergman,
    Szego,
    WeightedBergman,
    dominance_delta_min,
    gram,
    sample_grid,
)
from diskkernels import psd
from diskkernels.psd import DEFAULT_TOL, FACTOR_BLOCK, JITTER_SCALE, _angle_blocks, _solve_lower


def _lower_stack(rng, count, n):
    """Well-conditioned lower-triangular factors, as Cholesky returns them."""
    A = rng.normal(size=(count, n, n)) + 1j * rng.normal(size=(count, n, n))
    spd = A @ A.conj().transpose(0, 2, 1) / n + np.eye(n)
    return np.linalg.cholesky(spd)


def _scipy_solve_lower(L, B):
    return np.stack([solve_triangular(l, b, lower=True) for l, b in zip(L, B)])


def _relative_error(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


@pytest.mark.parametrize("n", [1, FACTOR_BLOCK - 1, FACTOR_BLOCK, FACTOR_BLOCK + 1, 200])
def test_solve_lower_matches_scipy_on_one_matrix(n):
    rng = np.random.default_rng(n)
    L = _lower_stack(rng, 1, n)
    B = rng.normal(size=(1, n, n)) + 1j * rng.normal(size=(1, n, n))
    assert _relative_error(_solve_lower(L, B.copy()), _scipy_solve_lower(L, B)) <= 1e-12


def test_solve_lower_matches_scipy_on_a_stack():
    rng = np.random.default_rng(7)
    L = _lower_stack(rng, 40, 4)
    B = rng.normal(size=(40, 4, 4)) + 1j * rng.normal(size=(40, 4, 4))
    assert _relative_error(_solve_lower(L, B.copy()), _scipy_solve_lower(L, B)) <= 1e-12


def test_solve_lower_is_one_solve_within_a_block():
    rng = np.random.default_rng(3)
    L = _lower_stack(rng, 16, 10)
    B = rng.normal(size=(16, 10, 10)) + 1j * rng.normal(size=(16, 10, 10))
    np.testing.assert_array_equal(_solve_lower(L, B.copy()), np.linalg.solve(L, B))
    # A conjugate-transposed (non-contiguous) right-hand side, solved in place.
    Bt = B.conj().transpose(0, 2, 1)
    want = np.linalg.solve(L, Bt)
    assert _solve_lower(L, Bt) is Bt
    np.testing.assert_array_equal(Bt, want)


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


def _former_solve_lower(L, B):
    """The solve into a new array, as the pencil ran it before it ran in place."""
    n = L.shape[-1]
    X = np.empty(B.shape, dtype=np.result_type(L, B))
    for s in range(0, n, FACTOR_BLOCK):
        e = min(s + FACTOR_BLOCK, n)
        rhs = B[:, s:e]
        if s:
            rhs = rhs - L[:, s:e, :s] @ X[:, :s]
        X[:, s:e] = np.linalg.solve(L[:, s:e, s:e], rhs)
    return X


def _former_pencil(G1, G2, jitter):
    """delta and the least eigenvalue at delta, by the former arithmetic."""
    L = np.linalg.cholesky(G2 + jitter * np.eye(G2.shape[-1]))
    half = _former_solve_lower(L, G1)
    pencil = _former_solve_lower(L, half.conj().transpose(0, 2, 1))
    pencil = 0.5 * (pencil + pencil.conj().transpose(0, 2, 1))
    delta = max(float(np.max(np.linalg.eigvalsh(pencil))), 0.0)
    return delta, float(np.min(np.linalg.eigvalsh(delta * G2 - G1)))


def _assert_former_bits(k1, k2, points, G1, G2):
    report = dominance_delta_min(k1, k2, points)
    jitter = JITTER_SCALE * float(np.trace(gram(k2, points).matrix).real) / len(points)
    got = (report.regularization_jitter, report.delta_min, report.min_eig_at_delta)
    want = (jitter,) + _former_pencil(G1, G2, jitter)
    assert [x.hex() for x in got] == [x.hex() for x in want]


@pytest.mark.parametrize(
    "k1,k2,grid",
    [
        (WeightedBergman(0.0), Szego(), RandomGrid(count=10, rmax=0.95, seed=2)),
        (Szego(), WeightedBergman(0.0), RandomGrid(count=130, rmax=0.95, seed=2)),
        (SubBergman(BlaschkeProduct((0.3, 0.5j)), 0.0), Szego(), RandomGrid(count=200, rmax=0.9, seed=1)),
    ],
)
def test_dense_pencil_keeps_its_bits(k1, k2, grid):
    points = sample_grid(grid)
    G1, G2 = gram(k1, points).matrix[None], gram(k2, points).matrix[None]
    _assert_former_bits(k1, k2, points, G1, G2)


@pytest.mark.parametrize("k1,k2,grid", ROUTED_CASES)
def test_routed_pencil_keeps_its_bits(k1, k2, grid):
    points = sample_grid(grid)
    G1, G2 = (_angle_blocks(gram(k, points), DEFAULT_TOL) for k in (k1, k2))
    _assert_former_bits(k1, k2, points, G1, G2)


def test_dense_pencil_holds_three_working_matrices():
    n = 400
    points = sample_grid(RandomGrid(count=n, rmax=0.9, seed=1))
    G1, G2 = gram(Scale(0.5, Szego()), points), gram(Szego(), points)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        report = psd._dominance(G1, G2, DEFAULT_TOL)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert report.delta_min == pytest.approx(0.5, rel=1e-9)
    # L, L^-1 G1 and its conjugate transpose; the former arithmetic held 5.05.
    assert peak <= 3.1 * n * n * 16
