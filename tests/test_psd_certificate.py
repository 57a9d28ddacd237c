"""Certified dense PSD verdicts and the lazy spectrum.

``psd.is_psd`` decides a dense matrix by a diagonal refutation or a shifted
Cholesky (``psd._certificate``) before it runs ``eigvalsh``, and a verdict
so decided computes its spectrum on first read. These tests require that a
certificate agrees with the spectral rule wherever it decides, that it
decides the clear cases, that reading the spectrum later gives the bits of
the eager verdict, that the blocked in-place factor is a Cholesky holding no
second n x n array, and that ``dominance_delta_min`` counts the pencil's
Cholesky as the PSD check of its dominating Gram.
"""

import tracemalloc
import warnings

import numpy as np
import pytest

from diskkernels import (
    Difference,
    PointSet,
    RadialGrid,
    RandomGrid,
    Scale,
    Szego,
    TaylorPolynomial,
    dominance_delta_min,
    gram,
    is_psd,
    membership_check,
    sample_grid,
)
from diskkernels import psd
from diskkernels.psd import FACTOR_BLOCK, _cholesky_in_place, _cholesky_slack, _verdict

REAL_EIGVALSH = np.linalg.eigvalsh
SIZES = (1, 2, FACTOR_BLOCK - 1, FACTOR_BLOCK, FACTOR_BLOCK + 1, 130, 300)
TOLS = (0.0, 1e-12, 1e-9, 1e-3)
# Least eigenvalues, in units of t = tol * max(1, spectral norm).
LEAST = (-10.0, -2.0, -0.25, 0.0, 1.0)


def _unitary(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def _planted(n, least, fixed_axis, seed):
    """Hermitian Q diag(lam) Q* with least eigenvalue ``least`` and spectral norm 1.

    The other eigenvalues are one 1 and n - 2 draws from [0, 1/sqrt(n)], so
    the Frobenius norm stays below 1.2. With ``fixed_axis`` the least
    eigenvector is e_0, so M_00 is the least eigenvalue.
    """
    rng = np.random.default_rng(seed)
    lam = np.concatenate(([least], [1.0][: n - 1], rng.uniform(0.0, n**-0.5, max(n - 2, 0))))
    Q = np.eye(n, dtype=complex)
    if fixed_axis:
        Q[1:, 1:] = _unitary(rng, n - 1)
    else:
        Q = _unitary(rng, n)
    M = (Q * lam) @ Q.conj().T
    return 0.5 * (M + M.conj().T)


@pytest.fixture
def eig_calls(monkeypatch):
    """Count the eigvalsh calls made while the test runs."""
    calls = []

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return REAL_EIGVALSH(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    return calls


@pytest.mark.parametrize("fixed_axis", [False, True])
@pytest.mark.parametrize("tol", TOLS)
@pytest.mark.parametrize("n", SIZES)
def test_certificate_agrees_with_the_spectral_rule(n, tol, fixed_axis, eig_calls):
    for k, units in enumerate(LEAST):
        t = tol  # the spectral norm is 1, or below 1 when n = 1
        M = _planted(n, units * t, fixed_axis, seed=1000 * n + k)
        del eig_calls[:]
        verdict = is_psd(M, tol)
        decided = not eig_calls
        rule = _verdict(REAL_EIGVALSH(M), tol).is_psd
        if decided:
            assert verdict.is_psd == rule, (n, tol, units)
        if units == -2.0 and tol > 0.0:
            assert not (decided and verdict.is_psd), (n, tol)
        if tol == 0.0:
            assert not (decided and verdict.is_psd), n
        if tol >= 1e-9 and units == 1.0:
            assert decided and verdict.is_psd, (n, tol)
        if tol >= 1e-9 and units == -10.0 and fixed_axis:
            assert decided and not verdict.is_psd, (n, tol)


def test_a_certified_verdict_reads_its_spectrum_later(monkeypatch):
    points = sample_grid(RandomGrid(200, 0.9, 4))
    psd_gram = gram(Szego(), points)
    refuted_gram = gram(Difference(Szego(), Scale(2.0, Szego())), points)
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda *a, **k: 1 / 0)
    verdicts = [is_psd(psd_gram), is_psd(refuted_gram)]
    monkeypatch.undo()
    assert [v.is_psd for v in verdicts] == [True, False]
    for G, verdict in zip((psd_gram, refuted_gram), verdicts):
        eager = _verdict(np.linalg.eigvalsh(G.matrix), psd.DEFAULT_TOL)
        assert verdict.min_eigenvalue.hex() == eager.min_eigenvalue.hex()
        assert verdict.spectral_norm.hex() == eager.spectral_norm.hex()
        assert verdict == eager and hash(verdict) == hash(eager)
        assert repr(verdict) == repr(eager)
        assert repr(verdict).startswith("PsdVerdict(is_psd=%r, min_eigenvalue=" % verdict.is_psd)


def test_a_verdict_solves_once(eig_calls):
    verdict = is_psd(gram(Szego(), sample_grid(RandomGrid(100, 0.9, 2))))
    assert eig_calls == []
    verdict.min_eigenvalue, verdict.spectral_norm, repr(verdict)
    assert eig_calls == [(100, 100)]


@pytest.mark.parametrize("n", [1, FACTOR_BLOCK - 1, FACTOR_BLOCK, FACTOR_BLOCK + 1, 130, 200])
def test_blocked_factor_is_a_cholesky(n):
    rng = np.random.default_rng(n)
    B = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    M = B @ B.conj().T / n + np.eye(n)
    W = M.copy()
    _cholesky_in_place(W)
    want = np.linalg.cholesky(M)
    assert np.max(np.abs(np.tril(W) - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("n", [2, FACTOR_BLOCK + 1, 300])
def test_slack_bounds_the_rounding_of_both_factors(n):
    A = _planted(n, 1e-9, False, seed=7 * n)
    c = _cholesky_slack(A.diagonal().real, 0.0)
    W = A.copy()
    _cholesky_in_place(W)
    for L in (np.tril(W), np.linalg.cholesky(A)):
        residual = np.max(np.abs(REAL_EIGVALSH(L @ L.conj().T - A)))
        assert 0.0 < residual <= c


@pytest.mark.parametrize("n", [2, FACTOR_BLOCK + 1, 130])
def test_blocked_factor_raises_on_indefinite_input(n):
    M = _planted(n, -1e-3, False, seed=n)
    with pytest.raises(np.linalg.LinAlgError):
        _cholesky_in_place(M.copy())


def test_blocked_factor_declines_on_overflow_without_a_warning():
    # Row FACTOR_BLOCK has entries 1e160 left of the diagonal: its products
    # with itself overflow in the update of the second diagonal block.
    n = FACTOR_BLOCK + 2
    M = np.eye(n, dtype=complex)
    M[FACTOR_BLOCK, :FACTOR_BLOCK] = 1e160 * (1 + 1j)
    M[FACTOR_BLOCK + 1, :FACTOR_BLOCK] = 1e160 * (1 - 1j)
    M = np.tril(M) + np.tril(M, -1).conj().T
    M[FACTOR_BLOCK, FACTOR_BLOCK] = M[FACTOR_BLOCK + 1, FACTOR_BLOCK + 1] = 1e307
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(np.linalg.LinAlgError):
            _cholesky_in_place(M.copy())
        assert is_psd(M).is_psd == _verdict(REAL_EIGVALSH(M), psd.DEFAULT_TOL).is_psd


def test_an_overflowing_spectrum_is_still_refused():
    points = sample_grid(RadialGrid((0.5,), 4))
    f = TaylorPolynomial((9e153,), unit_ball_check=False)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="eigenvalues overflow the float range"):
            membership_check(f, Szego(), 2.0, points)


def test_certified_check_holds_one_working_matrix():
    n = 800
    G = gram(Szego(), sample_grid(RandomGrid(n, 0.9, 1)))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        verdict = is_psd(G)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert verdict.is_psd and "_extremes" not in vars(verdict)
    assert peak <= 1.05 * n * n * 16


@pytest.mark.parametrize(
    "grid", [RandomGrid(160, 0.9, 3), RadialGrid((0.3, 0.6, 0.9), 40)], ids=["dense", "routed"]
)
def test_dominance_counts_the_pencil_cholesky_as_the_psd_check(grid, eig_calls):
    points = sample_grid(grid)
    report = dominance_delta_min(Scale(0.5, Szego()), Szego(), points)
    assert report.delta_min == pytest.approx(0.5, rel=1e-9)
    assert len(eig_calls) == 2


@pytest.mark.parametrize(
    "grid", [RandomGrid(160, 0.9, 3), RadialGrid((0.3, 0.6, 0.9), 40)], ids=["dense", "routed"]
)
def test_dominance_errors_keep_their_messages(grid):
    points = sample_grid(grid)
    with pytest.raises(ValueError, match="dominating kernel is not PSD on the grid"):
        dominance_delta_min(Szego(), Difference(Szego(), Scale(2.0, Szego())), points)
    with pytest.raises(np.linalg.LinAlgError, match="numerically singular even after jitter"):
        dominance_delta_min(Szego(), Scale(0.0, Szego()), points)


def test_dominance_without_margin_checks_the_spectrum_first(eig_calls):
    points = PointSet((0.1, 0.5j, -0.3 + 0.2j))
    dominance_delta_min(Scale(0.5, Szego()), Szego(), points, tol=0.0)
    assert len(eig_calls) == 3
