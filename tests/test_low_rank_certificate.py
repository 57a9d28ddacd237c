"""The low-rank PSD certificate that ``psd._certificate`` tries before the panel Cholesky.

For n >= 4 FACTOR_BLOCK and tol > 0, a dense matrix is first tried by
``psd._low_rank_certificate``: a pivoted partial Cholesky and a rigorous
bound on the Frobenius norm of its residual. These tests require that it
never passes a matrix with an eigenvalue at -2t, that it passes planted
low-rank PSD matrices, that it declines without a warning where its sums
overflow, that a verdict it decided reads the spectrum of the eager one,
and that it is tried only where the size rule allows, within the memory
bound of the panel factor it precedes.
"""

import warnings

import numpy as np
import pytest

from diskkernels import (
    ConjugateScale,
    RandomGrid,
    Szego,
    TaylorPolynomial,
    gram,
    is_psd,
    sample_grid,
)
from diskkernels import psd
from diskkernels.psd import FACTOR_BLOCK, _verdict

from test_psd_certificate import REAL_EIGVALSH, _factor_bytes, _traced_peak, _unitary

SIZES = (4 * FACTOR_BLOCK, 300, 640)


def _low_rank(n, rank, least, seed):
    """Hermitian Q diag(lam) Q*, spectral norm 1: ``rank`` eigenvalues 1, 1/2, 1/4, ...

    With ``least`` nonzero, one more eigenvalue is ``least`` and the rest are 0.
    """
    rng = np.random.default_rng(seed)
    lam = np.zeros(n)
    lam[:rank] = 0.5 ** np.arange(rank)
    lam[rank] = least
    Q = _unitary(rng, n)
    M = (Q * lam) @ Q.conj().T
    return 0.5 * (M + M.conj().T)


def _shift(M, tol):
    """The shift s that ``_certificate`` hands the low-rank certificate."""
    refuted, shift, _ = psd._refutation(
        M.diagonal().real, tol, float(np.max(np.abs(M))), lambda: float(np.linalg.norm(M))
    )
    assert not refuted
    return shift


@pytest.fixture
def routes(monkeypatch):
    """The shapes each route was called with: eigvalsh, low rank and panel Cholesky."""
    calls = {"eigvalsh": [], "low rank": [], "panels": []}

    def spy(name, real):
        def called(M, *args, **kwargs):
            calls[name].append(np.shape(M))
            return real(M, *args, **kwargs)

        return called

    monkeypatch.setattr(np.linalg, "eigvalsh", spy("eigvalsh", REAL_EIGVALSH))
    monkeypatch.setattr(psd, "_low_rank_certificate", spy("low rank", psd._low_rank_certificate))
    monkeypatch.setattr(psd, "_cholesky_panels", spy("panels", psd._cholesky_panels))
    return calls


@pytest.mark.parametrize("tol", [1e-12, 1e-9, 1e-3])
@pytest.mark.parametrize("rank", [1, 12, 40])
@pytest.mark.parametrize("n", SIZES)
def test_a_negative_eigenvalue_at_minus_two_t_is_never_certified(n, rank, tol):
    M = _low_rank(n, rank, -2.0 * tol, seed=n + rank)
    shift = _shift(M, tol)
    # The factor finishes, so the residual bound is what declines.
    assert psd._pivoted_rows(M, tol, shift, n // 4) is not None
    assert not psd._low_rank_certificate(M, tol, shift)
    assert not _verdict(REAL_EIGVALSH(M), tol).is_psd


@pytest.mark.parametrize("tol", [1e-9, 1e-3])
def test_a_negative_direction_spread_over_every_strip_is_never_certified(tol):
    # B B* - 2t w w* with w orthogonal to B's range and of even modulus: the
    # diagonal blocks hold only about 64/n of the negative part's squared
    # Frobenius norm, so only the blocks left of them make the bound decline.
    n, rank = 32 * FACTOR_BLOCK, 8
    rng = np.random.default_rng(6)
    B = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    B *= 1.0 / np.linalg.norm(B, 2)
    Q = np.linalg.qr(B)[0]
    w = np.exp(2j * np.pi * rng.random(n))
    w -= Q @ (Q.conj().T @ w)
    w /= np.linalg.norm(w)
    M = B @ B.conj().T - 2.0 * tol * np.outer(w, w.conj())
    M = 0.5 * (M + M.conj().T)
    assert (w.conj() @ M @ w).real < -1.99 * tol
    shift = _shift(M, tol)
    assert psd._pivoted_rows(M, tol, shift, n // 4) is not None
    assert not psd._low_rank_certificate(M, tol, shift)


@pytest.mark.parametrize("tol", [1e-9, 1e-6, 1e-3])
@pytest.mark.parametrize("rank", [1, 12, 40])
@pytest.mark.parametrize("n", SIZES)
def test_planted_low_rank_psd_matrices_are_certified(n, rank, tol, routes):
    M = _low_rank(n, rank, 0.0, seed=2 * n + rank)
    assert psd._low_rank_certificate(M, tol, _shift(M, tol))
    del routes["low rank"][:]
    verdict = is_psd(M, tol)
    assert verdict.is_psd
    assert routes == {"eigvalsh": [], "low rank": [(n, n)], "panels": []}


@pytest.mark.parametrize("scale", [1e154, 1e300])
def test_huge_entries_decide_without_a_warning(scale):
    n = 4 * FACTOR_BLOCK
    M = scale * _low_rank(n, 12, 0.0, seed=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        certified = psd._low_rank_certificate(M, 1e-9, _shift(M, 1e-9))
        verdict = is_psd(M)
        assert verdict.is_psd == _verdict(REAL_EIGVALSH(M), 1e-9).is_psd
    if scale == 1e300:
        # Its residual's squares overflow, so the panel factor decides.
        assert not certified


def test_a_low_rank_verdict_reads_the_eager_spectrum(routes):
    G = gram(Szego(), sample_grid(RandomGrid(300, 0.9, 1)))
    verdict = is_psd(G)
    assert routes == {"eigvalsh": [], "low rank": [(300, 300)], "panels": []}
    eager = _verdict(REAL_EIGVALSH(G.matrix), psd.DEFAULT_TOL)
    assert verdict.min_eigenvalue.hex() == eager.min_eigenvalue.hex()
    assert verdict.spectral_norm.hex() == eager.spectral_norm.hex()
    assert verdict == eager and repr(verdict) == repr(eager)


def test_a_large_analytic_gram_needs_no_panel_factor(routes):
    phi = TaylorPolynomial((0.5, 0.3, 0.1))
    G = gram(ConjugateScale(phi, Szego()), sample_grid(RandomGrid(1600, 0.9, 1)))
    assert is_psd(G).is_psd
    assert routes == {"eigvalsh": [], "low rank": [(1600, 1600)], "panels": []}


@pytest.mark.parametrize("n", [1, FACTOR_BLOCK, 2 * FACTOR_BLOCK + 1, 4 * FACTOR_BLOCK - 1])
def test_small_matrices_keep_the_panel_factor(n, routes):
    M = _low_rank(n, 1, 0.0, seed=n) + 1e-3 * np.eye(n) if n > 1 else np.eye(1, dtype=complex)
    assert is_psd(M).is_psd
    assert routes["low rank"] == [] and routes["panels"] == [(n, n)]


def test_no_tolerance_leaves_only_the_spectrum(routes):
    M = _low_rank(4 * FACTOR_BLOCK, 12, 0.0, seed=4)
    is_psd(M, 0.0)
    assert routes["low rank"] == [] and routes["panels"] == [] and len(routes["eigvalsh"]) == 1


@pytest.mark.parametrize("n", [4 * FACTOR_BLOCK, 300])
def test_a_full_rank_matrix_falls_back_to_the_panel_factor(n, routes):
    rng = np.random.default_rng(n)
    lam = rng.uniform(0.5, 1.0, n)
    Q = _unitary(rng, n)
    M = (Q * lam) @ Q.conj().T
    M = 0.5 * (M + M.conj().T)
    verdict, peak = _traced_peak(lambda: is_psd(M))
    assert verdict.is_psd
    assert routes == {"eigvalsh": [], "low rank": [(n, n)], "panels": [(n, n)]}
    # The symmetrized copy of M, then the panel factor: the rows are gone by then.
    assert peak <= 16 * n * n + _factor_bytes(n)


def test_the_low_rank_route_holds_its_rows_and_one_strip():
    n = 800
    G = gram(Szego(), sample_grid(RandomGrid(n, 0.9, 1)))
    verdict, peak = _traced_peak(lambda: is_psd(G))
    assert verdict.is_psd and "_extremes" not in vars(verdict)
    # n/4 rows of the factor, one strip, the rows' block of it and a few
    # row-sized temporaries.
    assert peak <= 16 * (n * (n // 4) + FACTOR_BLOCK * (n + n // 4) + 8 * n)
    assert peak <= _factor_bytes(n)
