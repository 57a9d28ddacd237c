"""Certified dense PSD verdicts and the lazy spectrum.

``psd.is_psd`` decides a dense matrix by a diagonal refutation or a shifted
Cholesky (``psd._certificate``) before it runs ``eigvalsh``, and a verdict
so decided computes its spectrum on first read. These tests require that a
certificate agrees with the spectral rule wherever it decides, that it
decides the clear cases, that reading the spectrum later gives the bits of
the eager verdict, that the panel factor is a Cholesky with the bits of the
former in-place factor and holds about half an n x n array, that the
symmetrized input, the membership test matrix and the dominance pencil keep
their bits in fewer n x n temporaries, and that ``dominance_delta_min``
counts the pencil's Cholesky as the PSD check of its dominating Gram.
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
from diskkernels.psd import FACTOR_BLOCK, _cholesky_panels, _cholesky_slack, _verdict

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


def _factor(M, shift=0.0):
    """The factor of M + shift I, assembled from its panels."""
    L = np.zeros(M.shape, dtype=complex)
    for panel in _cholesky_panels(M, shift):
        h, e = panel.shape
        L[e - h : e, :e] = panel
    return L


def _factor_in_place(W):
    """The blocked factor that ran in a full copy of the matrix, kept as the reference."""
    n = len(W)
    with np.errstate(all="ignore"):
        for s in range(0, n, FACTOR_BLOCK):
            e = min(s + FACTOR_BLOCK, n)
            done = W[s:e, :s]
            for k in range(0, s, FACTOR_BLOCK):
                part = done[:, k : k + FACTOR_BLOCK]
                W[s:e, s:e] -= part @ part.conj().T
            np.conjugate(done, out=done)
            for r in range(e, n, FACTOR_BLOCK):
                W[r : r + FACTOR_BLOCK, s:e] -= W[r : r + FACTOR_BLOCK, :s] @ done.T
            np.conjugate(done, out=done)
            D = np.linalg.cholesky(W[s:e, s:e])
            pivots = D.diagonal().real
            if not np.all(np.isfinite(pivots)):
                raise np.linalg.LinAlgError("non-finite pivot")
            W[s:e, s:e] = D
            if e == n:
                break
            rows = D.conj()
            for j in range(s, e):
                column = W[e:, j]
                column -= W[e:, s:j] @ rows[j - s, : j - s]
                column /= pivots[j - s]


def _factor_bytes(n):
    """The panels, the gathered block column and a few block-sized temporaries."""
    return 16 * (n * (n + FACTOR_BLOCK) / 2 + (n - FACTOR_BLOCK) * FACTOR_BLOCK + 8 * FACTOR_BLOCK**2)


def _traced_peak(call):
    """call() and the peak of traced memory above what was held before it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = call()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return result, peak


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
    want = np.linalg.cholesky(M)
    assert np.max(np.abs(_factor(M) - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("n", [1, FACTOR_BLOCK - 1, FACTOR_BLOCK, FACTOR_BLOCK + 1, 130, 300])
def test_panel_factor_has_the_bits_of_the_in_place_factor(n):
    rng = np.random.default_rng(3 * n)
    B = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    planted = B @ B.conj().T / n
    grid = gram(Szego(), sample_grid(RandomGrid(n, 0.9, n))).matrix
    compared = 0
    for M, shift in ((0.5 * (planted + planted.conj().T), 1e-3), (grid, 1e-6), (grid, 0.0)):
        W = M.copy()
        W.reshape(-1)[:: n + 1] += shift
        try:
            _factor_in_place(W)
        except np.linalg.LinAlgError:
            with pytest.raises(np.linalg.LinAlgError):
                _factor(M, shift)
            continue
        assert _factor(M, shift).tobytes() == np.tril(W).tobytes(), (n, shift)
        compared += 1
    assert compared >= 2


def test_panels_tile_the_lower_triangle():
    n = 3 * FACTOR_BLOCK + 5
    panels = _cholesky_panels(_planted(n, 1.0, False, seed=5), 0.0)
    assert [p.shape for p in panels] == [(FACTOR_BLOCK, FACTOR_BLOCK * k) for k in (1, 2, 3)] + [(5, n)]
    # One store holds them all, one after another.
    assert all(p.base is panels[0].base for p in panels)


@pytest.mark.parametrize("n", [2, FACTOR_BLOCK + 1, 300])
def test_slack_bounds_the_rounding_of_both_factors(n):
    A = _planted(n, 1e-9, False, seed=7 * n)
    c = _cholesky_slack(A.diagonal().real, 0.0)
    for L in (_factor(A), np.linalg.cholesky(A)):
        residual = np.max(np.abs(REAL_EIGVALSH(L @ L.conj().T - A)))
        assert 0.0 < residual <= c


@pytest.mark.parametrize("n", [2, FACTOR_BLOCK + 1, 130])
def test_blocked_factor_raises_on_indefinite_input(n):
    M = _planted(n, -1e-3, False, seed=n)
    with pytest.raises(np.linalg.LinAlgError):
        _factor(M)


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
            _factor(M)
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
    verdict, peak = _traced_peak(lambda: is_psd(G))
    assert verdict.is_psd and "_extremes" not in vars(verdict)
    # 0.63 n^2 complex entries at n = 800; a full working copy was 1.
    assert peak <= _factor_bytes(n)


def _old_symmetrized(M):
    return 0.5 * (M + M.conj().T)


@pytest.mark.parametrize("n", [1, FACTOR_BLOCK + 1, 130])
def test_symmetrized_ndarray_keeps_its_bits(n):
    rng = np.random.default_rng(n)
    M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    M = M + M.conj().T
    zeros = rng.random((n, n)) < 0.2
    M[zeros | zeros.T] = -0.0
    M[0, -1] += 1e-13j  # a deviation below the Hermitian tolerance
    M[-1, -1] = complex(5e-324, -0.0)
    assert psd._as_matrix(M)[0].tobytes() == _old_symmetrized(M).tobytes()


def test_symmetrized_ndarray_still_refuses_overflow_and_asymmetry():
    M = np.full((FACTOR_BLOCK + 3, FACTOR_BLOCK + 3), 1e308, dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="matrix has non-finite entries"):
            psd._as_matrix(M)
        M = np.eye(FACTOR_BLOCK + 3, dtype=complex)
        M[-1, 0] = 1e-3
        with pytest.raises(ValueError, match="matrix is not Hermitian"):
            psd._as_matrix(M)


def test_certificate_reads_the_peak_of_the_tested_matrix(monkeypatch):
    rng = np.random.default_rng(5)
    n = FACTOR_BLOCK + 3
    M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    M = M + M.conj().T + 3.0 * np.eye(n)
    M[2, -1] += 1e-12j  # a deviation below the Hermitian tolerance
    peaks = []
    certificate = psd._certificate
    monkeypatch.setattr(
        psd, "_certificate", lambda M, tol, peak: peaks.append(peak) or certificate(M, tol, peak)
    )
    is_psd(M)
    assert peaks == [float(np.max(np.abs(_old_symmetrized(M))))]
    G = gram(Szego(), sample_grid(RandomGrid(90, 0.9, 1)))
    is_psd(G)
    assert peaks[1] == G.peak


NON_FINITE = {
    "nan": complex(np.nan, 0.0),
    "inf": complex(np.inf, 0.0),
    "-inf": complex(-np.inf, 0.0),
    "inf+nanj": complex(np.inf, np.nan),
}
N_EDGE = FACTOR_BLOCK + 3
# Positions in two different row strips.
PLACES = {
    "diagonal": [(N_EDGE - 1, N_EDGE - 1)],
    "above": [(2, N_EDGE - 1)],
    "below": [(N_EDGE - 1, 2)],
    "both": [(2, N_EDGE - 1), (N_EDGE - 1, 2)],
}


@pytest.mark.parametrize("place", sorted(PLACES))
@pytest.mark.parametrize("value", sorted(NON_FINITE))
def test_non_finite_ndarray_is_refused_without_a_warning(value, place):
    M = np.eye(N_EDGE, dtype=complex)
    for i, j in PLACES[place]:
        M[i, j] = NON_FINITE[value]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="matrix has non-finite entries"):
            is_psd(M)


@pytest.mark.parametrize(
    "mirror", [1e308 - 1e308j, 1e308 + 1e308j], ids=["hermitian", "asymmetric"]
)
def test_overflowing_symmetrized_sum_is_refused_as_non_finite(mirror):
    # Both entries are finite; their sum in (M + M*) * 0.5 overflows. In the
    # asymmetric case |M - M*| overflows too, and the peak decides first.
    M = np.eye(N_EDGE, dtype=complex)
    M[2, N_EDGE - 1] = 1e308 + 1e308j
    M[N_EDGE - 1, 2] = mirror
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="matrix has non-finite entries"):
            is_psd(M)


def test_symmetrized_ndarray_is_made_a_strip_at_a_time():
    n = 400
    M = np.array(gram(Szego(), sample_grid(RandomGrid(n, 0.9, 1))).matrix)
    _, peak = _traced_peak(lambda: psd._as_matrix(M))
    # The symmetrized copy, one strip of the mirror and its moduli.
    assert peak <= 16 * (n * n + 1.6 * FACTOR_BLOCK * n)
    verdict, peak = _traced_peak(lambda: is_psd(M))
    assert verdict.is_psd and "_extremes" not in vars(verdict)
    assert peak <= 16 * n * n + _factor_bytes(n)


def test_membership_forms_its_test_matrix_in_one_array(monkeypatch):
    n = 800
    points = sample_grid(RandomGrid(n, 0.9, 1))
    f = TaylorPolynomial((0.3, 0.2))
    verdict, peak = _traced_peak(lambda: membership_check(f, Szego(), 1.0, points))
    assert verdict.is_psd and "_extremes" not in vars(verdict)
    # The test matrix, its symmetrized copy and the factor.
    assert peak <= 2 * 16 * n * n + _factor_bytes(n)
    tested = []
    monkeypatch.setattr(psd, "is_psd", lambda M, tol: tested.append(M))
    membership_check(f, Szego(), 1.5, points)
    v = f.eval(points.array)
    want = 1.5 * 1.5 * gram(Szego(), points).matrix - np.outer(v, v.conj())
    assert tested[0].tobytes() == want.tobytes()




@pytest.mark.parametrize(
    "grid", [RandomGrid(160, 0.9, 3), RadialGrid((0.3, 0.6, 0.9), 40)], ids=["dense", "routed"]
)
def test_dominance_counts_the_pencil_cholesky_as_the_psd_check(grid, eig_calls):
    points = sample_grid(grid)
    report = dominance_delta_min(Scale(0.5, Szego()), Szego(), points)
    assert report.delta_min == pytest.approx(0.5, rel=1e-9)
    assert len(eig_calls) == 1
    # The gap's solve runs on the first read of min_eig_at_delta.
    report.min_eig_at_delta
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
    report = dominance_delta_min(Scale(0.5, Szego()), Szego(), points, tol=0.0)
    assert len(eig_calls) == 2
    report.min_eig_at_delta
    assert len(eig_calls) == 3
