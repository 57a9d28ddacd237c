"""Positivity and dominance testing of kernels on finite point sets.

Grid verdicts are one-sided evidence: a PSD verdict means "not refuted on
this grid", while a negative eigenvalue below tolerance is a genuine
refutation. Rotation-invariant expressions additionally admit an exact
diagonal-coefficient oracle that is independent of any grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from . import kernels as kx
from .functions import ensure_finite
from .kernels import (
    GramMatrix,
    KernelExpr,
    PointSet,
    RadialGrid,
    UNIT_ROUNDOFF,
    gram,
    sample_grid,
)
from .specs import format_kernel

DEFAULT_TOL = 1e-9
JITTER_SCALE = 1e-12
ORACLE_TOL = 1e-12
REFUTATION_RADII = (0.5, 0.65, 0.8, 0.9, 0.95)
FACTOR_BLOCK = 64


class _ReadsLazyFields:
    """``==``, ``hash`` and ``repr`` by the values of ``_shown``, lazy ones read."""

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._shown)

    def __eq__(self, other) -> bool:
        return self._key() == other._key() if isinstance(other, type(self)) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        shown = ", ".join("%s=%r" % pair for pair in zip(self._shown, self._key()))
        return "%s(%s)" % (type(self).__name__, shown)


@dataclass(frozen=True, eq=False, repr=False)
class PsdVerdict(_ReadsLazyFields):
    """Outcome of a finite PSD test.

    ``is_psd`` is certified, or read from the spectrum: see ``is_psd``.
    ``min_eigenvalue`` is the least eigenvalue and ``spectral_norm`` the
    largest eigenvalue modulus. Both come from one call of ``spectrum``,
    made on their first read, so a verdict a certificate decided runs no
    eigensolver until then; the verdict keeps what ``spectrum`` holds, such
    as the tested matrix. ``==``, ``hash`` and ``repr`` read them.
    """

    is_psd: bool
    tolerance_used: float
    spectrum: Callable[[], np.ndarray]

    @cached_property
    def _extremes(self) -> tuple[float, float]:
        return _least_and_norm(self.spectrum())

    @property
    def min_eigenvalue(self) -> float:
        return self._extremes[0]

    @property
    def spectral_norm(self) -> float:
        return self._extremes[1]

    _shown = ("is_psd", "min_eigenvalue", "tolerance_used", "spectral_norm")


@dataclass(frozen=True, eq=False, repr=False)
class DominanceReport(_ReadsLazyFields):
    """Least delta with K1 <= delta K2 on a grid, from a generalized eigenproblem.

    ``min_eig_at_delta``, the least eigenvalue of delta G2 - G1, is ``gap()``,
    solved on its first read; ``==``, ``hash`` and ``repr`` read it.
    """

    delta_min: float
    regularization_jitter: float
    grid: str
    grid_size: int
    kernel1: KernelExpr
    kernel2: KernelExpr
    gap: Callable[[], float]

    @cached_property
    def min_eig_at_delta(self) -> float:
        return self.gap()

    _shown = ("delta_min", "min_eig_at_delta", "regularization_jitter", "grid", "grid_size",
              "kernel1", "kernel2")

    def report_dict(self) -> dict:
        return {
            "delta_min": self.delta_min,
            "min_eig": self.min_eig_at_delta,
            "jitter": self.regularization_jitter,
            "grid": {"spec": self.grid, "size": self.grid_size},
            "kernel1": format_kernel(self.kernel1),
            "kernel2": format_kernel(self.kernel2),
        }


def _checked_tol(tol) -> float:
    tol = float(tol)
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError("tolerance must be a finite number >= 0, got %r" % tol)
    return tol


def _as_matrix(G) -> tuple[np.ndarray, float]:
    """The matrix of G and its peak max |M_ij|, both finite.

    An ndarray must also be square and Hermitian; it is returned as
    (M + M*) * 0.5, with that matrix's peak. A Gram brings its own peak.
    """
    is_gram = isinstance(G, GramMatrix)
    M = G.matrix if is_gram else np.asarray(G, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or not M.size:
        raise ValueError("expected a nonempty square matrix")
    if is_gram:
        sym, peak, asym = M, G.peak, 0.0
    else:
        # (M + M*) * 0.5, its peak and max |M - M*|, FACTOR_BLOCK rows at a
        # time. Entries near the float limit overflow here; np.max keeps NaN.
        n = len(M)
        sym = np.empty((n, n), dtype=complex)
        buffer = np.empty((min(n, FACTOR_BLOCK), n), dtype=complex)
        asym = peak = 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            for s in range(0, n, FACTOR_BLOCK):
                rows = M[s : s + FACTOR_BLOCK]
                mirror = np.conjugate(M[:, s : s + FACTOR_BLOCK].T, out=buffer[: len(rows)])
                strip = np.add(rows, mirror, out=sym[s : s + FACTOR_BLOCK])
                np.multiply(strip, 0.5, out=strip)
                peak = float(np.max((peak, np.max(np.abs(strip)))))
                asym = max(asym, float(np.max(np.abs(np.subtract(rows, mirror, out=mirror)))))
    if not math.isfinite(peak):
        raise ValueError("matrix has non-finite entries")
    if asym > 1e-9 * max(1.0, peak):
        raise ValueError("matrix is not Hermitian (deviation %.3g)" % asym)
    return sym, peak


def _angle_blocks(G: GramMatrix, tol: float) -> Optional[np.ndarray]:
    """The Gram split by a DFT over the angle index, or None for the dense route.

    On a radial grid of R radii and A angles, in ``sample_grid`` order, a
    rotation-invariant kernel has an R x R array of A x A circulant blocks.
    Conjugating by the unitary DFT in the angle index turns it into A
    Hermitian R x R blocks, returned as an (A, R, R) stack with the same
    spectrum. The blocks come from the first column of each circulant
    block, which a Gram of ``gram``'s rotation route brings with a bound on
    ||G - C||_F, C the block-circulant matrix rebuilt from them (see
    ``kernels._circulant_bound``). They are used only when that bound is at
    most 0.1 tol max(1, G.peak); by Weyl's inequality no eigenvalue then
    moves by more than that. Any other Gram takes the dense route.
    """
    if G._circulant is None:
        return None
    first, bound = G._circulant
    if not bound <= 0.1 * tol * max(1.0, G.peak):
        return None
    blocks = np.fft.fft(first, axis=1).transpose(1, 0, 2)
    return 0.5 * (blocks + blocks.conj().transpose(0, 2, 1))


def _least_and_norm(evals: np.ndarray) -> tuple[float, float]:
    """The least eigenvalue and the spectral norm."""
    lo = float(np.min(evals))
    spectral = float(max(abs(lo), abs(float(np.max(evals)))))
    # An infinite spectral norm would scale the tolerance to infinity too.
    if not math.isfinite(spectral):
        raise ValueError("eigenvalues overflow the float range")
    return lo, spectral


def _verdict(evals: np.ndarray, tol: float) -> PsdVerdict:
    lo, spectral = _least_and_norm(evals)
    return PsdVerdict(bool(lo >= -tol * max(1.0, spectral)), tol, lambda: evals)


def is_psd(G, tol: float = DEFAULT_TOL) -> PsdVerdict:
    """PSD test with a relative tolerance floor.

    Accepts a GramMatrix or a Hermitian ndarray, and a finite tol >= 0.
    Non-finite entries are rejected rather than propagated into an
    eigensolver. The rule is min_eigenvalue >= -t, t = tol * max(1, rho)
    with rho the spectral norm.

    A rotation-invariant kernel's Gram on a radial grid is solved one
    angular frequency at a time (see ``_angle_blocks``) and the rule is
    read from its spectrum. Any other matrix is first tried by the
    certificates of ``_certificate``: a diagonal entry below
    -(2 tol max(1, ||G||_F) + c) refutes; from n = 256 on, a pivoted
    low-rank factor L with ||G - L L*||_F, rounding included, at most
    s' <= t/2 passes; and a Cholesky of G + (s - c) I that completes
    passes, with s <= t/2 and c its rounding bound. Only when none
    decides is the rule read from the spectrum; a certified
    verdict computes its spectrum when ``min_eigenvalue`` or
    ``spectral_norm`` is first read, by the same ``eigvalsh`` call on the
    same matrix.
    """
    tol = _checked_tol(tol)
    blocks = _angle_blocks(G, tol) if isinstance(G, GramMatrix) else None
    if blocks is not None:
        return _verdict(np.linalg.eigvalsh(blocks), tol)
    M, peak = _as_matrix(G)
    decided = _certificate(M, tol, peak)
    if decided is None:
        return _verdict(np.linalg.eigvalsh(M), tol)
    return PsdVerdict(decided, tol, lambda: np.linalg.eigvalsh(M))


def _cholesky_slack(diag: np.ndarray, shift: float) -> float:
    """c with lambda_min(H) >= -shift - c once a Cholesky of fl(H + shift I) completes.

    ``diag`` is the real diagonal of a Hermitian H of order n, or the
    diagonals of a stack of them (the largest c is returned); shift >= 0.
    This is Rump's shift bound ("Verification of positive definiteness",
    BIT 46, 2006), in complex arithmetic. Let A = fl(H + shift I) and L the
    computed factor. Each real and imaginary part of an entry of L L* - A
    is the error of one real recurrence: at most 2n - 2 real products
    subtracted from a_ij, then a division by the pivot (two roundings when
    its reciprocal is multiplied) or a square root. So in any order of
    evaluation, blocked or not, |L L* - A| <= sqrt(2) g |L| |L*| entrywise
    with g = gamma_{2n+4} = (2n+4)u / (1 - (2n+4)u), u = 2^-53 (Higham,
    *Accuracy and Stability of Numerical Algorithms*, Thm 10.3, and §3.6
    for complex numbers; sqrt(2) joins the real and imaginary bounds). Then ||L L* - A||_2 <= sqrt(2) g
    ||L||_F^2 <= sqrt(2) g / (1 - sqrt(2) g) tr A, and L L* >= 0 gives
    lambda_min(A) >= -sqrt(2) g / (1 - sqrt(2) g) tr A. A = H + shift I + E
    with |E_ii| <= u |h_ii + shift| and tr A <= (1 + u)(sum |h_ii| + n shift).
    Gradual underflow adds at most eta = 2^-1074 to a product or quotient;
    moved onto an entry of L L* - A it grows by at most a pivot, itself at
    most 1 + max a_ii, so an entry gains at most (2n + 8)(1 + max a_ii) eta
    and the matrix n times that in norm. So c = 1.5 g (sum |h_ii| + n shift)
    + 2 u (max |h_ii| + shift) + n (2n + 8)(1 + max |h_ii| + shift) eta:
    1.5 > sqrt(2) (1 + u) / (1 - sqrt(2) g), and the second u covers the
    rounding of shift - c and of this evaluation. c is inf when a sum
    overflows.
    """
    n = diag.shape[-1]
    g = (2 * n + 4) * UNIT_ROUNDOFF / (1.0 - (2 * n + 4) * UNIT_ROUNDOFF)
    size = np.abs(diag)
    with np.errstate(over="ignore"):
        top = np.max(size, axis=-1) + shift
        c = (
            1.5 * g * (np.sum(size, axis=-1) + n * shift)
            + 2.0 * UNIT_ROUNDOFF * top
            + n * (2 * n + 8) * (1.0 + top) * math.ulp(0.0)
        )
    return float(np.max(c))


def _certificate(M: np.ndarray, tol: float, peak: float) -> Optional[bool]:
    """The PSD verdict on Hermitian M when a certificate settles it, else None.

    With rho the spectral norm and t = tol * max(1, rho), the verdict is
    min_eigenvalue >= -t.

    - Refuted when some M_ii < -(2 tol max(1, rho_hi) + c). M_ii is a
      Rayleigh quotient, so lambda_min <= M_ii < -2t - c. rho_hi, the
      Frobenius norm, is at least rho; ``np.vdot`` takes it with no n x n
      temporary.
    - PSD when a Cholesky of M + (s - c) I completes with a finite
      diagonal (``_cholesky_panels``), c = ``_cholesky_slack(diag, s)``:
      then lambda_min >= -s. s = tol max(1, rho_lo) / 2 <= t/2 with
      rho_lo = max(peak, max |M_ii|, tr M / n) <= rho, since |M_ij| and
      the mean eigenvalue are at most rho; ``peak`` is max |M_ij|.
      It is tried only when s > c, so never at tol = 0.
    - PSD, before that Cholesky is tried and when n // 4 >= FACTOR_BLOCK,
      when a pivoted partial Cholesky of at most n/4 rows leaves a
      residual whose Frobenius norm, with its rounding bound, is at most
      s' (``_low_rank_certificate``): then lambda_min >= -s', with
      s <= s' <= t/2. Its O(n^2 k) cost for k rows beats the O(n^3)
      Cholesky on the low numerical rank of an analytic kernel's Gram;
      when it gives up or its bound is too large, the Cholesky runs as
      before.

    Each certificate leaves a margin of t/2 or more, so the rule read
    from ``eigvalsh`` decides the same way unless that solver errs by more
    than t/2. At tol = 0 only a refutation, by a diagonal below -c, decides.
    """
    refuted, shift, slack = _refutation(
        M.diagonal().real, tol, peak, lambda: math.sqrt(np.vdot(M, M).real)
    )
    if refuted:
        return False
    if shift > slack:
        if len(M) // 4 >= FACTOR_BLOCK and _low_rank_certificate(M, tol, shift):
            return True
        try:
            _cholesky_panels(M, shift - slack)
        except np.linalg.LinAlgError:
            return None
        return True
    return None


def _low_rank_certificate(M: np.ndarray, tol: float, shift: float) -> bool:
    """Whether a low-rank factor of Hermitian M proves lambda_min(M) >= -s', s' >= shift.

    A diagonal-pivoted partial Cholesky (``_pivoted_rows``) gives k rows L,
    and P = L^T conj(L) is PSD whatever L's bits, so by Weyl's inequality
    lambda_min(M) >= -||M - P||_2 >= -x, x the bound on ||M - P||_F of
    ``_residual_bound``.

    P >= l l* for the first row l, so the spectral norm rho >= lambda_max(M)
    >= lambda_max(P) - x >= ||l||^2 - x, and s' = max(shift, tol (||l||^2
    - x) / 2) is at most t/2 when shift is, t = tol max(1, rho); ||l||^2 is
    taken as (1 - 2g) times its computed square less a, g and a as in
    ``_residual_bound``. True when x <= s' and s' is finite; a residual or
    bound that overflows decides nothing.
    """
    n = len(M)
    with np.errstate(all="ignore"):
        L = _pivoted_rows(M, tol, shift, n // 4)
        if L is None:
            return False
        g = 2 * n * n * UNIT_ROUNDOFF / (1.0 - 2 * n * n * UNIT_ROUNDOFF)
        a = 2 * n * n * math.ulp(0.0)
        first = (1.0 - 2.0 * g) * float(np.vdot(L[0], L[0]).real) - a if len(L) else 0.0
        # The bound is at least ||R||_F and s' at most this ceiling: past it, nothing fits.
        ceiling = max(shift, 0.5 * tol * first)
        bound = _residual_bound(M, np.conjugate(L, out=L), ceiling)
        shift = max(shift, 0.5 * tol * (first - bound))
    return bound <= shift < math.inf


def _residual_bound(M: np.ndarray, conj_rows: np.ndarray, ceiling: float) -> float:
    """x >= ||M - L^T conj(L)||_F for Hermitian M of order n >= 256, or inf.

    ``conj_rows`` is conj(L) for k <= n/4 rows L; M and L may be real. inf
    once the sum below passes ``ceiling``: the caller needs no larger x.
    The residual R = fl(M - fl(L^T conj(L))) is formed FACTOR_BLOCK rows at
    a time, in the lower triangle only: per strip, a block left of the
    diagonal block (counted twice) and the diagonal block. Each real or
    imaginary part of an entry of R is a real sum of 2k products and one
    part of M_ij, so in any order of evaluation, fused or not, |R - (M -
    P)| <= sqrt(2) h (|M| + |L^T| |L^T|*) entrywise, h = gamma_{2k+1}
    (Higham, *Accuracy and Stability of Numerical Algorithms*, §3.1 and
    §3.6); an underflowing product adds at most eta = 2^-1074, which the
    sums carry to at most 3 k eta an entry. Real M and L only shrink each
    term. With ||M||_F <= x + ||L||_F^2 this gives x (1 - sqrt(2) h) <=
    ||R||_F + 2 sqrt(2) h ||L||_F^2 + 3 n k eta. ||R||_F^2 and ||L||_F^2
    are sums of at most 2 n^2 rounded real squares, each within eta of its
    model: with g = gamma_{2n^2} and a = 2 n^2 eta, the exact sums are at
    most (computed + a) / (1 - g). As 2k + 1 <= n/2 + 1 leaves h below
    g / 1000 for n >= 256, (1 + 2g) covers both divisions and this
    evaluation's roundings, and 3 > 2 sqrt(2) (1 + 2h) / (1 - g): so x <=
    (1 + 2g) (sqrt(q + a) + 3 h (l + a)) + 4 n k eta, with q and l the
    computed squares of ||R||_F and ||L||_F.
    """
    n, k = len(M), len(conj_rows)
    strips = np.empty(FACTOR_BLOCK * n, dtype=np.result_type(M, conj_rows))
    squares = 0.0
    for s in range(0, n, FACTOR_BLOCK):
        e = min(s + FACTOR_BLOCK, n)
        m = e - s
        left = conj_rows[:, s:e].conj().T
        off = np.matmul(left, conj_rows[:, :s], out=strips[: m * s].reshape(m, s))
        diag = np.matmul(left, conj_rows[:, s:e], out=strips[m * s : m * e].reshape(m, m))
        np.subtract(M[s:e, :s], off, out=off)
        np.subtract(M[s:e, s:e], diag, out=diag)
        squares += 2.0 * np.vdot(off, off).real + np.vdot(diag, diag).real
        if not squares <= ceiling * ceiling:
            return math.inf
    g = 2 * n * n * UNIT_ROUNDOFF / (1.0 - 2 * n * n * UNIT_ROUNDOFF)
    a = 2 * n * n * math.ulp(0.0)
    size = float(np.vdot(conj_rows, conj_rows).real)
    h = (2 * k + 1) * UNIT_ROUNDOFF / (1.0 - (2 * k + 1) * UNIT_ROUNDOFF)
    return (1.0 + 2.0 * g) * (math.sqrt(squares + a) + 3.0 * h * (size + a)) + 4 * n * k * math.ulp(0.0)


def _pivoted_rows(
    M: np.ndarray, tol: float, shift: float, most: int, extrapolate: bool = True
) -> Optional[np.ndarray]:
    """Rows L of a diagonal-pivoted partial Cholesky of Hermitian M, or None.

    Harbrecht, Peters and Schneider, "On the low-rank approximation by the
    pivoted Cholesky decomposition", Appl. Numer. Math. 62, 2012. Row j is
    column p of the residual M - L[:j]^T conj(L[:j]) over the square root
    of its diagonal entry, p where the residual diagonal d is largest, and
    d loses the row's squared moduli. L has M's dtype. The rows stop once
    d sums to at most s/2, s = max(shift, tol ||L[0]||^2 / 2) the shift
    ``_low_rank_certificate`` hopes to prove; a PSD residual's Frobenius
    norm is at most its trace. None when the factor gives up: at ``most``
    rows, at a pivot that is not positive, or, with ``extrapolate``, when
    at j = 16, 24, 32, ... rows the decay of that sum over the last 8
    rows, kept up, would need more than most (1 + 16/j) rows. On the
    analytic kernels of a grid the decay quickens as rows are added, so
    the allowance is widest early; ``operators._low_rank_rows`` turns
    this off.
    """
    n = len(M)
    L = np.empty((most, n), dtype=M.dtype)
    width = 2 if np.iscomplexobj(M) else 1
    d = M.diagonal().real.copy()
    goal = 0.5 * shift
    sums = []
    for j in range(most + 1):
        total = float(np.sum(d))
        if total <= goal:
            return L[:j]
        if j == most:
            return None
        if extrapolate and j >= 16 and j % 8 == 0:
            rate = total / sums[j - 8]
            needed = j + 8.0 * math.log(goal / total) / math.log(rate) if rate < 1.0 else math.inf
            if not needed <= most * (1.0 + 16.0 / j):
                return None
        sums.append(total)
        p = int(np.argmax(d))
        row = np.conjugate(M[p], out=L[j])
        row -= np.conjugate(L[:j, p]) @ L[:j]
        pivot = row[p].real
        if not pivot > 0.0:
            return None
        row *= 1.0 / math.sqrt(pivot)
        parts = row.view(float)
        squares = parts * parts
        if not j:
            goal = max(goal, 0.25 * tol * float(np.sum(squares)))
        for part in range(width):
            d -= squares[part::width]
        d[p] = 0.0
    return None


def _refutation(diag: np.ndarray, tol: float, peak: float, rho_hi: Callable[[], float]) -> tuple:
    """(refuted, s, c) of ``_certificate`` for a Hermitian M of real diagonal ``diag``.

    ``peak`` is max |M_ij| or a lower bound on it; rho_hi(), at least the
    spectral norm, is called only when some M_ii < -c. A sum that
    overflows, or a non-finite diagonal, leaves c or rho_hi non-finite,
    which refutes nothing.
    """
    n = len(diag)
    with np.errstate(over="ignore", invalid="ignore"):
        rho_lo = max(1.0, peak, float(np.max(np.abs(diag))), float(np.sum(diag)) / n)
        shift = 0.5 * tol * rho_lo
        slack = _cholesky_slack(diag, shift)
        lowest = float(np.min(diag))
        if not lowest < -slack:
            return False, shift, slack
        hi = rho_hi()
        return math.isfinite(hi) and lowest < -(2.0 * tol * max(1.0, hi) + slack), shift, slack


def _refuted_on_diagonal(found, tol: float, assemble: Callable) -> Optional[PsdVerdict]:
    """A refuted verdict read off a test matrix M's diagonal, or None.

    ``found`` is None, or M's real diagonal, with the assembled M's bits,
    and E >= max |M_ij|, so rho <= n max |M_ij| <= 2 n E. The verdict holds
    no n x n array: ``assemble()``, the verdict of the assembled M, gives
    its spectrum when ``min_eigenvalue`` or ``spectral_norm`` is first read.
    """
    if found is None:
        return None
    diag, bound = found
    if not _refutation(diag, tol, 0.0, lambda: 2.0 * len(diag) * bound)[0]:
        return None
    return PsdVerdict(False, tol, lambda: assemble().spectrum())


def _cholesky_panels(M: np.ndarray, shift: float) -> list[np.ndarray]:
    """The Cholesky factor L of Hermitian M + shift I, as FACTOR_BLOCK-row panels.

    Only the lower triangle is held: panel j is rows s:e and columns 0:e of
    M, copied with ``shift`` added to its diagonal, and is overwritten with
    rows s:e of L. The factor is left-looking, one block column s:e at a
    time (``_factor_block_column``), and runs the products, in the same
    order, of the blocked factor in place in a full copy of M, so L has its
    bits. The panels share one store of at most n (n + FACTOR_BLOCK) / 2
    entries, and every block column is gathered into one array of
    (n - FACTOR_BLOCK) x FACTOR_BLOCK entries: the first block column
    needs all of both, so freeing panels as they are done would lower no
    peak. Raises ``np.linalg.LinAlgError`` when a pivot is not positive or
    not finite, with no numpy warning.
    """
    n = len(M)
    bounds = [(s, min(s + FACTOR_BLOCK, n)) for s in range(0, n, FACTOR_BLOCK)]
    store = np.empty(sum((e - s) * e for s, e in bounds), dtype=complex)
    gather = np.empty((n - bounds[0][1], FACTOR_BLOCK), dtype=complex)
    panels = []
    with np.errstate(all="ignore"):
        for s, e in bounds:
            panel = store[: (e - s) * e].reshape(e - s, e)
            store = store[panel.size :]
            panel[...] = M[s:e, :e]
            panel.reshape(-1)[s :: e + 1] += shift
            panels.append(panel)
        for j, panel in enumerate(panels):
            _factor_block_column(panel, panels[j + 1 :], gather)
    return panels


def _factor_block_column(panel: np.ndarray, lowers: list, gather: np.ndarray) -> None:
    """Factor block column s:e, held by ``panel`` in rows s:e and by ``lowers`` below.

    The diagonal block loses L L* of the columns already factored (the
    panel's columns 0:s, FACTOR_BLOCK at a time), and the rows below lose
    the same product as one matrix product per panel, against the panel's
    columns 0:s conjugated in place and back, written into ``gather``.
    ``np.linalg.cholesky`` factors the diagonal block, and the gathered
    column is solved against it column by column and scattered back.
    """
    h, e = panel.shape
    s = e - h
    done, diag = panel[:, :s], panel[:, s:]
    for k in range(0, s, FACTOR_BLOCK):
        part = done[:, k : k + FACTOR_BLOCK]
        diag -= part @ part.conj().T
    below = gather[: sum(len(lower) for lower in lowers)]
    blocks = [below[r : r + FACTOR_BLOCK] for r in range(0, len(below), FACTOR_BLOCK)]
    np.conjugate(done, out=done)
    for lower, block in zip(lowers, blocks):
        np.subtract(lower[:, s:e], lower[:, :s] @ done.T, out=block)
    np.conjugate(done, out=done)
    D = np.linalg.cholesky(diag)
    pivots = D.diagonal().real
    if not np.all(np.isfinite(pivots)):
        raise np.linalg.LinAlgError("non-finite pivot")
    diag[...] = D
    if not lowers:
        return
    rows = D.conj()
    for j in range(h):
        column = below[:, j]
        column -= below[:, :j] @ rows[j, :j]
        column /= pivots[j]
    for lower, block in zip(lowers, blocks):
        lower[:, s:e] = block


def _solve_lower(L: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Overwrite X with L^-1 X, for a stack of lower-triangular L; return X.

    Blocked forward substitution, FACTOR_BLOCK rows at a time: a block's
    rows lose their product with the rows already solved, then one
    ``np.linalg.solve`` on the diagonal block finishes them. The products
    are matrix products, so a dense pencil runs at BLAS speed, and a stack
    no larger than one block is exactly one batched ``np.linalg.solve``.
    """
    n = L.shape[-1]
    for s in range(0, n, FACTOR_BLOCK):
        e = min(s + FACTOR_BLOCK, n)
        rhs = X[:, s:e]
        if s:
            rhs -= L[:, s:e, :s] @ X[:, :s]
        rhs[...] = np.linalg.solve(L[:, s:e, s:e], rhs)
    return X


def _mirror(X: np.ndarray, add: bool) -> np.ndarray:
    """Overwrite square stack X by X* (+ X if ``add``), in FACTOR_BLOCK-square block pairs."""
    cuts = [slice(s, s + FACTOR_BLOCK) for s in range(0, X.shape[-1], FACTOR_BLOCK)]
    for i, rows in enumerate(cuts):
        for cols in cuts[i:]:
            a, b = X[:, rows, cols], X[:, cols, rows]
            to_b, to_a = np.conjugate(a.transpose(0, 2, 1)), np.conjugate(b.transpose(0, 2, 1))
            if add:
                to_b += b
                to_a += a
            a[...], b[...] = to_a, to_b
    return X


def dominance_delta_min(
    kernel1: KernelExpr,
    kernel2: KernelExpr,
    points: PointSet,
    tol: float = DEFAULT_TOL,
) -> DominanceReport:
    """Smallest delta with gram(K1) <= delta gram(K2) on the point set.

    Solves the generalized eigenproblem for the pencil (G1, G2 + jitter I)
    by Cholesky congruence; jitter = 1e-12 trace(G2)/n absorbs the
    near-singularity of boundary-heavy Gram matrices. Requires G2 PSD.
    When both Grams split by angular frequency (see ``_angle_blocks``),
    the pencil is solved as one R x R pencil per frequency.
    """
    tol = _checked_tol(tol)
    # One kernel off the rotation route sends the pencil to the dense route,
    # so then both Grams are assembled densely from the start.
    if any(kx._circulant_shape(k, points) is None for k in (kernel1, kernel2)):
        points = points._without_spec()
    return _dominance(gram(kernel1, points), gram(kernel2, points), tol)


def _dominance(gram1: GramMatrix, gram2: GramMatrix, tol: float) -> DominanceReport:
    """The dominance report of two Grams on one grid, for a checked tol."""
    blocks2 = _angle_blocks(gram2, tol)
    blocks1 = None if blocks2 is None else _angle_blocks(gram1, tol)
    if blocks1 is None:
        # Dense route: one n x n pencil, as a stack of one.
        G1, G2 = gram1.matrix[None], gram2.matrix[None]
    else:
        G1, G2 = blocks1, blocks2
    points = gram2.point_set
    n = len(points)
    trace = float(np.sum(gram2.diagonal).real)
    jitter = JITTER_SCALE * trace / n
    # The Cholesky of G2 + jitter I certifies G2 PSD when it completes with a
    # finite diagonal and jitter + c <= tol max(1, rho_lo) / 2 (see
    # ``_certificate``); otherwise the spectrum of G2 decides.
    slack = _cholesky_slack(np.diagonal(G2, axis1=1, axis2=2).real, jitter)
    certified = jitter + slack <= 0.5 * tol * max(1.0, gram2.peak, trace / n)
    # G2 + jitter I with the bits of G2 + jitter * np.eye(m), without the
    # float identity: an entry off the diagonal gains jitter * 0.0, which
    # turns -0.0 into +0.0.
    A = G2 + jitter * 0.0
    d = np.arange(G2.shape[-1])
    A[:, d, d] = G2[:, d, d] + jitter
    singular = None
    try:
        L = np.linalg.cholesky(A)
    except np.linalg.LinAlgError as exc:
        singular = exc
    del A
    if singular or not certified or not np.isfinite(np.diagonal(L, axis1=1, axis2=2)).all():
        verdict = _verdict(np.linalg.eigvalsh(G2), tol)
        if not verdict.is_psd:
            raise ValueError(
                "dominating kernel is not PSD on the grid (min eigenvalue %.3g)"
                % verdict.min_eigenvalue
            )
    if singular is not None:
        raise np.linalg.LinAlgError(
            "Gram matrix of the dominating kernel is numerically singular even "
            "after jitter; move the grid away from the boundary"
        ) from singular
    # L^-1 (L^-1 G1)*, then (pencil* + pencil) * 0.5, all in one buffer.
    pencil = _solve_lower(L, _mirror(_solve_lower(L, G1.copy()), False))
    del L
    herm = np.multiply(0.5, _mirror(pencil, True), out=pencil)
    delta = max(float(np.max(np.linalg.eigvalsh(herm))), 0.0)
    del pencil, herm

    def gap() -> float:
        shifted = np.multiply(delta, G2)
        return float(np.min(np.linalg.eigvalsh(np.subtract(shifted, G1, out=shifted))))

    return DominanceReport(
        delta_min=delta,
        regularization_jitter=jitter,
        grid=points.provenance,
        grid_size=n,
        kernel1=gram1.kernel,
        kernel2=gram2.kernel,
        gap=gap,
    )


@dataclass(frozen=True)
class DiagonalSeries:
    """Diagonal power-series coefficients of a rotation-invariant kernel.

    ``nonnegative`` is the order-``order`` positivity verdict: every
    coefficient at least -1e-12.
    """

    coefficients: np.ndarray
    nonnegative: bool
    order: int

    def __post_init__(self):
        self.coefficients.setflags(write=False)


def diagonal_positivity_oracle(kernel: KernelExpr, order: int = 128) -> DiagonalSeries:
    """Exact positivity certificate for rotation-invariant kernels.

    Writes the kernel as sum_n c_n (conj(w) z)^n, with the coefficients
    from its ``diagonal_series`` (every symbol in it must be c z^k, else
    ValueError), and reports whether every coefficient through the given
    order is nonnegative. Positivity of the coefficients is equivalent to
    positivity of the kernel, so this oracle is grid-free.
    """
    if not (order >= 0 and order % 1 == 0):
        raise ValueError("order must be a nonnegative integer, got %r" % (order,))
    order = int(order)
    coeffs = kernel.diagonal_series(order)
    verdict = bool(np.min(coeffs) >= -ORACLE_TOL)
    return DiagonalSeries(coefficients=coeffs, nonnegative=verdict, order=order)


def _values_on(f, arr: np.ndarray) -> np.ndarray:
    if hasattr(f, "eval"):
        return np.asarray(f.eval(arr), dtype=complex)
    return np.asarray([complex(f(z)) for z in arr], dtype=complex)


def membership_check(
    f, kernel: KernelExpr, c: float, points: PointSet, tol: float = DEFAULT_TOL
) -> PsdVerdict:
    """Test the norm-bound criterion ||f|| <= c against a finite grid.

    Checks c^2 G - v v* >= 0 with v the values of f on the grid; f may be
    any evaluable symbol or plain callable. PSD means "not refuted here";
    a refutation certifies f is not in the space with norm at most c. A
    diagonal that refutes decides before any assembly (``_refuted_on_diagonal``).
    """
    c = ensure_finite(c, "norm bound c")
    if c <= 0.0:
        raise ValueError("norm bound c must be positive")
    tol = _checked_tol(tol)
    # Overflow shows as non-finite entries, which is_psd rejects.
    with np.errstate(all="ignore"):
        v = _values_on(f, points.array)

    def verdict() -> PsdVerdict:
        with np.errstate(all="ignore"):
            test = c * c * gram(kernel, points._without_spec()).matrix
            vh = v.conj()
            for s in range(0, len(v), FACTOR_BLOCK):
                test[s : s + FACTOR_BLOCK] -= np.outer(v[s : s + FACTOR_BLOCK], vh)
        return is_psd(test, tol)

    found = kx._gram_diagonal(kernel, points)
    if found is not None:
        g, bound = found
        # The diagonal of c^2 G - v v*; is_psd's (T + T*) * 0.5 keeps its real part.
        with np.errstate(all="ignore"):
            peak = float(np.max(np.abs(v)))
            found = c * c * g - (v * v.conj()).real, kx._entry_slack(c * c * bound + peak * peak)
    return _refuted_on_diagonal(found, tol, verdict) or verdict()


def multiplier_check(
    phi, kernel: KernelExpr, delta: float, points: PointSet, tol: float = DEFAULT_TOL
) -> PsdVerdict:
    """Test the multiplier-norm criterion ||M_phi|| <= delta on a grid.

    Checks (delta^2 - phi(z) conj(phi(w))) K(z, w) >= 0, assembled through
    the kernel algebra, unless its diagonal refutes it first, as in
    ``membership_check``.
    """
    delta = ensure_finite(delta, "multiplier bound delta")
    if delta <= 0.0:
        raise ValueError("multiplier bound delta must be positive")
    tol = _checked_tol(tol)
    expr = kx.Difference(
        kx.Scale(delta * delta, kernel), kx.ConjugateScale(phi, kernel)
    )

    def verdict() -> PsdVerdict:
        return is_psd(gram(expr, points), tol)

    return _refuted_on_diagonal(kx._gram_diagonal(expr, points), tol, verdict) or verdict()


def refutation_scan(
    check: Callable[[PointSet], PsdVerdict],
    radii: tuple = REFUTATION_RADII,
    angles: int = 128,
) -> Optional[tuple[PointSet, PsdVerdict]]:
    """Escalate through boundary-ward grids until a check is refuted.

    Runs ``check`` on cumulative radial grids (radii[0:1], radii[0:2], ...)
    and returns the first (grid, verdict) with a PSD failure, or None when
    every rung passes.
    """
    for k in range(1, len(radii) + 1):
        points = sample_grid(RadialGrid(radii=tuple(radii[:k]), angles=angles))
        verdict = check(points)
        if not verdict.is_psd:
            return points, verdict
    return None
