"""Positivity and dominance testing of kernels on finite point sets.

Grid verdicts are one-sided evidence: a PSD verdict means "not refuted on
this grid", while a negative eigenvalue below tolerance is a genuine
refutation. Rotation-invariant expressions additionally admit an exact
diagonal-coefficient oracle that is independent of any grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import kernels as kx
from .functions import ensure_finite
from .kernels import GramMatrix, KernelExpr, PointSet, RadialGrid, gram, sample_grid
from .specs import format_kernel

DEFAULT_TOL = 1e-9
JITTER_SCALE = 1e-12
ORACLE_TOL = 1e-12
REFUTATION_RADII = (0.5, 0.65, 0.8, 0.9, 0.95)
SOLVE_BLOCK = 64


@dataclass(frozen=True)
class PsdVerdict:
    """Outcome of a finite PSD test.

    ``is_psd`` holds exactly when
    min_eigenvalue >= -tolerance_used * max(1, spectral_norm).
    """

    is_psd: bool
    min_eigenvalue: float
    tolerance_used: float
    spectral_norm: float


@dataclass(frozen=True)
class DominanceReport:
    """Least delta with K1 <= delta K2 on a grid, from a generalized eigenproblem."""

    delta_min: float
    min_eig_at_delta: float
    regularization_jitter: float
    grid: str
    grid_size: int
    kernel1: KernelExpr
    kernel2: KernelExpr

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


def _as_matrix(G) -> np.ndarray:
    """The matrix of G, finite; an ndarray must also be square and Hermitian."""
    is_gram = isinstance(G, GramMatrix)
    M = G.matrix if is_gram else np.asarray(G, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or not M.size:
        raise ValueError("expected a nonempty square matrix")
    if is_gram:
        # A finite max |G_ij| certifies that every entry is finite.
        if not math.isfinite(G.peak):
            raise ValueError("matrix has non-finite entries")
        return M
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix has non-finite entries")
    # Entries near the float limit overflow here; the result is checked below.
    with np.errstate(over="ignore", invalid="ignore"):
        asym = float(np.max(np.abs(M - M.conj().T)))
        scale = max(1.0, float(np.max(np.abs(M))))
        sym = 0.5 * (M + M.conj().T)
    if asym > 1e-9 * scale:
        raise ValueError("matrix is not Hermitian (deviation %.3g)" % asym)
    if not np.all(np.isfinite(sym)):
        raise ValueError("matrix has non-finite entries")
    return sym


def _angle_blocks(G: GramMatrix, tol: float) -> Optional[np.ndarray]:
    """The Gram split by a DFT over the angle index, or None for the dense route.

    On a radial grid of R radii and A angles, in ``sample_grid`` order, a
    rotation-invariant kernel (one with a ``diagonal_series``) has an R x R
    array of A x A circulant blocks.
    Conjugating by the unitary DFT in the angle index turns it into A
    Hermitian R x R blocks, returned as an (A, R, R) stack with the same
    spectrum. The blocks come from the first column of each circulant
    block. They are used only when the Gram is within
    ||G - C||_F <= 0.1 tol max(1, G.peak) of the block-circulant C rebuilt
    from those columns; by Weyl's inequality no eigenvalue then moves by
    more than that.
    """
    grid = G.point_set.spec
    if not isinstance(grid, RadialGrid) or grid.size != G.size:
        return None
    # A non-finite entry would leave inf - inf in G - C; _as_matrix refuses it.
    if not math.isfinite(G.peak):
        return None
    try:
        G.kernel.diagonal_series(0)
    except ValueError:
        return None
    R, A = len(grid.radii), grid.angles
    G4 = G.matrix.reshape(R, A, R, A)
    if not math.sqrt(_circulant_dev2(G4)) <= 0.1 * tol * max(1.0, G.peak):
        return None
    blocks = np.fft.fft(G4[:, :, :, 0], axis=1).transpose(1, 0, 2)
    return 0.5 * (blocks + blocks.conj().transpose(0, 2, 1))


def _circulant_dev2(G4: np.ndarray) -> float:
    """||G - C||_F^2 for G as an (R, A, R, A) array, summed one radius at a time.

    C is the block-circulant matrix with G's first columns, C[a, p, b, q] =
    G4[a, (p - q) mod A, b, 0]. Window i of the reversed run first[a, 1:],
    first[a] holds at j the column at lag (A - 1 - i + j) mod A, so the
    flipped windows are C as a zero-copy view.
    """
    A = G4.shape[1]
    first = G4[:, :, :, 0]
    run = np.concatenate((first[:, 1:], first), axis=1)[:, ::-1]
    C = np.lib.stride_tricks.sliding_window_view(run, A, axis=1)[:, ::-1]
    dev2 = 0.0
    for a in range(len(G4)):
        diff = G4[a] - C[a]
        dev2 += float(np.vdot(diff, diff).real)
    return dev2


def _verdict(evals: np.ndarray, tol: float) -> PsdVerdict:
    lo = float(np.min(evals))
    spectral = float(max(abs(lo), abs(float(np.max(evals)))))
    # An infinite spectral norm would scale the tolerance to infinity too.
    if not math.isfinite(spectral):
        raise ValueError("eigenvalues overflow the float range")
    return PsdVerdict(
        is_psd=bool(lo >= -tol * max(1.0, spectral)),
        min_eigenvalue=lo,
        tolerance_used=tol,
        spectral_norm=spectral,
    )


def is_psd(G, tol: float = DEFAULT_TOL) -> PsdVerdict:
    """Spectral PSD test with a relative tolerance floor.

    Accepts a GramMatrix or a Hermitian ndarray, and a finite tol >= 0.
    Non-finite entries are rejected rather than propagated into an
    eigensolver. A rotation-invariant kernel's Gram on a radial grid is
    solved one angular frequency at a time (see ``_angle_blocks``).
    """
    tol = _checked_tol(tol)
    blocks = _angle_blocks(G, tol) if isinstance(G, GramMatrix) else None
    if blocks is not None:
        return _verdict(np.linalg.eigvalsh(blocks), tol)
    return _verdict(np.linalg.eigvalsh(_as_matrix(G)), tol)


def _solve_lower(L: np.ndarray, B: np.ndarray) -> np.ndarray:
    """L^-1 B for a stack of lower-triangular L, by blocked forward substitution.

    Rows are solved SOLVE_BLOCK at a time: a block's right-hand side loses
    its product with the rows already solved, then one ``np.linalg.solve``
    on the diagonal block finishes it. The products are matrix products,
    so a dense pencil runs at BLAS speed, and a stack no larger than one
    block is exactly one batched ``np.linalg.solve``.
    """
    n = L.shape[-1]
    X = np.empty(B.shape, dtype=np.result_type(L, B))
    for s in range(0, n, SOLVE_BLOCK):
        e = min(s + SOLVE_BLOCK, n)
        rhs = B[:, s:e]
        if s:
            rhs = rhs - L[:, s:e, :s] @ X[:, :s]
        X[:, s:e] = np.linalg.solve(L[:, s:e, s:e], rhs)
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
    return _dominance(gram(kernel1, points), gram(kernel2, points), tol, {})


class _SharedGrams:
    """Dominance between kernels on one grid, each Gram built once.

    The forward and inclusion checks of ``verify.verify_m1`` compare the
    same two kernels in opposite directions; through one of these they
    build each Gram once and run each route check once.
    """

    def __init__(self, points: PointSet, tol: float):
        self.points = points
        self.tol = tol
        self._grams: dict = {}
        self._routes: dict = {}

    def dominance(self, kernel1: KernelExpr, kernel2: KernelExpr) -> DominanceReport:
        tol = _checked_tol(self.tol)
        for kernel in (kernel1, kernel2):
            if kernel not in self._grams:
                self._grams[kernel] = gram(kernel, self.points)
        return _dominance(self._grams[kernel1], self._grams[kernel2], tol, self._routes)


def _dominance(
    gram1: GramMatrix, gram2: GramMatrix, tol: float, routes: dict
) -> DominanceReport:
    """The dominance report of two Grams on one grid, for a checked tol.

    ``routes`` maps each Gram already route-checked to its ``_angle_blocks``
    and gains the ones checked here.
    """

    def blocks(G: GramMatrix) -> Optional[np.ndarray]:
        if G not in routes:
            routes[G] = _angle_blocks(G, tol)
        return routes[G]

    blocks2 = blocks(gram2)
    blocks1 = None if blocks2 is None else blocks(gram1)
    if blocks1 is None:
        # Dense route: one n x n pencil, as a stack of one.
        G1, G2 = gram1.matrix[None], gram2.matrix[None]
    else:
        G1, G2 = blocks1, blocks2
    verdict2 = _verdict(np.linalg.eigvalsh(G2), tol)
    if not verdict2.is_psd:
        raise ValueError(
            "dominating kernel is not PSD on the grid (min eigenvalue %.3g)"
            % verdict2.min_eigenvalue
        )
    points = gram2.point_set
    n = len(points)
    jitter = JITTER_SCALE * float(np.trace(gram2.matrix).real) / n
    try:
        L = np.linalg.cholesky(G2 + jitter * np.eye(G2.shape[-1]))
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            "Gram matrix of the dominating kernel is numerically singular even "
            "after jitter; move the grid away from the boundary"
        ) from exc
    half = _solve_lower(L, G1)
    pencil = _solve_lower(L, half.conj().transpose(0, 2, 1))
    pencil = 0.5 * (pencil + pencil.conj().transpose(0, 2, 1))
    delta = float(np.max(np.linalg.eigvalsh(pencil)))
    delta = max(delta, 0.0)
    gap = np.linalg.eigvalsh(delta * G2 - G1)
    return DominanceReport(
        delta_min=delta,
        min_eig_at_delta=float(np.min(gap)),
        regularization_jitter=jitter,
        grid=points.provenance,
        grid_size=n,
        kernel1=gram1.kernel,
        kernel2=gram2.kernel,
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
    a refutation certifies f is not in the space with norm at most c.
    """
    c = ensure_finite(c, "norm bound c")
    if c <= 0.0:
        raise ValueError("norm bound c must be positive")
    tol = _checked_tol(tol)
    # Overflow shows as non-finite entries, which is_psd rejects.
    with np.errstate(all="ignore"):
        v = _values_on(f, points.array)
        G = gram(kernel, points).matrix
        test = c * c * G - np.outer(v, v.conj())
    return is_psd(test, tol)


def multiplier_check(
    phi, kernel: KernelExpr, delta: float, points: PointSet, tol: float = DEFAULT_TOL
) -> PsdVerdict:
    """Test the multiplier-norm criterion ||M_phi|| <= delta on a grid.

    Checks (delta^2 - phi(z) conj(phi(w))) K(z, w) >= 0, assembled through
    the kernel algebra.
    """
    delta = ensure_finite(delta, "multiplier bound delta")
    if delta <= 0.0:
        raise ValueError("multiplier bound delta must be positive")
    tol = _checked_tol(tol)
    expr = kx.Difference(
        kx.Scale(delta * delta, kernel), kx.ConjugateScale(phi, kernel)
    )
    return is_psd(gram(expr, points), tol)


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
