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
from scipy.linalg import solve_triangular

from . import kernels as kx
from .functions import BlaschkeProduct, ConstantFunction, NormalizedZeroKernel, TaylorPolynomial
from .kernels import (
    GramMatrix,
    KernelExpr,
    PointSet,
    RadialGrid,
    gram,
    sample_grid,
    weighted_bergman_coefficients,
)

DEFAULT_TOL = 1e-9
JITTER_SCALE = 1e-12
ORACLE_TOL = 1e-12
REFUTATION_RADII = (0.5, 0.65, 0.8, 0.9, 0.95)


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


def _checked_tol(tol) -> float:
    tol = float(tol)
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError("tolerance must be a finite number >= 0, got %r" % tol)
    return tol


def _as_matrix(G) -> np.ndarray:
    if isinstance(G, GramMatrix):
        return G.matrix
    M = np.asarray(G, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("expected a square matrix")
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix has non-finite entries")
    asym = float(np.max(np.abs(M - M.conj().T)))
    scale = max(1.0, float(np.max(np.abs(M)))) if M.size else 1.0
    if asym > 1e-9 * scale:
        raise ValueError("matrix is not Hermitian (deviation %.3g)" % asym)
    return 0.5 * (M + M.conj().T)


def _angle_blocks(G: GramMatrix, tol: float) -> Optional[np.ndarray]:
    """The Gram split by a DFT over the angle index, or None for the dense route.

    On a radial grid of R radii and A angles, in ``sample_grid`` order, a
    rotation-invariant kernel has an R x R array of A x A circulant blocks.
    Conjugating by the unitary DFT in the angle index turns it into A
    Hermitian R x R blocks, returned as an (A, R, R) stack with the same
    spectrum. The blocks come from the first column of each circulant
    block. They are used only when the Gram is within
    ||G - C||_F <= 0.1 tol max(1, max|G|) of the block-circulant C rebuilt
    from those columns; by Weyl's inequality no eigenvalue then moves by
    more than that.
    """
    grid = G.point_set.spec
    if not isinstance(grid, RadialGrid) or grid.size != G.size:
        return None
    try:
        _diagonal_series(G.kernel, 0)
    except ValueError:
        return None
    R, A = len(grid.radii), grid.angles
    G4 = G.matrix.reshape(R, A, R, A)
    first = G4[:, :, :, 0]
    lag = (np.arange(A)[:, None] - np.arange(A)[None, :]) % A
    dev2 = 0.0
    peak = 0.0
    for a in range(R):
        # C[p, b, q] = first[a, (p - q) mod A, b], one block-row at a time.
        diff = G4[a] - first[a][lag].transpose(0, 2, 1)
        dev2 += float(np.vdot(diff, diff).real)
        peak = max(peak, float(np.max(np.abs(G4[a]))))
    if not math.sqrt(dev2) <= 0.1 * tol * max(1.0, peak):
        return None
    blocks = np.fft.fft(first, axis=1).transpose(1, 0, 2)
    return 0.5 * (blocks + blocks.conj().transpose(0, 2, 1))


def _verdict(evals: np.ndarray, tol: float) -> PsdVerdict:
    lo = float(np.min(evals))
    spectral = float(max(abs(lo), abs(float(np.max(evals)))))
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
    M = _as_matrix(G)
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix has non-finite entries")
    return _verdict(np.linalg.eigvalsh(M), tol)


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
    gram1 = gram(kernel1, points)
    gram2 = gram(kernel2, points)
    blocks2 = _angle_blocks(gram2, tol)
    blocks1 = None if blocks2 is None else _angle_blocks(gram1, tol)
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
    n = len(points)
    jitter = JITTER_SCALE * float(np.trace(gram2.matrix).real) / n
    try:
        L = np.linalg.cholesky(G2 + jitter * np.eye(G2.shape[-1]))
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            "Gram matrix of the dominating kernel is numerically singular even "
            "after jitter; move the grid away from the boundary"
        ) from exc
    if blocks1 is None:
        half = solve_triangular(L[0], G1[0], lower=True)
        pencil = solve_triangular(L[0], half.conj().T, lower=True)[None]
    else:
        half = np.linalg.solve(L, G1)
        pencil = np.linalg.solve(L, half.conj().transpose(0, 2, 1))
    pencil = 0.5 * (pencil + pencil.conj().transpose(0, 2, 1))
    delta = float(np.max(np.linalg.eigvalsh(pencil)))
    delta = max(delta, 0.0)
    gap = np.linalg.eigvalsh(delta * G2 - G1)
    return DominanceReport(
        delta_min=delta,
        min_eig_at_delta=float(np.min(gap)),
        regularization_jitter=jitter,
        grid=points.provenance,
        grid_size=len(points),
        kernel1=kernel1,
        kernel2=kernel2,
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


def _radial_monomial(f) -> Optional[tuple[complex, int]]:
    """Decompose f as c * z^k when possible; None otherwise."""
    if isinstance(f, BlaschkeProduct):
        if all(a == 0 for a in f.zeros):
            return f.unimodular_constant, f.degree
        return None
    if isinstance(f, ConstantFunction):
        return f.value, 0
    if isinstance(f, TaylorPolynomial):
        support = [i for i, c in enumerate(f.coefficients) if c != 0]
        if len(support) == 0:
            return 0.0 + 0.0j, 0
        if len(support) == 1:
            k = support[0]
            return f.coefficients[k], k
        return None
    if isinstance(f, NormalizedZeroKernel):
        if f.value_at_zero == 0:
            return 1.0 + 0.0j, 0
        return None
    return None


def _diagonal_series(kernel: KernelExpr, order: int) -> np.ndarray:
    if isinstance(kernel, kx.Szego):
        return np.ones(order + 1)
    if isinstance(kernel, kx.WeightedBergman):
        return weighted_bergman_coefficients(kernel.alpha, order)
    if isinstance(kernel, (kx.DBR, kx.SubBergman)):
        mono = _radial_monomial(kernel.b)
        if mono is None:
            raise ValueError(
                "kernel is not rotation-invariant: symbol is not of the form c z^k"
            )
        c, k = mono
        alpha = kernel.alpha if isinstance(kernel, kx.SubBergman) else -1.0
        base = weighted_bergman_coefficients(alpha, order)
        out = base.copy()
        if k <= order:
            out[k:] -= (abs(c) ** 2) * base[: order + 1 - k]
        return out
    if isinstance(kernel, kx.Sum):
        return _diagonal_series(kernel.left, order) + _diagonal_series(
            kernel.right, order
        )
    if isinstance(kernel, kx.Difference):
        return _diagonal_series(kernel.left, order) - _diagonal_series(
            kernel.right, order
        )
    if isinstance(kernel, kx.Scale):
        return kernel.factor * _diagonal_series(kernel.operand, order)
    if isinstance(kernel, kx.SchurProduct):
        conv = np.convolve(
            _diagonal_series(kernel.left, order),
            _diagonal_series(kernel.right, order),
        )
        return conv[: order + 1]
    if isinstance(kernel, kx.ConjugateScale):
        mono = _radial_monomial(kernel.func)
        if mono is None:
            raise ValueError(
                "kernel is not rotation-invariant: conjugate-scaling symbol is "
                "not of the form c z^k"
            )
        c, k = mono
        base = _diagonal_series(kernel.operand, order)
        out = np.zeros(order + 1)
        if k <= order:
            out[k:] = (abs(c) ** 2) * base[: order + 1 - k]
        return out
    raise TypeError("not a kernel expression: %r" % (kernel,))


def diagonal_positivity_oracle(kernel: KernelExpr, order: int = 128) -> DiagonalSeries:
    """Exact positivity certificate for rotation-invariant kernels.

    Writes the kernel as sum_n c_n (conj(w) z)^n (detected symbolically
    from the expression tree; symbols must be c z^k) and reports whether
    every coefficient through the given order is nonnegative. Positivity
    of the coefficients is equivalent to positivity of the kernel, so this
    oracle is grid-free.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    coeffs = _diagonal_series(kernel, int(order))
    verdict = bool(np.min(coeffs) >= -ORACLE_TOL)
    return DiagonalSeries(coefficients=coeffs, nonnegative=verdict, order=int(order))


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
    c = float(c)
    if c <= 0.0:
        raise ValueError("norm bound c must be positive")
    tol = _checked_tol(tol)
    arr = points.array
    v = _values_on(f, arr)
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
    delta = float(delta)
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
