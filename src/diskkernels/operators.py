"""Truncated Toeplitz operators and defect square roots on weighted spaces.

All matrices act on the orthonormal monomial basis e_n = z^n/||z^n|| of the
degree-N polynomial truncation of H^2 (alpha = -1) or a weighted Bergman
space (alpha > -1). Truncation is a finite-section approximation; claims
made from these matrices should be re-checked at doubled N.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .formatting import _fmt_count
from .functions import (
    BlaschkeProduct,
    SchurFunction,
    axis_phases,
    ensure_in_disk,
    taylor_coefficients,
)
from .kernels import (
    check_dense_size,
    ensure_weight_alpha,
    weighted_bergman_coefficients,
)
from .modelspace import takenaka_malmquist

CLIP_LIMIT = 1e-8
RANGE_CUTOFF = 1e-10
RANGE_RESIDUAL = 1e-8
EIGENVECTOR_RADIUS = 0.9


def monomial_norms(alpha: float, degree: int) -> np.ndarray:
    """Squared norms ||z^n||^2 for n = 0..degree.

    alpha = -1 is the Hardy space (all ones); alpha > -1 uses
    n! Gamma(alpha + 2)/Gamma(n + alpha + 2), evaluated by recurrence.
    """
    alpha = ensure_weight_alpha(alpha)
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    check_dense_size(degree + 1, "degree %s" % _fmt_count(degree))
    return 1.0 / weighted_bergman_coefficients(alpha, degree)


@dataclass(frozen=True, eq=False)
class SpaceWeight:
    """Weight parameter alpha together with its squared monomial norms."""

    alpha: float
    norms_sq: np.ndarray

    def __post_init__(self):
        self.norms_sq.setflags(write=False)

    @classmethod
    def for_degree(cls, alpha: float, degree: int) -> "SpaceWeight":
        return cls(alpha=float(alpha), norms_sq=monomial_norms(alpha, degree))

    @property
    def degree(self) -> int:
        return len(self.norms_sq) - 1


def _check_degree(weight: SpaceWeight, degree: int) -> None:
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    if weight.degree < degree:
        raise ValueError(
            "weight covers degree %d but degree %d was requested"
            % (weight.degree, degree)
        )


@dataclass(frozen=True, eq=False)
class TruncatedToeplitz:
    """Compression of a Toeplitz operator to polynomials of degree <= N."""

    degree: int
    weight: SpaceWeight
    matrix: np.ndarray
    symbol: SchurFunction
    analytic: bool

    def __post_init__(self):
        self.matrix.setflags(write=False)


def toeplitz_analytic(
    b: SchurFunction, weight: SpaceWeight, degree: int
) -> TruncatedToeplitz:
    """Multiplication by b compressed to degree <= N (lower triangular).

    Entry (n, m) is bhat_{n-m} ||z^n||/||z^m|| in the orthonormal basis,
    with the symbol's Taylor expansion truncated at N.
    """
    _check_degree(weight, degree)
    M = _toeplitz_fill(taylor_coefficients(b, degree), weight, degree)
    return TruncatedToeplitz(
        degree=int(degree), weight=weight, matrix=M, symbol=b, analytic=True
    )


def _toeplitz_fill(coeffs: np.ndarray, weight: SpaceWeight, degree: int) -> np.ndarray:
    """Lower-triangular Toeplitz matrix of the coefficients, in coeffs' dtype.

    Entry (i, j) is coeffs[i - j] * norms[i] / norms[j] below the diagonal
    and +0.0 above it; a coefficient equal to 0 (-0.0 included) also gives
    +0.0, so printed matrices carry no negative zeros.
    """
    norms = np.sqrt(weight.norms_sq[: degree + 1])
    padded = np.zeros(2 * degree + 1, dtype=coeffs.dtype)
    padded[degree:] = np.where(coeffs == 0, 0, coeffs)
    # Window i of the reversed padding holds coeffs[degree - i - j] at j, so
    # row i of the flipped windows is coeffs[i - j], zero where j > i.
    windows = np.lib.stride_tricks.sliding_window_view(padded[::-1], degree + 1)
    M = windows[::-1] * norms[:, None]
    M /= norms
    return M


def toeplitz_coanalytic(
    b: SchurFunction, weight: SpaceWeight, degree: int
) -> TruncatedToeplitz:
    """Adjoint compression (multiplication by conj(b), upper triangular)."""
    analytic = toeplitz_analytic(b, weight, degree)
    return TruncatedToeplitz(
        degree=analytic.degree,
        weight=weight,
        matrix=analytic.matrix.conj().T.copy(),
        symbol=b,
        analytic=False,
    )


@dataclass(frozen=True, eq=False)
class DefectOperator:
    """D = I - T_b T_b* with its PSD square root S = D^(1/2).

    ``clip_magnitude`` records how much negative spectrum was clipped to
    zero when forming S; anything above 1e-8 raises at construction.
    ``sqrt_eigenvalues``/``eigenvectors`` hold the spectral data of S used
    for pseudo-inversion, ascending, with every route's (N + 1) x (N + 1)
    shapes. On the basis route of ``defect`` (finite Blaschke products on
    H^2) D has rank at most d = deg b and its null space carries exact
    zeros; the dense routes leave rounding-level eigenvalues there.
    """

    degree: int
    weight: SpaceWeight
    matrix: np.ndarray
    clip_magnitude: float
    sqrt_eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        self.matrix.setflags(write=False)
        self.sqrt_eigenvalues.setflags(write=False)
        self.eigenvectors.setflags(write=False)

    @cached_property
    def sqrt_matrix(self) -> np.ndarray:
        """S = V diag(sqrt(lambda)) V*, built on first access.

        ``range_norm`` needs only the spectral data, so S costs its N^3
        product only when read.
        """
        vecs = self.eigenvectors
        S = (vecs * self.sqrt_eigenvalues) @ vecs.conj().T
        S = 0.5 * (S + S.conj().T)
        S.setflags(write=False)
        return S

    def range_norm(self, f_taylor) -> float:
        """Norm of f in the range space M(S): ||S^+ f||.

        ``f_taylor`` are Taylor coefficients of a polynomial of degree at
        most N. Components on numerically null directions of S (eigenvalue
        below 1e-10) larger than 1e-8 mean f leaves the space: returns inf.
        """
        f_taylor = np.asarray(f_taylor, dtype=complex)
        if f_taylor.ndim != 1 or len(f_taylor) == 0:
            raise ValueError("expected a nonempty coefficient vector")
        if not np.all(np.isfinite(f_taylor)):
            raise ValueError("non-finite Taylor coefficient")
        if len(f_taylor) > self.degree + 1:
            raise ValueError(
                "coefficient vector of degree %d exceeds truncation degree %d"
                % (len(f_taylor) - 1, self.degree)
            )
        f_onb = np.zeros(self.degree + 1, dtype=complex)
        norms = np.sqrt(self.weight.norms_sq[: self.degree + 1])
        f_onb[: len(f_taylor)] = f_taylor * norms[: len(f_taylor)]
        coords = self.eigenvectors.conj().T @ f_onb
        in_range = self.sqrt_eigenvalues >= RANGE_CUTOFF
        outside = float(np.linalg.norm(coords[~in_range]))
        if outside > RANGE_RESIDUAL:
            return math.inf
        return float(np.linalg.norm(coords[in_range] / self.sqrt_eigenvalues[in_range]))


def defect(b: SchurFunction, weight: SpaceWeight, degree: int) -> DefectOperator:
    """Defect operator I - T_b T_b* and its PSD square root.

    Three routes, tried in this order; the symbol and the weight pick one.

    Real route: when ``b.reflection_axis()`` gives (omega, g), then
    b(z) = c g(conj(omega) z) with |c| = 1 and g real, so for every weight
    (the norm ratios are real) T_b = c U T_g U* with U = diag(conj(omega)^n)
    and D = U (I - T_g T_g^T) U*. One real ``eigh`` then stands in for the
    complex one. Dropping the imaginary part E of T_g is allowed because,
    with ||T_g||_2 <= 1, it moves T_g T_g* by at most 2||E||_F + ||E||_F^2,
    and by Weyl's inequality no eigenvalue moves further. The route is taken
    only when that bound is at most (N + 1) eps, the rounding level of the
    complex ``eigh`` it replaces.

    Basis route: a finite Blaschke product on H^2 (alpha = -1) has
    I - T_b T_b* = P_K, the projection onto the model space K_b, so
    D = P_N P_K P_N = E^T conj(E) with E the Takenaka-Malmquist Taylor
    matrix (d rows, ``ModelBasis.taylor_matrix``). A complete QR E^T = Q R
    gives D = Q (R R*) Q*: one k x k ``eigh`` of the top rows of R,
    k = min(d, N + 1), gives the range in the first k columns of Q, and
    the other columns span the null space, whose eigenvalues are exactly 0.

    Otherwise D is formed from T_b in complex arithmetic.
    """
    _check_degree(weight, degree)
    T = phases = Q = None
    axis = b.reflection_axis()
    if axis is not None:
        omega, g = axis
        coeffs = taylor_coefficients(g, degree)
        drift = float(np.linalg.norm(_toeplitz_fill(coeffs.imag, weight, degree)))
        if 2.0 * drift + drift * drift <= (degree + 1) * np.finfo(float).eps:
            T = _toeplitz_fill(coeffs.real, weight, degree)
            phases = axis_phases(omega, degree)
    if T is None and weight.alpha == -1.0 and isinstance(b, BlaschkeProduct):
        E = takenaka_malmquist(b).taylor_matrix(degree)
        Q, R = np.linalg.qr(E.T, mode="complete")
        R = R[: min(R.shape)]
        D = E.T @ E.conj()
    else:
        if T is None:
            T = toeplitz_analytic(b, weight, degree).matrix
        D = np.eye(degree + 1, dtype=T.dtype) - T @ T.conj().T
    D = 0.5 * (D + D.conj().T)
    evals, vecs = np.linalg.eigh(D if Q is None else R @ R.conj().T)
    if phases is not None:
        D = D * np.outer(phases, phases.conj())
        D = 0.5 * (D + D.conj().T)
        vecs = phases[:, None] * vecs
    if Q is not None:
        # Any lambda < 0 is clipped to 0 below, so the square roots stay
        # ascending with the null space first.
        k = len(evals)
        evals = np.concatenate([np.zeros(degree + 1 - k), evals])
        vecs = np.hstack([Q[:, k:], Q[:, :k] @ vecs])
    clip = float(max(0.0, -np.min(evals)))
    if clip > CLIP_LIMIT:
        raise ValueError(
            "defect operator has negative spectrum %.3g beyond the clip limit; "
            "the symbol violates the Schur bound or the truncation is too small"
            % clip
        )
    return DefectOperator(
        degree=int(degree),
        weight=weight,
        matrix=D,
        clip_magnitude=clip,
        sqrt_eigenvalues=np.sqrt(np.clip(evals, 0.0, None)),
        eigenvectors=vecs,
    )


def range_norm(f_taylor, b: SchurFunction, weight: SpaceWeight, degree: int) -> float:
    """Norm of the polynomial f in the range space of the defect square root."""
    return defect(b, weight, degree).range_norm(f_taylor)


def kernel_section_taylor(
    b: SchurFunction, alpha: float, w: complex, degree: int
) -> np.ndarray:
    """Taylor coefficients in z of the sub-Bergman kernel section at w.

    When b(z) = c g(conj(omega) z) (``b.reflection_axis()``), the section is
    U times the section of g at conj(omega) w, as in ``defect``, so both are
    built from the real coefficients of g and the same phases U.
    """
    alpha = ensure_weight_alpha(alpha)
    w = ensure_in_disk(w)
    axis = b.reflection_axis()
    if axis is not None:
        omega, g = axis
        section = _kernel_section(g, alpha, omega.conjugate() * w, degree)
        return axis_phases(omega, degree) * section
    return _kernel_section(b, alpha, w, degree)


def _kernel_section(b, alpha: float, w: complex, degree: int) -> np.ndarray:
    bw = complex(b.eval(w))
    numer = -np.conj(bw) * taylor_coefficients(b, degree)
    numer[0] += 1.0
    base = weighted_bergman_coefficients(alpha, degree) * (
        np.conj(w) ** np.arange(degree + 1)
    )
    return np.convolve(numer, base)[: degree + 1]


def eigenvector_check(
    b: SchurFunction, weight: SpaceWeight, degree: int, w: complex
) -> float:
    """Relative residual of T_b* applied to a truncated kernel section.

    The section kappa_w (coefficients conj(w)^n/||z^n|| in the orthonormal
    basis) is an eigenvector of the co-analytic compression with eigenvalue
    conj(b(w)) up to truncation tail; returns
    ||T_b* kappa - conj(b(w)) kappa|| / ||kappa||. Restricted to |w| <= 0.9
    so the tail stays meaningful at moderate N.
    """
    w = ensure_in_disk(w)
    if abs(w) > EIGENVECTOR_RADIUS:
        raise ValueError("kernel-section points are restricted to |w| <= 0.9")
    _check_degree(weight, degree)
    norms = np.sqrt(weight.norms_sq[: degree + 1])
    kappa = np.conj(w) ** np.arange(degree + 1) / norms
    # (T_b* kappa)_m = sum_{n >= m} conj(bhat_{n-m}) (||z^n||/||z^m||) kappa_n:
    # the lags 0..N of one correlation, which conjugates its second argument.
    coeffs = taylor_coefficients(b, degree)
    adjoint = np.correlate(norms * kappa, coeffs, "full")[degree:] / norms
    bw = complex(b.eval(w))
    residual = adjoint - np.conj(bw) * kappa
    return float(np.linalg.norm(residual) / np.linalg.norm(kappa))


def write_matrix_cells(op: TruncatedToeplitz, fh, lineterminator: str = "\r\n") -> None:
    """Write the matrix as CSV rows of quoted "re,im" cells to an open text stream.

    Each part is printed with 17 significant digits, as ``fmt_real`` does.
    Such text never holds a quote or a line break, so quoting every cell is
    all the CSV escaping it needs, and one format string prints a row.
    """
    matrix = np.ascontiguousarray(op.matrix)
    row_format = ",".join(['"%.17g,%.17g"'] * matrix.shape[1]) + lineterminator
    for row in matrix:
        # A contiguous complex row viewed as float64 alternates re and im.
        fh.write(row_format % tuple(row.view(np.float64).tolist()))


def write_matrix_csv(op: TruncatedToeplitz, path: str) -> None:
    """Dump the matrix as CSV of "re,im" cells plus a JSON sidecar.

    The sidecar (same path with .json appended) records dimensions, the
    weight parameter, and the basis convention.
    """
    with open(path, "w", newline="") as fh:
        write_matrix_cells(op, fh)
    sidecar = {
        "rows": op.matrix.shape[0],
        "cols": op.matrix.shape[1],
        "alpha": op.weight.alpha,
        "kind": "analytic" if op.analytic else "coanalytic",
        "basis": "orthonormal monomials z^n/||z^n||_alpha, degree 0..N",
        "cell": "re,im",
    }
    with open(path + ".json", "w") as fh:
        json.dump(sidecar, fh, sort_keys=True, indent=2)
        fh.write("\n")
