"""Closed-form reproducing kernels on the unit disk and their algebra.

Leaves: Szego, weighted Bergman, de Branges-Rovnyak, sub-Bergman.
Nodes: sum, entrywise (Schur) product, nonnegative scaling, difference,
conjugate scaling by a symbol. Kernel expressions evaluate pointwise and
assemble Hermitian Gram matrices over validated point sets.

Every node has ``eval(z, w)`` and ``diagonal_series(order)``, the c_0..c_order
of a kernel sum_n c_n (conj(w) z)^n; the latter raises ValueError when a
symbol in the tree is not c z^k (its ``monomial()`` is None).
"""

from __future__ import annotations

import copy
import math
import os
import threading
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .formatting import _fmt_count, _fmt_gigabytes
from .functions import SchurFunction, UnitDiskError, ensure_finite, radial_points

MIN_SEPARATION = 1e-10
HERMITIAN_TOL = 1e-12
# Entries held by the strips of a Gram assembly in flight at once (see
# ``_strip_plan``); a Gram of no more entries, a grid of up to 256 points,
# is one strip.
GRAM_STRIP_ENTRIES = 1 << 16
# Largest dense complex n x n matrix a grid or truncation degree may ask for
# (n = 4096, 256 MiB). Beside its two Grams a dense dominance pencil holds at
# most three such matrices at once; a certified PSD check holds about half of
# one, and one more for the symmetrized copy of an ndarray. A Gram of the
# rotation route holds none until its ``matrix`` is read: its strips in
# flight and its first columns come to about a quarter of one at n = 1600.
MAX_DENSE_BYTES = 1 << 28


@dataclass(frozen=True)
class Szego:
    """k(z, w) = 1/(1 - conj(w) z), the reproducing kernel of H^2."""

    def eval(self, z, w):
        z = np.asarray(z, dtype=complex)
        w = np.asarray(w, dtype=complex)
        return 1.0 / (1.0 - np.conj(w) * z)

    def diagonal_series(self, order):
        return np.ones(order + 1)


@dataclass(frozen=True)
class WeightedBergman:
    """k(z, w) = 1/(1 - conj(w) z)^(alpha + 2); alpha = -1 recovers Szego."""

    alpha: float

    def __post_init__(self):
        object.__setattr__(self, "alpha", ensure_weight_alpha(self.alpha))

    def eval(self, z, w):
        z = np.asarray(z, dtype=complex)
        w = np.asarray(w, dtype=complex)
        return _power(1.0 - np.conj(w) * z, -(self.alpha + 2.0))

    def diagonal_series(self, order):
        return weighted_bergman_coefficients(self.alpha, order)


@dataclass(frozen=True)
class DBR:
    """de Branges-Rovnyak kernel (1 - conj(b(w)) b(z))/(1 - conj(w) z)."""

    b: SchurFunction

    def eval(self, z, w):
        z = np.asarray(z, dtype=complex)
        w = np.asarray(w, dtype=complex)
        bw, bz = _symbol_values(self.b, z, w)
        return (1.0 - np.conj(bw) * bz) / (1.0 - np.conj(w) * z)

    def diagonal_series(self, order):
        mono = _symbol_monomial(self.b, "symbol")
        base = weighted_bergman_coefficients(-1.0, order)
        return base - _shifted(base, mono)


@dataclass(frozen=True)
class SubBergman:
    """Sub-Bergman kernel (1 - conj(b(w)) b(z))/(1 - conj(w) z)^(alpha + 2)."""

    b: SchurFunction
    alpha: float

    def __post_init__(self):
        alpha = ensure_finite(self.alpha, "alpha")
        object.__setattr__(self, "alpha", alpha)
        if alpha < 0.0:
            raise ValueError("alpha must be nonnegative")

    def eval(self, z, w):
        z = np.asarray(z, dtype=complex)
        w = np.asarray(w, dtype=complex)
        bw, bz = _symbol_values(self.b, z, w)
        return (1.0 - np.conj(bw) * bz) * _power(
            1.0 - np.conj(w) * z, -(self.alpha + 2.0)
        )

    def diagonal_series(self, order):
        mono = _symbol_monomial(self.b, "symbol")
        base = weighted_bergman_coefficients(self.alpha, order)
        return base - _shifted(base, mono)


@dataclass(frozen=True)
class Sum:
    left: "KernelExpr"
    right: "KernelExpr"

    def eval(self, z, w):
        return self.left.eval(z, w) + self.right.eval(z, w)

    def diagonal_series(self, order):
        return self.left.diagonal_series(order) + self.right.diagonal_series(order)


@dataclass(frozen=True)
class SchurProduct:
    """Entrywise product of two kernels (PSD-preserving)."""

    left: "KernelExpr"
    right: "KernelExpr"

    def eval(self, z, w):
        return self.left.eval(z, w) * self.right.eval(z, w)

    def diagonal_series(self, order):
        conv = np.convolve(
            self.left.diagonal_series(order), self.right.diagonal_series(order)
        )
        return conv[: order + 1]


@dataclass(frozen=True)
class Scale:
    """Nonnegative scalar multiple of a kernel."""

    factor: float
    operand: "KernelExpr"

    def __post_init__(self):
        factor = ensure_finite(self.factor, "scale factor")
        object.__setattr__(self, "factor", factor)
        if factor < 0.0:
            raise ValueError("scale factor must be nonnegative")

    def eval(self, z, w):
        return self.factor * self.operand.eval(z, w)

    def diagonal_series(self, order):
        return self.factor * self.operand.diagonal_series(order)


@dataclass(frozen=True)
class Difference:
    """Kernel difference left - right (not PSD-preserving in general)."""

    left: "KernelExpr"
    right: "KernelExpr"

    def eval(self, z, w):
        return self.left.eval(z, w) - self.right.eval(z, w)

    def diagonal_series(self, order):
        return self.left.diagonal_series(order) - self.right.diagonal_series(order)


@dataclass(frozen=True)
class ConjugateScale:
    """f(z) conj(f(w)) K(z, w) for a bounded symbol f (PSD-preserving)."""

    func: object
    operand: "KernelExpr"

    def eval(self, z, w):
        fw, fz = _symbol_values(
            self.func, np.asarray(z, dtype=complex), np.asarray(w, dtype=complex)
        )
        return fz * np.conj(fw) * self.operand.eval(z, w)

    def diagonal_series(self, order):
        mono = _symbol_monomial(self.func, "conjugate-scaling symbol")
        return _shifted(self.operand.diagonal_series(order), mono)


KernelExpr = Union[
    Szego, WeightedBergman, DBR, SubBergman,
    Sum, SchurProduct, Scale, Difference, ConjugateScale,
]

_LEAF_TYPES = (Szego, WeightedBergman, DBR, SubBergman)


def _symbol_values(f, z, w) -> tuple:
    """(f(w), f(z)), w first.

    The first strip of a Gram assembly has every point in w, so a symbol
    that refuses a point does it there, with the message it gives on the
    whole grid.
    """
    fw = f.eval(w)
    return fw, f.eval(z)


def _power(base, p: float):
    """base ** p for complex base with positive real part, as 1 - conj(w) z has.

    An integer p keeps numpy's complex power. Any other p takes the real
    form |base|^p (cos + i sin)(p arg base), which is about three times
    faster than complex pow and agrees with it to a few units in the last
    place.
    """
    if p.is_integer():
        return base ** p
    mag = np.abs(base) ** p
    phase = p * np.angle(base)
    out = np.empty(np.shape(mag), dtype=complex)
    np.multiply(mag, np.cos(phase), out=out.real)
    np.multiply(mag, np.sin(phase), out=out.imag)
    return out


def _symbol_monomial(f, role: str) -> tuple:
    """(c, k) with f = c z^k, else ValueError naming the symbol's role.

    A symbol without ``monomial()``, such as a plain object with ``eval``,
    is not of that form.
    """
    mono = f.monomial() if hasattr(f, "monomial") else None
    if mono is None:
        raise ValueError(
            "kernel is not rotation-invariant: %s is not of the form c z^k" % role
        )
    return mono


def _shifted(series: np.ndarray, mono: tuple) -> np.ndarray:
    """|c|^2 times the series shifted right by k, for a symbol c z^k."""
    c, k = mono
    out = np.zeros(len(series))
    if k < len(series):
        out[k:] = (abs(c) ** 2) * series[: len(series) - k]
    return out


def is_positivity_preserving(kernel: KernelExpr) -> bool:
    """True when the expression contains no Difference node."""
    if isinstance(kernel, _LEAF_TYPES):
        return True
    if isinstance(kernel, Difference):
        return False
    if isinstance(kernel, (Sum, SchurProduct)):
        return is_positivity_preserving(kernel.left) and is_positivity_preserving(
            kernel.right
        )
    if isinstance(kernel, (Scale, ConjugateScale)):
        return is_positivity_preserving(kernel.operand)
    raise TypeError("not a kernel expression: %r" % (kernel,))


def eval_kernel(kernel: KernelExpr, z: complex, w: complex) -> complex:
    """Evaluate a kernel at a pair of points strictly inside the disk."""
    z, w = complex(z), complex(w)
    if not (abs(z) < 1.0 and abs(w) < 1.0):
        raise UnitDiskError("kernel arguments must lie strictly inside the unit disk")
    return complex(kernel.eval(z, w))


def check_dense_size(n: int, what: str) -> None:
    """Refuse a size whose dense n x n complex matrix exceeds MAX_DENSE_BYTES.

    Runs before anything of that size is allocated, so an oversized grid or
    degree fails with a message instead of a MemoryError or a swap storm.
    """
    need = 16 * n * n
    if need > MAX_DENSE_BYTES:
        raise ValueError(
            "%s needs a %s x %s complex matrix (%s GB), above the limit of %s GB"
            % (
                what,
                _fmt_count(n),
                _fmt_count(n),
                _fmt_gigabytes(need),
                _fmt_gigabytes(MAX_DENSE_BYTES),
            )
        )


def ensure_weight_alpha(alpha) -> float:
    """Validate a weight parameter: finite and at least -1 (-1 is H^2)."""
    alpha = ensure_finite(alpha, "alpha")
    if alpha < -1.0:
        raise ValueError("alpha must be at least -1")
    return alpha


def weighted_bergman_coefficients(alpha: float, order: int) -> np.ndarray:
    """Diagonal power-series coefficients of (1 - x)^(-(alpha + 2)).

    Entry n equals 1/||z^n||^2 in the weighted Bergman space of parameter
    alpha; computed by recurrence so large orders do not overflow.
    """
    p = float(alpha) + 2.0
    out = np.empty(order + 1, dtype=float)
    out[0] = 1.0
    for n in range(order):
        out[n + 1] = out[n] * (n + p) / (n + 1.0)
    return out


@dataclass(frozen=True)
class RadialGrid:
    """Points r * exp(2 pi i k/angles) for each listed radius."""

    radii: tuple
    angles: int

    def __post_init__(self):
        radii = tuple(float(r) for r in self.radii)
        angles = int(self.angles)
        object.__setattr__(self, "radii", radii)
        object.__setattr__(self, "angles", angles)
        if len(radii) == 0:
            raise ValueError("need at least one radius")
        if any(not 0.0 < r < 1.0 for r in radii):
            raise UnitDiskError("grid radii must lie in (0, 1)")
        if len(set(radii)) != len(radii):
            raise ValueError("grid radii must be distinct")
        if angles < 1:
            raise ValueError("need at least one angle")
        check_dense_size(self.size, "a grid of %s points" % _fmt_count(self.size))

    @property
    def size(self) -> int:
        return len(self.radii) * self.angles


@dataclass(frozen=True)
class RandomGrid:
    """Seeded pseudo-random points, area-uniform on the disk of radius rmax."""

    count: int
    rmax: float
    seed: int

    def __post_init__(self):
        count = int(self.count)
        rmax = float(self.rmax)
        seed = int(self.seed)
        object.__setattr__(self, "count", count)
        object.__setattr__(self, "rmax", rmax)
        object.__setattr__(self, "seed", seed)
        if count < 1:
            raise ValueError("need at least one point")
        if not 0.0 < rmax < 1.0:
            raise UnitDiskError("rmax must lie in (0, 1)")
        if seed < 0:
            raise ValueError("seed must be nonnegative")
        check_dense_size(count, "a grid of %s points" % _fmt_count(count))
        # Disks of diameter eps = MIN_SEPARATION around the points are disjoint
        # and lie in the disk of radius rmax + eps / 2, so at most
        # fit = ((2 rmax + eps) / eps)^2 points fit. Rejection sampling is
        # random sequential adsorption, which jams once it covers 0.547 of the
        # plane (Feder 1980); in a disk it stalls near fit / 2, so more points
        # than that are refused.
        eps = MIN_SEPARATION
        fit = ((2.0 * rmax + eps) / eps) ** 2
        if count > max(1.0, 0.5 * fit):
            raise ValueError(_crowded_message(
                self, "at most %d fit, and rejection sampling stalls above half of that" % fit
            ))

    @property
    def size(self) -> int:
        return self.count


def _crowded_message(spec: RandomGrid, reason: str) -> str:
    return "cannot sample %s points %g apart within radius %r: %s" % (
        _fmt_count(spec.count), MIN_SEPARATION, spec.rmax, reason
    )


GridSpec = Union[RadialGrid, RandomGrid]


@dataclass(frozen=True)
class PointSet:
    """Ordered distinct points strictly inside the disk, with provenance.

    ``array`` holds the points as one read-only complex array, converted once.
    ``provenance`` is the canonical grid spec string, or "explicit" for
    directly supplied points. ``spec`` is the grid spec the points were
    sampled from, in ``sample_grid`` order; it takes no part in equality.
    """

    points: tuple
    provenance: str = "explicit"
    spec: Optional[GridSpec] = field(default=None, compare=False, repr=False)
    array: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        arr = np.array(self.points, dtype=complex)
        if arr.ndim != 1:
            raise TypeError("points must be a flat sequence of numbers")
        arr.setflags(write=False)
        object.__setattr__(self, "array", arr)
        object.__setattr__(self, "points", tuple(arr.tolist()))
        if len(arr) == 0:
            raise ValueError("a point set must be nonempty")
        if not np.max(np.abs(arr)) < 1.0:
            raise UnitDiskError("points must lie strictly inside the unit disk")
        if _first_crowded(arr) is not None:
            raise ValueError(
                "points closer than %g are considered coincident" % MIN_SEPARATION
            )

    def __len__(self) -> int:
        return len(self.points)

    def _without_spec(self) -> "PointSet":
        """These points with no grid spec, not checked again: their Grams are dense."""
        bare = copy.copy(self)
        object.__setattr__(bare, "spec", None)
        return bare


def sample_grid(spec: GridSpec) -> PointSet:
    """Materialize a grid spec into a PointSet (deterministic for a fixed spec)."""
    from . import specs  # imported here because specs imports this module
    if isinstance(spec, RadialGrid):
        pts = radial_points(spec.radii, spec.angles)
    elif isinstance(spec, RandomGrid):
        pts = _random_points(spec)
    else:
        raise TypeError("not a grid spec: %r" % (spec,))
    return PointSet(pts, provenance=specs.format_grid(spec), spec=spec)


def _first_crowded(pts: np.ndarray) -> Optional[int]:
    """Smallest i with |pts[i] - pts[j]| < MIN_SEPARATION for some j < i, or None.

    The one place that compares pairs of points. Sorted by real part, a pair
    closer than MIN_SEPARATION is d places apart for some lag d, and its real
    parts differ by less than MIN_SEPARATION: |fl(re a - re b)| is at most
    fl|a - b|, the real part of the same difference. On sorted reals the
    lag-(d + 1) gaps are no smaller than the lag-d ones, so the sweep over
    d = 1, 2, ... stops at the first lag with no gap that small, and only
    the pairs with such a gap have their distance computed. That distance
    is |a - b| with the bits of any other order of the pair. Points spread
    in real part take a few lags; n points on one vertical line take n.
    """
    eps = MIN_SEPARATION  # read per call, so a patched value is honoured
    order = np.argsort(pts.real, kind="stable")
    s = pts[order]
    x = pts.real[order]
    first = len(s)
    for d in range(1, len(s)):
        near = np.flatnonzero(x[d:] - x[:-d] < eps)
        if len(near) == 0:
            break
        close = near[np.abs(s[near + d] - s[near]) < eps]
        if len(close):
            later = np.maximum(order[close], order[close + d])
            first = min(first, int(np.min(later)))
    return first if first < len(s) else None


def _random_points(spec: RandomGrid) -> np.ndarray:
    """The points of a random grid, by rejection on a deterministic stream.

    Each candidate is the next two uniforms u, v of the stream, at radius
    rmax sqrt(u) and angle 2 pi v, and is kept when it lies at least
    MIN_SEPARATION from every point kept before it. Candidates are drawn
    as many at a time as points are missing; the first one too close to an
    earlier point is dropped, the draws after it move up, and the rest is
    checked again. Sampling gives up at the (64 count)-th refused draw:
    ``RandomGrid`` refuses grids with more than half the points that fit,
    and some grids below that still stall.
    """
    rng = np.random.default_rng(spec.seed)
    pts = np.empty(spec.count, dtype=complex)
    k = m = 0  # pts[:k] are kept; pts[k:k + m] are drawn and not yet checked
    refused = 0
    while k < spec.count:
        if m == 0:
            m = spec.count - k
            u = rng.random((m, 2))
            radius = spec.rmax * np.sqrt(u[:, 0])
            angle = 2.0 * np.pi * u[:, 1]
            pts.real[k:] = radius * np.cos(angle)
            pts.imag[k:] = radius * np.sin(angle)
        crowded = _first_crowded(pts[: k + m])
        if crowded is None:
            k, m = k + m, 0
        else:
            refused += 1
            if refused == 64 * spec.count:
                raise ValueError(_crowded_message(spec, "%d draws were refused" % refused))
            m -= crowded - k + 1
            k = crowded
            pts[k : k + m] = pts[k + 1 : k + 1 + m]
    return pts


def default_grid() -> PointSet:
    """Five radii up to 0.9, sixteen angles each: the 80-point default grid."""
    return sample_grid(RadialGrid(radii=(0.2, 0.4, 0.6, 0.8, 0.9), angles=16))


class GramMatrix:
    """Hermitian-symmetrized kernel Gram matrix over a point set.

    ``peak`` is max |G_ij|, NaN when an entry is NaN; ``gram`` fills it
    during assembly, and a GramMatrix built directly computes it.
    ``diagonal`` holds the G_ii.

    A Gram that ``gram`` assembles on the rotation route holds no n x n
    matrix: its first read of ``matrix`` assembles it off the route, with
    the same bits. What the route reads is kept instead, as ``_circulant``
    = (first, dev2): the first column of each A x A block as an (R, A, R)
    array, and ||G - C||_F^2 for the block-circulant C they define (see
    ``_circulant_window``). Any other Gram has ``_circulant`` None.
    """

    def __init__(self, matrix, point_set, kernel, asymmetry, peak=None):
        matrix.setflags(write=False)
        if peak is None:
            with np.errstate(all="ignore"):
                peak = float(np.max(np.abs(matrix), initial=0.0))
        self._matrix = matrix
        self.point_set = point_set
        self.kernel = kernel
        self.asymmetry = asymmetry
        self.peak = peak
        self._diagonal = None
        self._circulant = None

    @classmethod
    def _routed(cls, point_set, kernel, asymmetry, peak, diagonal, circulant):
        """A Gram of the rotation route; ``matrix`` is assembled when first read."""
        G = cls.__new__(cls)
        diagonal.setflags(write=False)
        G._matrix = None
        G.point_set = point_set
        G.kernel = kernel
        G.asymmetry = asymmetry
        G.peak = peak
        G._diagonal = diagonal
        G._circulant = circulant
        return G

    @property
    def matrix(self) -> np.ndarray:
        if self._matrix is None:
            self._matrix = _gram(self.kernel, self.point_set, None).matrix
        return self._matrix

    @property
    def diagonal(self) -> np.ndarray:
        return self.matrix.diagonal() if self._diagonal is None else self._diagonal

    @property
    def size(self) -> int:
        return self.matrix.shape[0] if self._diagonal is None else len(self._diagonal)


def gram(kernel: KernelExpr, points: PointSet) -> GramMatrix:
    """Assemble G[i, j] = K(p_i, p_j) and symmetrize to (G + G*)/2.

    Raises when an entry is not finite, or when the raw evaluation deviates
    from conjugate symmetry by more than 1e-12 relative to the largest entry.

    The kernel is evaluated one strip of rows at a time, and every pair of
    points once: for rows s:e, X = K(p[s:e], p[s:]) is the diagonal block
    and the strip right of it, and L = K(p[e:], p[s:e]) the strip below it.
    While they are in cache, Y* (the diagonal block of X conjugate-transposed,
    then L*) gives max |X - Y*|, G[s:e, s:] = (X + Y*) * 0.5 and its peak,
    and G[e:, s:e] = (L + X_off*) * 0.5 with X_off = X right of the block.
    These are the operands of (raw + raw*) * 0.5 on the whole matrix, so the
    bits are the same; conjugating the upper strip into the lower one would
    not do, as it flips the sign of zero imaginary parts. |raw - raw*| and |G|
    are equal at (i, j) and (j, i), so their maxima are taken on the upper
    strips only, and collected in an array because Python's max() drops NaN
    where np.max keeps it: a non-finite entry, or a sum that overflows,
    leaves the peak non-finite. No n x n matrix but G itself is allocated.

    Strips are independent: each writes only its own rows and columns of G
    and its own slot of the maxima. So they are spread over up to W threads,
    W the CPUs the process may run on (``_gram_workers``, ``_strip_plan``),
    and G, its asymmetry and its peak have the same bits for any W (see
    ``_run_strips``).

    On the rotation route (``_circulant_shape``) a Gram of more than one
    strip allocates no n x n matrix at all. The first column of each A x A
    block is evaluated first, 2 R n entries (``_first_columns``). Each
    strip then keeps its upper rows only while ``_circulant_rows``
    compares them with the block-circulant C they define, and leaves the
    diagonal and each row's share of ||G - C||_F^2, which sum to the same
    value for any W; L only serves Y*. The GramMatrix keeps those, and
    builds ``matrix`` by the dense assembly when it is first read.
    """
    return _gram(kernel, points, _circulant_shape(kernel, points))


def _circulant_shape(kernel: KernelExpr, points: PointSet) -> Optional[tuple]:
    """(R, A) when a Gram of the kernel on the points takes the rotation route, else None.

    The points must come from ``sample_grid`` on a radial grid of R radii
    and A angles, and the kernel must be rotation-invariant: one whose
    ``diagonal_series`` exists, every symbol in it being c z^k. Its Gram is
    then an R x R array of A x A blocks that are circulant up to rounding.
    """
    grid = points.spec
    if not isinstance(grid, RadialGrid) or grid.size != len(points):
        return None
    if not hasattr(kernel, "diagonal_series"):
        return None
    try:
        kernel.diagonal_series(0)
    except ValueError:
        return None
    return len(grid.radii), grid.angles


def _gram(kernel: KernelExpr, points: PointSet, shape: Optional[tuple]) -> GramMatrix:
    """``gram`` on the rotation route for a ``shape`` (R, A), densely for None.

    A Gram of one strip, or of fewer than 5 angles, is dense either way, and
    ``psd._angle_blocks`` reads the route's columns off its matrix: one
    strip is the whole matrix at once, and with few angles the route would
    hold more than the matrix.
    """
    n = len(points)
    check_dense_size(n, "a Gram matrix of %s points" % _fmt_count(n))
    arr = points.array
    rows, threads = _strip_plan(n, _gram_workers())
    # The route holds the first columns and their windows in place of the
    # matrix, R n + 2 R^2 (2 A - 1) entries against n^2: fewer from A = 5 on.
    routed = (
        shape is not None
        and rows < n
        and shape[0] * n + 2 * shape[0] ** 2 * (2 * shape[1] - 1) < n * n
    )
    if routed:
        A = shape[1]
        first = _first_columns(kernel, arr, A)
        window, drop = _circulant_window(first), _circulant_drop(A)
        diagonal = np.empty(n, dtype=complex)
        dev2 = np.empty(n)
        # One room per thread, reused strip after strip: a strip's padded
        # rows, and twice that for Y* and then the terms of _circulant_rows.
        rooms = list(np.empty((threads, 3, rows * n), dtype=complex))
    else:
        sym = np.empty((n, n), dtype=complex)
    starts = range(0, n, rows)
    asyms = np.empty(len(starts))
    peaks = np.empty(len(starts))

    def strip(k: int) -> None:
        s = starts[k]
        e = min(s + rows, n)
        h = e - s
        X = np.asarray(kernel.eval(arr[s:e, None], arr[None, s:]), dtype=complex)
        if routed:
            # The rows from the first column of their first radius on.
            room = rooms.pop()
            c0 = s - s % A
            padded = room[0, : h * (n - c0)].reshape(h, n - c0)
            padded[:, : s - c0] = 0.0
            upper = padded[:, s - c0 :]
            spare = room[1:].reshape(-1)[: 2 * padded.size]
            Yh = spare[: X.size].reshape(X.shape)
        else:
            upper = sym[s:e, s:]
            Yh = np.empty_like(X)
        np.conjugate(X[:, :h].T, out=Yh[:, :h])
        if e < n:
            L = np.asarray(kernel.eval(arr[e:, None], arr[None, s:e]), dtype=complex)
            np.conjugate(L.T, out=Yh[:, h:])
            if not routed:
                lower = sym[e:, s:e]
                np.conjugate(X[:, h:].T, out=lower)
                np.add(L, lower, out=lower)
                np.multiply(lower, 0.5, out=lower)
        np.add(X, Yh, out=upper)
        np.multiply(upper, 0.5, out=upper)
        peaks[k] = np.max(np.abs(upper))
        asyms[k] = np.max(np.abs(np.subtract(X, Yh, out=Yh)))
        if routed:
            X = Yh = L = None
            diagonal[s:e] = upper.diagonal()
            dev2[s:e] = _circulant_rows(window, drop, padded, s, spare)
            rooms.append(room)

    _run_strips(strip, len(starts), threads)
    asym, peak = float(np.max(asyms)), float(np.max(peaks))
    if not math.isfinite(peak):
        raise ValueError("kernel evaluation has non-finite entries")
    scale = max(1.0, peak)
    if asym > HERMITIAN_TOL * scale:
        raise ValueError(
            "kernel evaluation is not conjugate-symmetric (deviation %.3g)" % asym
        )
    if routed:
        return GramMatrix._routed(
            points, kernel, asym, peak, diagonal, (first, float(np.sum(dev2)))
        )
    return GramMatrix(
        matrix=sym, point_set=points, kernel=kernel, asymmetry=asym, peak=peak
    )


def _first_columns(kernel: KernelExpr, arr: np.ndarray, A: int) -> np.ndarray:
    """G[:, b A] for each radius b, the first columns of the A x A blocks, as (R, A, R).

    K(p_bA, p) and K(p, p_bA) are evaluated for all points p, 2 R n
    entries, the first with every point in w, as in the first strip, and
    symmetrized by the strips' expression, so each entry has their bits.
    Non-finite values are left for the strips to report.
    """
    cols = arr[::A]
    R = len(cols)
    with np.errstate(all="ignore"):
        top = np.asarray(kernel.eval(cols[:, None], arr[None, :]), dtype=complex)
        left = np.asarray(kernel.eval(arr[:, None], cols[None, :]), dtype=complex)
        first = np.add(left, np.conjugate(top).T, out=np.empty_like(left))
        np.multiply(first, 0.5, out=first)
    return first.reshape(R, A, R)


def _circulant_window(first: np.ndarray) -> np.ndarray:
    """The block-circulant matrix C of first columns ``first`` (R, A, R), as zero-copy windows.

    C[(a, p), (b, q)] = first[a, (p - q) mod A, b] on the points a A + p.
    With E, first[:, 1:] followed by first along axis 1, E[a, k] =
    first[a, (k - A + 1) mod A]. F[0, a, b] is E[a, :, b] reversed and
    F[1, a, b] is conj(E[b, :, a]), so the length-A windows of F along its
    last axis, starting A - 1 - p entries in, give the (2, R, A, R, A) view

        W[0, a, p, b, q] = C[(a, p), (b, q)],
        W[1, a, p, b, q] = conj(C[(b, q), (a, p)]),

    as ``operators._toeplitz_fill`` builds a Toeplitz matrix. Along q both
    step one entry forward.
    """
    R, A = first.shape[:2]
    E = np.concatenate((first[:, 1:], first), axis=1)
    F = np.empty((2, R, R, 2 * A - 1), dtype=complex)
    F[0] = E[:, ::-1].transpose(0, 2, 1)
    np.conjugate(E.transpose(2, 0, 1), out=F[1])
    windows = np.lib.stride_tricks.sliding_window_view(F, A, axis=3)
    return windows.transpose(0, 1, 3, 2, 4)[:, :, ::-1]


def _circulant_dev2(G4: np.ndarray) -> float:
    """||G - C||_F^2 for G as an (R, A, R, A) array, summed one radius at a time.

    C is the block-circulant matrix with G's first columns (see
    ``_circulant_window``); each radius's rows take one ``np.vdot``.
    """
    C = _circulant_window(G4[:, :, :, 0])[0]
    dev2 = 0.0
    for a in range(len(G4)):
        diff = np.subtract(G4[a], C[a], order="C")
        dev2 += float(np.vdot(diff, diff).real)
    return dev2


def _circulant_drop(A: int) -> np.ndarray:
    """drop[0, p, q] = q < p and drop[1, p, q] = q <= p, as a read-only (2, A, A) view.

    Row p of a radius leaves out the columns q < p of its own A x A block,
    and q <= p for the transposed term of ``_circulant_rows``. Row p of
    drop[c] is the window from A - 1 - p on of A - 1 + c ones followed by
    zeros, so the view holds 4 A entries.
    """
    ramp = np.arange(2 * A) < np.array([[A - 1], [A]])
    return np.lib.stride_tricks.sliding_window_view(ramp, A, axis=1)[:, A - 1 :: -1]


def _circulant_rows(
    window: np.ndarray, drop: np.ndarray, padded: np.ndarray, s: int, spare: np.ndarray
) -> np.ndarray:
    """Each row's share of ||G - C||_F^2, for the rows s:s+h of a Gram.

    ``window`` is ``_circulant_window`` of the first columns and ``drop``
    is ``_circulant_drop(A)``. ``padded`` holds G's rows s:s+h from column
    c0 on, c0 the first column of row s's radius, with zeros before column
    s. ``spare``, of 2 ``padded.size`` entries, is scratch.

    Row i's share is sum_(j >= i) |G_ij - C_ij|^2 + sum_(j > i) |G_ij -
    conj(C_ji)|^2, the second term being |G_ji - C_ji|^2 as G is
    Hermitian, so the shares of all rows add up to ||G - C||_F^2 and read
    only G's upper triangle. The rows of each radius a take both terms in
    one subtraction, on the columns from a A on, and the terms ``drop``
    marks, left of each row's start, are set to zero. A row's terms then
    depend only on the row, and so does its share, one ``np.einsum`` sum
    over the row's two terms, whatever strips the rows are split into.
    """
    R, A = window.shape[1:3]
    h, m = padded.shape
    c0 = R * A - m
    out = np.empty(h)
    for a in range(s // A, (s + h - 1) // A + 1):
        lo, hi = max(s, a * A), min(s + h, a * A + A)
        p0, p1 = lo - a * A, hi - a * A
        block = padded[lo - s : hi - s, a * A - c0 :].reshape(hi - lo, R - a, A)
        terms = np.subtract(
            block,
            window[:, a, p0:p1, a:],
            out=spare[: 2 * block.size].reshape((2,) + block.shape),
        )
        np.copyto(terms[:, :, 0], 0.0, where=drop[:, p0:p1])
        terms = terms.reshape(2, hi - lo, -1).view(float)
        np.einsum("kij,kij->i", terms, terms, out=out[lo - s : hi - s])
    return out


def _gram_workers() -> int:
    """W, the number of CPUs this process may run on.

    ``taskset`` or a cpuset sets it; where the platform cannot tell, every
    CPU counts.
    """
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _strip_plan(n: int, workers: int) -> tuple:
    """Rows per strip of an n-point Gram, and the threads that assemble it.

    One thread takes strips of max(64, GRAM_STRIP_ENTRIES // n) rows. T
    threads split that height between them, so the T strips in flight hold
    no more entries than one serial strip does, and T is at most W and at
    most a sixteenth of the serial height: at n = 1600 one thread takes
    about as long on strips of 16, 32 or 64 rows, and 40 % longer on strips
    of 8. A Gram of at most GRAM_STRIP_ENTRIES entries is one strip on one
    thread, with nothing to hand off.
    """
    if n * n <= GRAM_STRIP_ENTRIES:
        return n, 1
    serial = max(64, GRAM_STRIP_ENTRIES // n)
    threads = max(1, min(workers, serial // 16))
    return serial // threads, threads


def _run_strips(strip, count: int, threads: int) -> None:
    """Call ``strip(k)`` for every k < count on ``threads`` threads.

    The calling thread and threads - 1 helpers, started here and joined
    before returning, each take the next unclaimed strip under their own
    ``np.errstate(all="ignore")`` (error state does not cross threads):
    overflow and invalid operations surface as non-finite entries, which
    ``gram`` rejects. With one thread this is the serial loop, and no thread
    is started. Once a strip raises, no further strip is handed out, and the
    error of the lowest-numbered failed strip is raised. Strips are claimed
    in order, so every strip below a failed one has run, and that is the
    error a serial loop would raise.
    """
    lock = threading.Lock()
    unclaimed = iter(range(count))
    errors: dict = {}

    def work() -> None:
        with np.errstate(all="ignore"):
            while True:
                with lock:
                    k = None if errors else next(unclaimed, None)
                if k is None:
                    return
                try:
                    strip(k)
                except BaseException as exc:  # re-raised below
                    with lock:
                        errors[k] = exc

    helpers = []
    for i in range(threads - 1):
        helper = threading.Thread(target=work, name="diskkernels-gram-%d" % i, daemon=True)
        try:
            helper.start()
        except RuntimeError:
            # No thread to spare: the threads there are do the work.
            break
        helpers.append(helper)
    work()
    for helper in helpers:
        helper.join()
    if errors:
        raise errors[min(errors)]
