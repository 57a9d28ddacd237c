"""Closed-form reproducing kernels on the unit disk and their algebra.

Leaves: Szego, weighted Bergman, de Branges-Rovnyak, sub-Bergman.
Nodes: sum, entrywise (Schur) product, nonnegative scaling, difference,
conjugate scaling by a symbol. Kernel expressions evaluate pointwise and
assemble Hermitian Gram matrices over validated point sets.

Every node has ``eval(z, w)``, ``diagonal_series(order)``, the c_0..c_order
of a kernel f(z conj(w)) = sum_n c_n (z conj(w))^n, and ``rounding_bound(x)``
(see ``_circulant_bound``); the latter two raise ValueError when a symbol in
the tree is not c z^k (its ``monomial()`` is None). ``entry_bound(points)``
is a majorant of the Gram's entries on the points (see ``_leaf_entry_bound``).
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
# most two such matrices at once; a certified PSD check holds about half of
# one, and one more for the symmetrized copy of an ndarray. A Gram of the
# rotation route holds none until its ``matrix`` is read, only its 2 R n + n
# kernel values: R / n of one matrix, besides the n.
MAX_DENSE_BYTES = 1 << 28
UNIT_ROUNDOFF = 2.0**-53
# Relative errors, to first order, of a float64 complex product, sqrt(2)
# gamma_2 (Higham, Accuracy and Stability of Numerical Algorithms, Lemma
# 3.5), and the bound assumed for numpy's complex quotient, sqrt(2) gamma_7.
_MUL = 2.0 * math.sqrt(2.0) * UNIT_ROUNDOFF
_DIV = 7.0 * math.sqrt(2.0) * UNIT_ROUNDOFF
# A point of ``radial_points`` lies within _POINT_ROUNDING r of its exact
# value r exp(2 pi i k/A), and the point k = 0 is exact (``_circulant_bound``).
_POINT_ROUNDING = 23.5 * UNIT_ROUNDOFF


@dataclass(frozen=True)
class Szego:
    """k(z, w) = 1/(1 - conj(w) z), the reproducing kernel of H^2."""

    def eval(self, z, w):
        z = np.asarray(z, dtype=complex)
        w = np.asarray(w, dtype=complex)
        return 1.0 / (1.0 - np.conj(w) * z)

    def diagonal_series(self, order):
        return np.ones(order + 1)

    def rounding_bound(self, x):
        return _bergman_bound(1.0, x)

    def entry_bound(self, points):
        return _leaf_entry_bound(1.0, points)


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

    def rounding_bound(self, x):
        return _bergman_bound(self.alpha + 2.0, x)

    def entry_bound(self, points):
        return _leaf_entry_bound(self.alpha + 2.0, points)


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

    def rounding_bound(self, x):
        return _symbol_leaf_bound(_symbol_monomial(self.b, "symbol"), 1.0, x)

    def entry_bound(self, points):
        base = _leaf_entry_bound(1.0, points)
        return _entry_slack((1.0 + _squared_peak(self.b, points)) * base)


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

    def rounding_bound(self, x):
        return _symbol_leaf_bound(_symbol_monomial(self.b, "symbol"), self.alpha + 2.0, x)

    def entry_bound(self, points):
        base = _leaf_entry_bound(self.alpha + 2.0, points)
        return _entry_slack((1.0 + _squared_peak(self.b, points)) * base)


@dataclass(frozen=True)
class Sum:
    left: "KernelExpr"
    right: "KernelExpr"

    def eval(self, z, w):
        return self.left.eval(z, w) + self.right.eval(z, w)

    def diagonal_series(self, order):
        return self.left.diagonal_series(order) + self.right.diagonal_series(order)

    def rounding_bound(self, x):
        return _added_bound(self.left.rounding_bound(x), self.right.rounding_bound(x))

    def entry_bound(self, points):
        return _entry_slack(self.left.entry_bound(points) + self.right.entry_bound(points))


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

    def rounding_bound(self, x):
        m1, l1, e1 = self.left.rounding_bound(x)
        m2, l2, e2 = self.right.rounding_bound(x)
        return m1 * m2, l1 * m2 + m1 * l2, e1 * m2 + m1 * e2 + _MUL * m1 * m2

    def entry_bound(self, points):
        return _entry_slack(self.left.entry_bound(points) * self.right.entry_bound(points))


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

    def rounding_bound(self, x):
        m, l, e = self.operand.rounding_bound(x)
        return self.factor * m, self.factor * l, self.factor * (e + UNIT_ROUNDOFF * m)

    def entry_bound(self, points):
        return _entry_slack(self.factor * self.operand.entry_bound(points))


@dataclass(frozen=True)
class Difference:
    """Kernel difference left - right (not PSD-preserving in general)."""

    left: "KernelExpr"
    right: "KernelExpr"

    def eval(self, z, w):
        return self.left.eval(z, w) - self.right.eval(z, w)

    def diagonal_series(self, order):
        return self.left.diagonal_series(order) - self.right.diagonal_series(order)

    def rounding_bound(self, x):
        if self.left == self.right:
            # Equal operands evaluate to the same bits: the difference is 0.
            zero = 0.0 * np.asarray(x)
            return zero, zero, zero
        return _added_bound(self.left.rounding_bound(x), self.right.rounding_bound(x))

    def entry_bound(self, points):
        return _entry_slack(self.left.entry_bound(points) + self.right.entry_bound(points))


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

    def rounding_bound(self, x):
        # |c|^2 t^k K(t): the symbol product is within (2 k + 1) _MUL, then times K.
        c, k = _symbol_monomial(self.func, "conjugate-scaling symbol")
        m, l, e = self.operand.rounding_bound(x)
        c2 = abs(c) * abs(c)
        s, ds = c2 * x**k, c2 * k * x ** max(k - 1, 0)
        return s * m, s * l + ds * m, s * (e + (2 * k + 2) * _MUL * m)

    def entry_bound(self, points):
        return _entry_slack(_squared_peak(self.func, points) * self.operand.entry_bound(points))


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
    """|c|^2 times the series shifted right by k, for a symbol c z^k; ValueError on overflow."""
    c, k = mono
    try:
        c2 = abs(c) ** 2
    except OverflowError:
        message = "symbol coefficient |c| = %g is too large: |c|^2 overflows" % abs(c)
        raise ValueError(message) from None
    out = np.zeros(len(series))
    if k < len(series):
        out[k:] = c2 * series[: len(series) - k]
    return out


def _bergman_bound(p: float, x):
    """``rounding_bound`` of (1 - t)^-p, evaluated as ``_power`` of d = fl(1 - fl(conj(w) z)).

    Its Taylor coefficients are positive, so f(x) and f'(x) are the
    majorants. d is within _MUL x + u |1 - t| of 1 - t, a relative error
    the power multiplies by p, and the power adds its own, with abs, power,
    angle, exp, log, cos and sin within one ulp: numpy's binary powering of
    an integer p < 100 leaves d^p within (p - 1) _MUL before one quotient
    (Szego's 1/d at p = 1), and exp(-p log d) for a larger integer p,
    |log d| <= 2 + log g, or |d|^-p (cos + i sin)(-p arg d) for any other
    p, |arg d| < pi/2, is within (10 p + 5 + 5 p log g) u.
    """
    g = 1.0 / (1.0 - x)
    m = g**p
    if p.is_integer() and p < 100.0:
        own = (p - 1.0) * _MUL + _DIV
    else:
        own = (10.0 * p + 5.0 + 5.0 * p * np.log(g)) * UNIT_ROUNDOFF
    return m, p * g * m, (p * (_MUL * x * g + UNIT_ROUNDOFF) + own) * m


def _leaf_entry_bound(p: float, points: np.ndarray) -> float:
    """``entry_bound`` of (1 - conj(w) z)^-p: E >= max |G_ij| on the points, in O(n).

    |1 - conj(w) z| >= 1 - r^2, r = max |p|, taken as (1 - r)(1 + r), which
    does not cancel. With abs within one ulp, conj(w) z within _MUL and 1 - t
    rounded once, the computed |1 - conj(w) z| is at least d = (1 - r)(1 +
    r) - 16 u, and the power adds at most (10 p + 5 + 5 p log(1/d)) u, the
    bound of ``_bergman_bound`` for any p. The nodes combine bounds as
    ``eval`` combines values: DBR and SubBergman multiply by
    1 + max |b(p)|^2, Sum and Difference add, Scale and SchurProduct
    multiply, and ConjugateScale multiplies by max |f(p)|^2. Each passes
    its bound through ``_entry_slack``, which covers its own products,
    quotient and sum, the rounding of the bound and the Gram's
    symmetrization, gradual underflow included. Symbols are evaluated on
    every point in ``eval``'s order, so one refusing a point raises what
    the assembly raises first. A bound that overflows is inf or NaN.
    """
    r = float(np.max(np.abs(points)))
    d = (1.0 - r) * (1.0 + r) - 16.0 * UNIT_ROUNDOFF
    if not d > 0.0:
        return math.inf
    own = (10.0 * p + 5.0 - 5.0 * p * math.log(d)) * UNIT_ROUNDOFF
    with np.errstate(over="ignore"):
        return _entry_slack(float(np.power(d, -p)) * (1.0 + own))


def _entry_slack(bound: float) -> float:
    """bound (1 + 16 u) + 16 eta, eta = 2^-1074: a node's roundings (``_leaf_entry_bound``)."""
    return bound * (1.0 + 16.0 * UNIT_ROUNDOFF) + 16.0 * math.ulp(0.0)


def _squared_peak(f, points: np.ndarray) -> float:
    """max |f(p)|^2 on the points, plus eta for an underflowing f(z) conj(f(w)); inf on overflow."""
    peak = float(np.max(np.abs(f.eval(points))))
    return peak * peak + math.ulp(0.0)


def _symbol_leaf_bound(mono: tuple, p: float, x):
    """``rounding_bound`` of (1 - |c|^2 t^k)(1 - t)^-p: DBR at p = 1, SubBergman at p = alpha + 2.

    As 1 - |c|^2 t^k = (1 - t) S_k(t) + (1 - |c|^2) t^k, S_k(t) = sum_(n<k)
    t^n, for p >= 1 the Taylor coefficients of f are at most, in modulus,
    those of M(x) = S_k(x) (1 - x)^(1 - p) + |1 - |c|^2| x^k (1 - x)^-p,
    whose terms have nonnegative ones: M(x) and M'(x) are the majorants,
    summed without cancellation. A symbol c z^k is assumed within k _MUL
    (k complex products, as every symbol class computes it), so conj(b(w))
    b(z) is within (2 k + 1) _MUL |c|^2 x^k; the numerator's rounding, the
    power's error and the last quotient or product are relative to |f(t)|.
    """
    c, k = mono
    base, dbase, ebase = _bergman_bound(p, x)
    n = np.arange(k)
    powers = np.asarray(x)[..., None] ** n
    S, dS = np.sum(powers, axis=-1), np.sum(n[1:] * powers[..., :-1], axis=-1)
    c2 = abs(c) * abs(c)
    kappa, xk = abs(1.0 - c2), x**k
    m = S * (1.0 - x) * base + kappa * xk * base
    l = (dS * (1.0 - x) + (p - 1.0) * S) * base
    l = l + kappa * (k * x ** max(k - 1, 0) * base + xk * dbase)
    e = (2 * k + 1) * _MUL * c2 * xk * base + m * (UNIT_ROUNDOFF + ebase / base + _MUL)
    return m, l, e


def _added_bound(left: tuple, right: tuple) -> tuple:
    """``rounding_bound`` of a sum or difference: one more rounding of the result."""
    (m1, l1, e1), (m2, l2, e2) = left, right
    return m1 + m2, l1 + l2, e1 + e2 + UNIT_ROUNDOFF * (m1 + m2)


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
    """Smallest i with |pts[i] - pts[j]| < MIN_SEPARATION for some j < i, or None."""
    later = _close_pairs(pts)[1]
    return int(np.min(later)) if len(later) else None


def _close_pairs(pts: np.ndarray) -> np.ndarray:
    """Every pair i < j with |pts[i] - pts[j]| < MIN_SEPARATION, as a (2, pairs) array of (i, j)."""
    return _sorted_close_pairs(pts)[1]


def _sorted_close_pairs(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The stable order of ``pts`` by real part, and ``_close_pairs(pts)``.

    Sorted by real part, a pair closer than MIN_SEPARATION is d places
    apart for some lag d, and its real parts differ by less than
    MIN_SEPARATION: |fl(re a - re b)| is at most fl|a - b|, the real part
    of the same difference. On sorted reals the lag-(d + 1) gaps are no
    smaller than the lag-d ones, so the sweep over d = 1, 2, ... stops at
    the first lag with no gap that small, and only the pairs with such a
    gap have their distance computed. That distance is |a - b| with the
    bits of any other order of the pair. Points spread in real part take a
    few lags; n points on one vertical line take n.
    """
    eps = MIN_SEPARATION  # read per call, so a patched value is honoured
    order = np.argsort(pts.real, kind="stable")
    s = pts[order]
    x = pts.real[order]
    pairs = [np.empty((2, 0), dtype=np.intp)]
    for d in range(1, len(s)):
        near = np.flatnonzero(x[d:] - x[:-d] < eps)
        if len(near) == 0:
            break
        close = near[np.abs(s[near + d] - s[near]) < eps]
        if len(close):
            pairs.append(np.sort([order[close], order[close + d]], axis=0))
    return order, np.concatenate(pairs, axis=1)


def _close_to_sorted(ordered: np.ndarray, new: np.ndarray) -> np.ndarray:
    """Whether each point of ``new`` lies closer than MIN_SEPARATION to one of ``ordered``.

    ``ordered`` is sorted by real part, so the points whose real parts lie
    within 2 MIN_SEPARATION of a new point's are one slice of it, found by
    bisection. A close pair's real parts differ by less than MIN_SEPARATION
    (see ``_sorted_close_pairs``), and the slice's ends, rounded by at most
    2^-53 on reals below 1, reach further. Only the pairs in a slice have
    their distance computed, with the bits ``_close_pairs`` gives them.
    """
    eps = MIN_SEPARATION
    x = ordered.real
    lo = np.searchsorted(x, new.real - 2.0 * eps)
    counts = np.searchsorted(x, new.real + 2.0 * eps, side="right") - lo
    which = np.repeat(np.arange(len(new)), counts)
    at = np.arange(len(which)) + np.repeat(lo + counts - np.cumsum(counts), counts)
    close = np.zeros(len(new), dtype=bool)
    close[which[np.abs(new[which] - ordered[at]) < eps]] = True
    return close


def _random_points(spec: RandomGrid) -> np.ndarray:
    """The points of a random grid, by rejection on a deterministic stream.

    Each candidate is the next two uniforms u, v of the stream, at radius
    rmax sqrt(u) and angle 2 pi v, and is kept when it lies at least
    MIN_SEPARATION from every point kept before it. Candidates are drawn
    as many at a time as points are missing. A candidate close to a kept
    point is refused (``_close_to_sorted``, against the kept points held
    sorted by real part between draws); then the close pairs among the
    candidates are found (``_sorted_close_pairs``) and resolved in stream
    order: a candidate is refused when it is close to an earlier candidate
    not refused. The survivors are merged into the sorted kept points in
    the order that sort gave them, so a grid with no refusal costs one
    sort, and a draw of m candidates near the jamming limit O(m log n)
    plus one copy of the kept points. Sampling gives up at the
    (64 count)-th refused draw: ``RandomGrid`` refuses grids with more than
    half the points that fit, and some grids below that still stall.
    """
    rng = np.random.default_rng(spec.seed)
    pts = np.empty(spec.count, dtype=complex)
    k = refused = 0  # pts[:k] are kept; once k > 0, ``ordered`` holds them by real part
    while k < spec.count:
        u = rng.random((spec.count - k, 2))
        radius = spec.rmax * np.sqrt(u[:, 0])
        angle = 2.0 * np.pi * u[:, 1]
        new = pts[k:]
        new.real = radius * np.cos(angle)
        new.imag = radius * np.sin(angle)
        out = _close_to_sorted(ordered, new) if k else np.zeros(len(new), dtype=bool)
        order, (earlier, later) = _sorted_close_pairs(new)
        for i in np.argsort(later, kind="stable"):
            if not (out[earlier[i]] or out[later[i]]):
                out[later[i]] = True
        refused += int(np.count_nonzero(out))
        if refused >= 64 * spec.count:
            raise ValueError(_crowded_message(spec, "%d draws were refused" % (64 * spec.count)))
        merged = new[order[~out[order]]]
        if k:
            merged = np.insert(ordered, np.searchsorted(ordered.real, merged.real), merged)
        ordered = merged
        kept = new[~out]
        pts[k : k + len(kept)] = kept
        k += len(kept)
    return pts


def default_grid() -> PointSet:
    """Five radii up to 0.9, sixteen angles each: the 80-point default grid."""
    return sample_grid(RadialGrid(radii=(0.2, 0.4, 0.6, 0.8, 0.9), angles=16))


class GramMatrix:
    """Hermitian-symmetrized kernel Gram matrix over a point set.

    ``peak`` is max |G_ij|, NaN when an entry is NaN; ``gram`` fills it
    during assembly, and a GramMatrix built directly computes it.
    ``diagonal`` holds the G_ii.

    A Gram that ``gram`` builds on the rotation route holds no n x n
    matrix: its first read of ``matrix`` assembles it densely. It keeps
    ``_circulant`` = (first, bound) instead: the first column of each A x A
    block as an (R, A, R) array, and ``_circulant_bound``'s bound on
    ||G - C||_F for the block-circulant C they define. Its ``peak`` and
    ``asymmetry`` are read off those columns and the diagonal. Any other
    Gram, one built directly included, has ``_circulant`` None.
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
            self._matrix = _gram(self.kernel, self.point_set).matrix
        return self._matrix

    @property
    def diagonal(self) -> np.ndarray:
        return self.matrix.diagonal() if self._diagonal is None else self._diagonal

    @property
    def size(self) -> int:
        return self.matrix.shape[0] if self._diagonal is None else len(self._diagonal)


def gram(kernel: KernelExpr, points: PointSet) -> GramMatrix:
    """G[i, j] = K(p_i, p_j) symmetrized to (G + G*)/2.

    Raises when an entry is not finite, or when the raw evaluation deviates
    from conjugate symmetry by more than 1e-12 relative to the largest entry.

    On the rotation route (``_circulant_shape``) only the first column of
    each A x A block and the diagonal are evaluated, 2 R n + n entries
    (``_first_columns``), and both checks read those: the Gram keeps them
    with ``_circulant_bound`` and assembles ``matrix`` densely when it is
    first read. Any other Gram is assembled densely at once (``_gram``).
    """
    shape = _circulant_shape(kernel, points)
    if shape is None:
        return _gram(kernel, points)
    first, diagonal, asym, peak = _first_columns(kernel, points.array, shape[1])
    _check_entries(asym, peak)
    bound = _circulant_bound(kernel, np.array(points.spec.radii), shape[1])
    return GramMatrix._routed(points, kernel, asym, peak, diagonal, (first, bound))


def _check_gram_size(n: int) -> None:
    check_dense_size(n, "a Gram matrix of %s points" % _fmt_count(n))


def _gram_diagonal(kernel: KernelExpr, points: PointSet) -> Optional[tuple]:
    """(real G_ii, ``entry_bound``) of ``gram(kernel, points)``, in O(n); None if a node lacks one.

    G_ii = (K(p_i, p_i) + conj K(p_i, p_i)) 0.5, with the assembly's bits.
    The size check and the symbols on every point come first, as in the
    assembly, so this raises the error the assembly would raise first.
    """
    _check_gram_size(len(points))
    with np.errstate(all="ignore"):
        try:
            bound = kernel.entry_bound(points.array)
        except AttributeError:
            return None
        raw = np.asarray(kernel.eval(points.array, points.array), dtype=complex)
        return np.multiply(np.add(raw, np.conjugate(raw)), 0.5).real, bound


def _check_entries(asym: float, peak: float) -> None:
    """Raise when the peak is not finite, or the asymmetry is above HERMITIAN_TOL max(1, peak)."""
    if not math.isfinite(peak):
        raise ValueError("kernel evaluation has non-finite entries")
    if asym > HERMITIAN_TOL * max(1.0, peak):
        raise ValueError(
            "kernel evaluation is not conjugate-symmetric (deviation %.3g)" % asym
        )


def _circulant_shape(kernel: KernelExpr, points: PointSet) -> Optional[tuple]:
    """(R, A) when a Gram of the kernel on the points takes the rotation route, else None.

    The points must come from ``sample_grid`` on a radial grid of R radii
    and A angles, and the kernel must be rotation-invariant: one whose
    ``rounding_bound`` exists, every symbol in it being c z^k. Its Gram is
    then an R x R array of A x A blocks that are circulant up to rounding.
    """
    grid = points.spec
    if not isinstance(grid, RadialGrid) or grid.size != len(points):
        return None
    if not hasattr(kernel, "rounding_bound"):
        return None
    try:
        with np.errstate(all="ignore"):
            kernel.rounding_bound(0.0)
    except ValueError:
        return None
    return len(grid.radii), grid.angles


def _circulant_bound(kernel: KernelExpr, radii: np.ndarray, A: int) -> float:
    """A bound on ||G - C||_F for a routed Gram on the grid of ``radii`` and A angles.

    C is the block-circulant matrix of G's first columns. At the exact
    points r_a exp(2 pi i p/A) the entries are f(r_a r_b exp(2 pi i (p -
    q)/A)), block-circulant. The bound, to first order in the unit
    roundoff u, rests on two assumptions. The points: ``radial_points``
    computes fl(fl(2 fl(pi) k) fl(1/A)), within 3.36 u of 2 pi k/A < 2 pi,
    then exp of it within u per part (cos and sin within one ulp) and r
    times that with one rounding per part, so each point is within
    _POINT_ROUNDING = 23.5 u r of its exact value, and the point k = 0 is
    exact. The nodes: ``kernel.rounding_bound(x)`` gives majorants m, l of
    |f|, |f'| on |t| <= x and e of the error of ``eval`` where |z conj(w)|
    <= x, under the ulp accuracy stated in ``_bergman_bound``.

    With x = r_a r_b and dt the error of z conj(w), 2 _POINT_ROUNDING x at
    most and half that in a first column, an entry (K(p_i, p_j) + conj
    K(p_j, p_i)) 0.5 is within l dt + e + u m of its exact value. An entry
    of G - C is an entry less one of its first column, which are C's own,
    so ||G - C||_F <= sqrt(A (A - 1)) ||3 _POINT_ROUNDING x l + 2 (e + u
    m)||_F over the radius pairs, m, l and e taken at the largest |z
    conj(w)|, x (1 + 2 _POINT_ROUNDING). Where that reaches 1 the bound is
    inf; one that overflows is inf or NaN: both send G to the dense route.
    """
    x = np.multiply.outer(radii, radii)
    top = x + 2.0 * _POINT_ROUNDING * x
    if not np.max(top) < 1.0:
        return math.inf
    with np.errstate(all="ignore"):
        m, l, e = kernel.rounding_bound(top)
        entry = 3.0 * _POINT_ROUNDING * x * l + 2.0 * (e + UNIT_ROUNDOFF * m)
        return math.sqrt(A * (A - 1)) * float(np.linalg.norm(entry))


def _gram(kernel: KernelExpr, points: PointSet) -> GramMatrix:
    """``gram`` off the rotation route: the dense assembly, in strips of rows.

    The kernel is evaluated one strip of rows at a time, and every pair of
    points once: for rows s:e, X = K(p[s:e], p[s:]) is the diagonal block
    and the strip right of it, and L^T = K(p[e:], p[s:e])^T, evaluated in
    that layout, the strip below it. While they are in cache, Y* (the
    diagonal block of X conjugate-transposed, then conj(L^T)) gives
    max |X - Y*|, G[s:e, s:] = (X + Y*) * 0.5 and its peak, and (L^T +
    conj(X_off)) * 0.5, X_off = X right of the block, is written transposed
    into G[e:, s:e]. These are the operands of (raw + raw*) * 0.5 on the
    whole matrix, in its order, so the bits are the same. |raw - raw*| and
    |G| are equal at (i, j) and (j, i), so their maxima are taken on the
    upper strips only, and collected in an array because Python's max()
    drops NaN where np.max keeps it: a non-finite entry, or a sum that
    overflows, leaves the peak non-finite. No n x n matrix but G itself is
    allocated.

    Strips are independent: each writes only its own rows and columns of G
    and its own slot of the maxima. So they are spread over up to W threads,
    W the CPUs the process may run on (``_gram_workers``, ``_strip_plan``),
    and G, its asymmetry and its peak have the same bits for any W (see
    ``_run_strips``).
    """
    n = len(points)
    _check_gram_size(n)
    arr = points.array
    rows, threads = _strip_plan(n, _gram_workers())
    sym = np.empty((n, n), dtype=complex)
    starts = range(0, n, rows)
    asyms = np.empty(len(starts))
    peaks = np.empty(len(starts))

    def strip(k: int) -> None:
        s = starts[k]
        e = min(s + rows, n)
        h = e - s
        X = np.asarray(kernel.eval(arr[s:e, None], arr[None, s:]), dtype=complex)
        upper = sym[s:e, s:]
        Yh = np.empty_like(X)
        np.conjugate(X[:, :h].T, out=Yh[:, :h])
        if e < n:
            Lt = np.asarray(kernel.eval(arr[None, e:], arr[s:e, None]), dtype=complex)
            np.conjugate(Lt, out=Yh[:, h:])
        np.add(X, Yh, out=upper)
        np.multiply(upper, 0.5, out=upper)
        peaks[k] = np.max(np.abs(upper))
        asyms[k] = np.max(np.abs(np.subtract(X, Yh, out=Yh)))
        if e < n:
            lower = np.add(Lt, np.conjugate(X[:, h:], out=Yh[:, h:]), out=Lt)
            sym[e:, s:e] = np.multiply(lower, 0.5, out=lower).T

    _run_strips(strip, len(starts), threads)
    asym, peak = float(np.max(asyms)), float(np.max(peaks))
    _check_entries(asym, peak)
    return GramMatrix(
        matrix=sym, point_set=points, kernel=kernel, asymmetry=asym, peak=peak
    )


def _first_columns(kernel: KernelExpr, arr: np.ndarray, A: int) -> tuple:
    """(first, diagonal, asymmetry, peak) of a Gram on the rotation route.

    ``first`` holds G[:, b A] for each radius b, the first columns of the
    A x A blocks, as an (R, A, R) array. K(p_bA, p) and K(p, p_bA) are
    evaluated for all points p, 2 R n entries, the first with every point
    in w, as in the first strip of the dense assembly, and n more give
    K(p, p). Each pair is symmetrized by that assembly's expression, so
    each entry has its bits, and the asymmetry and peak are its maxima
    over these entries, NaN for a NaN entry.
    """
    cols = arr[::A]
    with np.errstate(all="ignore"):
        top = np.asarray(kernel.eval(cols[:, None], arr[None, :]), dtype=complex)
        left = np.asarray(kernel.eval(arr[:, None], cols[None, :]), dtype=complex)
        raw = np.asarray(kernel.eval(arr, arr), dtype=complex)
        asym = peak = 0.0
        sym = []
        for X, Yh in ((left, np.conjugate(top).T), (raw, np.conjugate(raw))):
            sym.append(np.multiply(np.add(X, Yh), 0.5))
            asym = np.max((asym, np.max(np.abs(np.subtract(X, Yh)))))
            peak = np.max((peak, np.max(np.abs(sym[-1]))))
    return sym[0].reshape(len(cols), A, len(cols)), sym[1], float(asym), float(peak)


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
