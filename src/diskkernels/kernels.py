"""Closed-form reproducing kernels on the unit disk and their algebra.

Leaves: Szego, weighted Bergman, de Branges-Rovnyak, sub-Bergman.
Nodes: sum, entrywise (Schur) product, nonnegative scaling, difference,
conjugate scaling by a symbol. Kernel expressions evaluate pointwise and
assemble Hermitian Gram matrices over validated point sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Union

import numpy as np

from .formatting import fmt_int, fmt_real
from .functions import SchurFunction, UnitDiskError

MIN_SEPARATION = 1e-10
HERMITIAN_TOL = 1e-12


@dataclass(frozen=True)
class Szego:
    """k(z, w) = 1/(1 - conj(w) z), the reproducing kernel of H^2."""

    def eval(self, z, w):
        z = np.asarray(z, dtype=complex)
        w = np.asarray(w, dtype=complex)
        return 1.0 / (1.0 - np.conj(w) * z)


@dataclass(frozen=True)
class WeightedBergman:
    """k(z, w) = 1/(1 - conj(w) z)^(alpha + 2); alpha = -1 recovers Szego."""

    alpha: float

    def __post_init__(self):
        alpha = float(self.alpha)
        object.__setattr__(self, "alpha", alpha)
        if alpha < -1.0:
            raise ValueError("alpha must be at least -1")

    def eval(self, z, w):
        z = np.asarray(z, dtype=complex)
        w = np.asarray(w, dtype=complex)
        return (1.0 - np.conj(w) * z) ** (-(self.alpha + 2.0))


@dataclass(frozen=True)
class DBR:
    """de Branges-Rovnyak kernel (1 - conj(b(w)) b(z))/(1 - conj(w) z)."""

    b: SchurFunction

    def eval(self, z, w):
        z = np.asarray(z, dtype=complex)
        w = np.asarray(w, dtype=complex)
        bz = self.b.eval(z)
        bw = self.b.eval(w)
        return (1.0 - np.conj(bw) * bz) / (1.0 - np.conj(w) * z)


@dataclass(frozen=True)
class SubBergman:
    """Sub-Bergman kernel (1 - conj(b(w)) b(z))/(1 - conj(w) z)^(alpha + 2)."""

    b: SchurFunction
    alpha: float

    def __post_init__(self):
        alpha = float(self.alpha)
        object.__setattr__(self, "alpha", alpha)
        if alpha < 0.0:
            raise ValueError("alpha must be nonnegative")

    def eval(self, z, w):
        z = np.asarray(z, dtype=complex)
        w = np.asarray(w, dtype=complex)
        bz = self.b.eval(z)
        bw = self.b.eval(w)
        return (1.0 - np.conj(bw) * bz) * (1.0 - np.conj(w) * z) ** (
            -(self.alpha + 2.0)
        )


@dataclass(frozen=True)
class Sum:
    left: "KernelExpr"
    right: "KernelExpr"

    def eval(self, z, w):
        return self.left.eval(z, w) + self.right.eval(z, w)


@dataclass(frozen=True)
class SchurProduct:
    """Entrywise product of two kernels (PSD-preserving)."""

    left: "KernelExpr"
    right: "KernelExpr"

    def eval(self, z, w):
        return self.left.eval(z, w) * self.right.eval(z, w)


@dataclass(frozen=True)
class Scale:
    """Nonnegative scalar multiple of a kernel."""

    factor: float
    operand: "KernelExpr"

    def __post_init__(self):
        factor = float(self.factor)
        object.__setattr__(self, "factor", factor)
        if factor < 0.0:
            raise ValueError("scale factor must be nonnegative")

    def eval(self, z, w):
        return self.factor * self.operand.eval(z, w)


@dataclass(frozen=True)
class Difference:
    """Kernel difference left - right (not PSD-preserving in general)."""

    left: "KernelExpr"
    right: "KernelExpr"

    def eval(self, z, w):
        return self.left.eval(z, w) - self.right.eval(z, w)


@dataclass(frozen=True)
class ConjugateScale:
    """f(z) conj(f(w)) K(z, w) for a bounded symbol f (PSD-preserving)."""

    func: object
    operand: "KernelExpr"

    def eval(self, z, w):
        fz = self.func.eval(np.asarray(z, dtype=complex))
        fw = self.func.eval(np.asarray(w, dtype=complex))
        return fz * np.conj(fw) * self.operand.eval(z, w)


KernelExpr = Union[
    Szego, WeightedBergman, DBR, SubBergman,
    Sum, SchurProduct, Scale, Difference, ConjugateScale,
]

_LEAF_TYPES = (Szego, WeightedBergman, DBR, SubBergman)


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
    if abs(z) >= 1.0 or abs(w) >= 1.0:
        raise UnitDiskError("kernel arguments must lie strictly inside the unit disk")
    return complex(kernel.eval(z, w))


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

    @property
    def size(self) -> int:
        return len(self.radii) * self.angles

    def canonical(self) -> str:
        radii = ",".join(fmt_real(r) for r in self.radii)
        return "radial[%s;angles=%s]" % (radii, fmt_int(self.angles))


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

    @property
    def size(self) -> int:
        return self.count

    def canonical(self) -> str:
        return "random[n=%s,rmax=%s,seed=%s]" % (
            fmt_int(self.count),
            fmt_real(self.rmax),
            fmt_int(self.seed),
        )


GridSpec = Union[RadialGrid, RandomGrid]


@dataclass(frozen=True)
class PointSet:
    """Ordered distinct points strictly inside the disk, with provenance.

    ``provenance`` is the canonical grid spec string, or "explicit" for
    directly supplied points. ``spec`` is the grid spec the points were
    sampled from, in ``sample_grid`` order; it takes no part in equality.
    """

    points: tuple
    provenance: str = "explicit"
    spec: Optional[GridSpec] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        points = tuple(complex(z) for z in self.points)
        object.__setattr__(self, "points", points)
        if len(points) == 0:
            raise ValueError("a point set must be nonempty")
        arr = np.asarray(points, dtype=complex)
        if np.max(np.abs(arr)) >= 1.0:
            raise UnitDiskError("points must lie strictly inside the unit disk")
        if len(points) > 1:
            dist = np.abs(arr[:, None] - arr[None, :])
            np.fill_diagonal(dist, np.inf)
            if np.min(dist) < MIN_SEPARATION:
                raise ValueError(
                    "points closer than %g are considered coincident" % MIN_SEPARATION
                )

    def __len__(self) -> int:
        return len(self.points)

    @cached_property
    def array(self) -> np.ndarray:
        arr = np.asarray(self.points, dtype=complex)
        arr.setflags(write=False)
        return arr


def sample_grid(spec: GridSpec) -> PointSet:
    """Materialize a grid spec into a PointSet (deterministic for a fixed spec)."""
    if isinstance(spec, RadialGrid):
        angles = np.exp(2j * np.pi * np.arange(spec.angles) / spec.angles)
        pts = [r * a for r in spec.radii for a in angles]
        return PointSet(tuple(pts), provenance=spec.canonical(), spec=spec)
    if isinstance(spec, RandomGrid):
        rng = np.random.default_rng(spec.seed)
        accepted: list[complex] = []
        # Rejection keeps the draw deterministic while honoring the
        # minimum-separation invariant.
        while len(accepted) < spec.count:
            radius = spec.rmax * np.sqrt(rng.random())
            angle = 2.0 * np.pi * rng.random()
            z = complex(radius * np.cos(angle), radius * np.sin(angle))
            if all(abs(z - p) >= MIN_SEPARATION for p in accepted):
                accepted.append(z)
        return PointSet(tuple(accepted), provenance=spec.canonical(), spec=spec)
    raise TypeError("not a grid spec: %r" % (spec,))


def default_grid() -> PointSet:
    """Five radii up to 0.9, sixteen angles each: the 80-point default grid."""
    return sample_grid(RadialGrid(radii=(0.2, 0.4, 0.6, 0.8, 0.9), angles=16))


@dataclass(frozen=True, eq=False)
class GramMatrix:
    """Hermitian-symmetrized kernel Gram matrix over a point set."""

    matrix: np.ndarray
    point_set: PointSet
    kernel: KernelExpr
    asymmetry: float

    def __post_init__(self):
        self.matrix.setflags(write=False)

    @property
    def size(self) -> int:
        return self.matrix.shape[0]


def gram(kernel: KernelExpr, points: PointSet) -> GramMatrix:
    """Assemble G[i, j] = K(p_i, p_j) and symmetrize to (G + G*)/2.

    Raises when an entry is not finite, or when the raw evaluation deviates
    from conjugate symmetry by more than 1e-12 relative to the largest entry.
    """
    arr = points.array
    # Overflow and invalid operations surface as non-finite entries, which
    # are rejected below, so numpy's warnings about them are not raised.
    with np.errstate(all="ignore"):
        raw = np.asarray(kernel.eval(arr[:, None], arr[None, :]), dtype=complex)
        # |x| of a complex entry is finite exactly when both parts are, and
        # np.max propagates NaN, so one finite peak certifies every entry.
        peak = float(np.max(np.abs(raw)))
    if not math.isfinite(peak):
        raise ValueError("kernel evaluation has non-finite entries")
    asym = float(np.max(np.abs(raw - raw.conj().T)))
    scale = max(1.0, peak)
    if asym > HERMITIAN_TOL * scale:
        raise ValueError(
            "kernel evaluation is not conjugate-symmetric (deviation %.3g)" % asym
        )
    sym = 0.5 * (raw + raw.conj().T)
    return GramMatrix(matrix=sym, point_set=points, kernel=kernel, asymmetry=asym)
