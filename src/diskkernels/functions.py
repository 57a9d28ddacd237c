"""Symbols in the closed unit ball of H-infinity on the unit disk.

Finite Blaschke products, one-atom singular inner functions, polynomial
and constant symbols, their Taylor expansions, and the scalar quantities
derived from them (zero-normalized kernel factor, boundary growth ratio).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .formatting import _fmt_count, _fmt_gigabytes

UNIMODULAR_TOL = 1e-12
UNIT_BALL_TOL = 1e-10
ATOM_GUARD = 1e-12
# Rounding-level tolerance of ``reflection_axis``: a zero counts as lying on
# the axis, and an atom as unimodular, only up to a few units in the last place.
AXIS_TOL = 4.0 * np.finfo(float).eps

_CERT_GRID_RADII = 64
_CERT_GRID_ANGLES = 64


class UnitDiskError(ValueError):
    """A point that must lie strictly inside the unit disk does not."""


class SchurBoundError(ValueError):
    """A symbol that must lie in the closed unit ball of H-infinity does not."""


def ensure_in_disk(z: complex) -> complex:
    """Validate |z| < 1 and return z as a complex number."""
    z = complex(z)
    if not abs(z) < 1.0:
        raise UnitDiskError("point %r is not strictly inside the unit disk" % z)
    return z


def ensure_finite(x: float, name: str) -> float:
    """Validate that x is a finite real number and return it as a float.

    Range checks such as ``x < bound`` are false for NaN, so parameters
    pass through this before their range is checked.
    """
    x = float(x)
    if not math.isfinite(x):
        raise ValueError("non-finite %s: %r" % (name, x))
    return x


def radial_points(radii, angles: int) -> np.ndarray:
    """r exp(2 pi i k/angles) for each radius r in order, then k = 0..angles - 1."""
    circle = np.exp(2j * np.pi * np.arange(angles) / angles)
    return np.outer(radii, circle).ravel()


def mobius_factor(a: complex, z):
    """Single Blaschke factor: (a - z)/(1 - conj(a) z), or z when a = 0."""
    if a == 0:
        return np.asarray(z, dtype=complex) + 0.0
    return (a - z) / (1.0 - np.conj(a) * z)


def mobius_factor_series(a: complex, order: int) -> np.ndarray:
    """Taylor coefficients of a single Blaschke factor up to the given order."""
    out = np.zeros(order + 1, dtype=complex)
    if a == 0:
        if order >= 1:
            out[1] = 1.0
        return out
    # (a - z) * sum_n conj(a)^n z^n
    geo = np.conj(a) ** np.arange(order + 1)
    out = a * geo
    out[1:] -= geo[:-1]
    return out


def prefix_products(zeros, order: int):
    """Taylor coefficients through ``order`` of the partial Blaschke products.

    Yields 1 and then, for k = 1..len(zeros), the product of the first k
    factors; each extends the one before by one truncated convolution.
    """
    out = np.zeros(order + 1, dtype=complex)
    out[0] = 1.0
    yield out
    for a in zeros:
        out = np.convolve(out, mobius_factor_series(a, order))[: order + 1]
        yield out


def axis_phases(omega: complex, order: int) -> np.ndarray:
    """exp(-i n arg omega) for n = 0..order: conj(omega)^n, unimodular to rounding.

    The diagonal of U = diag(conj(omega)^n) by which the reflection-symmetric
    routes rotate the real data of g back to b(z) = c g(conj(omega) z).
    """
    return np.exp(-1j * cmath.phase(omega) * np.arange(order + 1))


@dataclass(frozen=True)
class BlaschkeProduct:
    """Finite Blaschke product with factors (a - z)/(1 - conj(a) z).

    The factor for a zero at the origin is plain z. Any alternative sign
    or phase convention is absorbed by ``unimodular_constant``.
    """

    zeros: tuple
    unimodular_constant: complex = 1.0 + 0.0j

    def __post_init__(self):
        zeros = tuple(complex(a) for a in self.zeros)
        c = complex(self.unimodular_constant)
        object.__setattr__(self, "zeros", zeros)
        object.__setattr__(self, "unimodular_constant", c)
        if len(zeros) == 0:
            raise ValueError("a Blaschke product needs at least one zero")
        if not all(abs(a) < 1.0 for a in zeros):
            raise UnitDiskError("Blaschke zeros must lie strictly inside the unit disk")
        if not abs(abs(c) - 1.0) <= UNIMODULAR_TOL:
            raise ValueError(
                "|unimodular_constant| must equal 1 within %g" % UNIMODULAR_TOL
            )

    @property
    def degree(self) -> int:
        return len(self.zeros)

    def eval(self, z):
        z = np.asarray(z, dtype=complex)
        out = np.full(z.shape, self.unimodular_constant, dtype=complex)
        for a in self.zeros:
            out = out * mobius_factor(a, z)
        return out

    def taylor(self, order: int) -> np.ndarray:
        *_, product = prefix_products(self.zeros, order)
        return self.unimodular_constant * product

    def reflection_axis(self):
        """(omega, g) with b(z) = c g(conj(omega) z), |c| = 1, g real; else None.

        Exists when the nonzero zeros all lie on one line omega*R: each
        factor is then omega times the factor of the real zero +-|a| at
        conj(omega) z, and z = omega (conj(omega) z) for a zero at 0.
        """
        nonzero = [a for a in self.zeros if a != 0]
        omega = nonzero[0] / abs(nonzero[0]) if nonzero else 1.0 + 0.0j
        real_zeros = []
        for a in self.zeros:
            t = omega.conjugate() * a
            if abs(t.imag) > AXIS_TOL * abs(a):
                return None
            real_zeros.append(math.copysign(abs(a), t.real))
        return omega, BlaschkeProduct(tuple(real_zeros))

    def monomial(self):
        """(c, degree) when every zero is at 0, so b = c z^degree; else None."""
        if all(a == 0 for a in self.zeros):
            return self.unimodular_constant, self.degree
        return None


@dataclass(frozen=True)
class AtomicSingularInner:
    """Singular inner function exp(-mass (atom + z)/(atom - z)), one boundary atom."""

    mass: float
    boundary_atom: complex = 1.0 + 0.0j

    def __post_init__(self):
        mass = ensure_finite(self.mass, "mass")
        atom = complex(self.boundary_atom)
        object.__setattr__(self, "mass", mass)
        object.__setattr__(self, "boundary_atom", atom)
        if not mass > 0.0:
            raise ValueError("mass must be positive")
        if not abs(abs(atom) - 1.0) <= UNIMODULAR_TOL:
            raise ValueError("|boundary_atom| must equal 1 within %g" % UNIMODULAR_TOL)

    def eval(self, z):
        z = np.asarray(z, dtype=complex)
        xi = self.boundary_atom
        gap = np.abs(xi - z)
        if np.min(gap, initial=np.inf) < ATOM_GUARD:
            raise UnitDiskError(
                "evaluation within %g of the boundary atom is refused" % ATOM_GUARD
            )
        return np.exp(-self.mass * (xi + z) / (xi - z))

    def taylor(self, order: int) -> np.ndarray:
        """e^-m L_n^(-1)(2m) conj(atom)^n for n = 0..order, in O(order).

        exp(-m (1 + z)/(1 - z)) = e^-m exp(-2m z/(1 - z)) is e^-m times the
        generating function of the Laguerre values L_n^(-1)(2m), whose
        three-term recurrence (n + 1) L_{n+1} = (2n - 2m) L_n - (n - 1) L_{n-1}
        runs in real arithmetic; b(z) = g(conj(atom) z) with g the atom at 1
        then rotates the coefficients by ``axis_phases(atom)``.
        """
        m = self.mass
        h = np.empty(order + 1)
        prev, cur = 0.0, math.exp(-m)
        h[0] = cur
        for n in range(order):
            prev, cur = cur, ((2 * n - 2.0 * m) * cur - (n - 1) * prev) / (n + 1)
            h[n + 1] = cur
        # The constructor admits |atom| off 1 by up to UNIMODULAR_TOL; the
        # modulus factor keeps 1/atom^n there and is exactly 1 when |atom| = 1.
        atom = self.boundary_atom
        return h * abs(atom) ** -np.arange(order + 1) * axis_phases(atom, order)

    def reflection_axis(self):
        """(atom, the same atom moved to 1): b(z) = g(conj(atom) z).

        The identity needs |atom| = 1, which the constructor checks only to
        1e-12; an atom further than rounding from the circle gives None.
        """
        if abs(abs(self.boundary_atom) - 1.0) > AXIS_TOL:
            return None
        return self.boundary_atom, AtomicSingularInner(self.mass)

    def monomial(self):
        return None  # never c z^k


@dataclass(frozen=True)
class TaylorPolynomial:
    """Polynomial symbol, by default grid-certified to lie in the unit ball.

    Certification samples a 64x64 radial-angular grid at construction and
    re-checks lazily on every evaluation; a modulus exceeding 1 + 1e-10
    raises. ``unit_ball_check=False`` skips both (needed for deliberately
    non-Schur symbols when refuting multiplier bounds).
    """

    coefficients: tuple
    unit_ball_check: bool = True

    def __post_init__(self):
        coeffs = tuple(complex(c) for c in self.coefficients)
        object.__setattr__(self, "coefficients", coeffs)
        if len(coeffs) == 0:
            raise ValueError("a polynomial needs at least one coefficient")
        if not all(cmath.isfinite(c) for c in coeffs):
            raise ValueError("non-finite polynomial coefficient")
        if self.unit_ball_check:
            radii = (np.arange(_CERT_GRID_RADII) + 1.0) / (_CERT_GRID_RADII + 1.0)
            pts = radial_points(radii, _CERT_GRID_ANGLES)
            # Huge coefficients overflow to inf or NaN on the grid; np.max
            # propagates NaN, which the negated test then refuses as well.
            with np.errstate(all="ignore"):
                worst = np.max(np.abs(self._raw_eval(pts)))
            if not worst <= 1.0 + UNIT_BALL_TOL:
                raise SchurBoundError(
                    "polynomial exceeds the unit ball on the certification grid "
                    "(max modulus %.6g)" % worst
                )

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def _raw_eval(self, z):
        return np.polynomial.polynomial.polyval(
            np.asarray(z, dtype=complex), np.asarray(self.coefficients)
        )

    def eval(self, z):
        vals = self._raw_eval(z)
        if self.unit_ball_check:
            worst = np.max(np.abs(vals), initial=0.0)
            if worst > 1.0 + UNIT_BALL_TOL:
                raise SchurBoundError(
                    "polynomial exceeds the unit ball at an evaluation point "
                    "(modulus %.6g)" % worst
                )
        return vals

    def taylor(self, order: int) -> np.ndarray:
        out = np.zeros(order + 1, dtype=complex)
        take = min(order + 1, len(self.coefficients))
        out[:take] = self.coefficients[:take]
        return out

    def reflection_axis(self):
        """(1, itself) when every coefficient is real, else None."""
        if any(c.imag != 0.0 for c in self.coefficients):
            return None
        return 1.0 + 0.0j, self

    def monomial(self):
        """(c_k, k) when no other coefficient is nonzero (-0.0 is zero); else None."""
        support = [i for i, c in enumerate(self.coefficients) if c != 0] or [0]
        if len(support) > 1:
            return None
        return self.coefficients[support[0]], support[0]


@dataclass(frozen=True)
class ConstantFunction:
    """Constant symbol, by default checked to have modulus at most 1.

    ``unit_ball_check=False`` admits any finite value, as for polynomials.
    """

    value: complex
    unit_ball_check: bool = True

    def __post_init__(self):
        value = complex(self.value)
        object.__setattr__(self, "value", value)
        if self.unit_ball_check:
            if not abs(value) <= 1.0:
                raise SchurBoundError("|constant| must be at most 1")
        elif not cmath.isfinite(value):
            raise ValueError("non-finite constant")

    def eval(self, z):
        z = np.asarray(z, dtype=complex)
        return np.full(z.shape, self.value, dtype=complex)

    def taylor(self, order: int) -> np.ndarray:
        out = np.zeros(order + 1, dtype=complex)
        out[0] = self.value
        return out

    def reflection_axis(self):
        """(1, the constant |value|): b = c |value| with c unimodular."""
        return 1.0 + 0.0j, ConstantFunction(abs(self.value), self.unit_ball_check)

    def monomial(self):
        return self.value, 0


SchurFunction = Union[
    BlaschkeProduct, AtomicSingularInner, TaylorPolynomial, ConstantFunction
]


@dataclass(frozen=True)
class NormalizedZeroKernel:
    """f0(z) = (1 - conj(b(0)) b(z)) / sqrt(1 - |b(0)|^2) for a Schur symbol b.

    f0 is bounded and invertible in H-infinity with
    ||1/f0||_inf <= sqrt((1 + |b(0)|)/(1 - |b(0)|)) = ``inverse_sup_bound``.
    """

    base: SchurFunction
    value_at_zero: complex
    inverse_sup_bound: float

    def eval(self, z):
        b0 = self.value_at_zero
        scale = 1.0 / math.sqrt(1.0 - abs(b0) ** 2)
        return scale * (1.0 - np.conj(b0) * self.base.eval(z))

    def monomial(self):
        """(1, 0) when b(0) = 0, where f0 is the constant 1; else None."""
        if self.value_at_zero == 0:
            return 1.0 + 0.0j, 0
        return None


def normalized_zero_kernel(b: SchurFunction) -> NormalizedZeroKernel:
    """Build f0 for b; error when |b(0)| = 1 (b a unimodular constant)."""
    b0 = complex(b.eval(0.0))
    if abs(b0) >= 1.0:
        raise ValueError("|b(0)| = 1 is degenerate (b is a unimodular constant)")
    bound = math.sqrt((1.0 + abs(b0)) / (1.0 - abs(b0)))
    return NormalizedZeroKernel(base=b, value_at_zero=b0, inverse_sup_bound=bound)


def evaluate(f, z: complex) -> complex:
    """Evaluate a symbol at a point strictly inside the unit disk."""
    z = ensure_in_disk(z)
    return complex(f.eval(z))


def taylor_coefficients(f, order: int) -> np.ndarray:
    """Taylor coefficients of f at 0 through degree ``order``."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    return f.taylor(int(order))


def ratio_values(b, z) -> np.ndarray:
    """(1 - |b(z)|^2)/(1 - |z|^2) on an array of points inside the disk."""
    z = np.asarray(z, dtype=complex)
    if z.size and not np.max(np.abs(z)) < 1.0:
        raise UnitDiskError("ratio points must lie strictly inside the unit disk")
    num = 1.0 - np.abs(b.eval(z)) ** 2
    den = 1.0 - np.abs(z) ** 2
    return num / den


def blaschke_ratio(b, z: complex) -> float:
    """Scalar boundary-growth ratio (1 - |b(z)|^2)/(1 - |z|^2)."""
    z = ensure_in_disk(z)
    return float(ratio_values(b, np.asarray([z]))[0])


def ratio_table(b, radii, angles: int) -> list[float]:
    """Max of the boundary-growth ratio on each circle |z| = r, in input order.

    Each circle carries ``angles`` equally spaced points starting at z = r.
    """
    from . import kernels  # imported here because kernels imports this module
    radii = tuple(float(r) for r in radii)
    if len(radii) == 0:
        raise ValueError("need at least one radius")
    if any(not 0.0 < r < 1.0 for r in radii):
        raise UnitDiskError("radii must lie in (0, 1)")
    m = int(angles)
    if m < 1:
        raise ValueError("need at least one angle")
    need = 96 * m  # peak bytes per angle over the symbol classes, before allocating
    if need > kernels.MAX_DENSE_BYTES:
        raise ValueError(
            "%s angles per circle need about %s GB, above the limit of %s GB"
            % (
                _fmt_count(m),
                _fmt_gigabytes(need),
                _fmt_gigabytes(kernels.MAX_DENSE_BYTES),
            )
        )
    return [float(np.max(ratio_values(b, radial_points((r,), m)))) for r in radii]
