"""Machine-checkable evidence for the inclusion and norm-equivalence claims.

Three checks, each a pure computation returning a TheoremReport:

* ``verify_inclusion``: the space attached to the sub-Bergman kernel of
  (b, alpha) contains the weighted space of parameter alpha - 1, with
  embedding constant at most (1 + |b(0)|)/(1 - |b(0)|).
* ``verify_equality_forward``: for a finite Blaschke product of degree N
  the reverse dominance holds with constant at most N * C, where C bounds
  the diagonal of the model-space kernel.
* ``verify_equality_converse``: for a non-Blaschke symbol the boundary
  growth ratio diverges, refuting the reverse inclusion.

``verify_equality`` alone chooses between the last two.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .functions import BlaschkeProduct, ratio_table
from .kernels import PointSet, RadialGrid, SubBergman, WeightedBergman, sample_grid
from .modelspace import pointwise_bound_constant
from .psd import DEFAULT_TOL, _SharedGrams, dominance_delta_min
from .specs import format_function, point_set_obj

REPORT_TOL = 1e-6
CONVERSE_RADII = (0.9, 0.99, 0.999)
CONVERSE_ANGLES = 64
GROWTH_FACTOR = 2.0
BOUNDED_FACTOR = 10.0
BOUNDARY_RADII = (0.9, 0.99, 0.999, 0.9999)
BOUNDARY_ANGLES = 64


@dataclass(frozen=True, eq=False)
class TheoremReport:
    """Verdict plus the measured and analytic quantities behind it."""

    theorem: str
    b_spec: str
    alpha: float | None
    grid: dict
    analytic_constant: float | None
    measured: float
    verdict: str
    details: tuple

    @property
    def holds(self) -> bool:
        """Whether the statement holds: a pass, or a divergent converse table."""
        return self.verdict in ("pass", "divergent")

    def report_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "b": self.b_spec,
            "alpha": self.alpha,
            "grid": self.grid,
            "analytic_constant": self.analytic_constant,
            "measured": self.measured,
            "verdict": self.verdict,
            "details": list(self.details),
        }


def _require_nonconstant(b) -> complex:
    mono = b.monomial()
    if mono is not None and mono[1] == 0:
        raise ValueError("the symbol must be non-constant")
    b0 = complex(b.eval(0.0))
    if abs(b0) >= 1.0:
        raise ValueError("|b(0)| = 1 is degenerate for these checks")
    return b0


def verify_inclusion(
    b, alpha: float, points: PointSet, tol: float = DEFAULT_TOL
) -> TheoremReport:
    """Embedding of the (alpha - 1)-weighted space with the analytic constant.

    Measures delta_min(WeightedBergman(alpha - 1) -> SubBergman(b, alpha))
    on the grid and passes when it stays within 1e-6 of
    (1 + |b(0)|)/(1 - |b(0)|).
    """
    return _inclusion(b, alpha, points, _dominance_on(points, tol))


def _dominance_on(points: PointSet, tol: float):
    """``dominance(kernel1, kernel2)`` on ``points``, each call with its own Grams."""
    return lambda kernel1, kernel2: dominance_delta_min(kernel1, kernel2, points, tol)


def _inclusion(b, alpha: float, points: PointSet, dominance) -> TheoremReport:
    b0 = _require_nonconstant(b)
    alpha = float(alpha)
    report = dominance(WeightedBergman(alpha - 1.0), SubBergman(b, alpha))
    analytic = (1.0 + abs(b0)) / (1.0 - abs(b0))
    verdict = "pass" if report.delta_min <= analytic + REPORT_TOL else "fail"
    return TheoremReport(
        theorem="sub",
        b_spec=format_function(b),
        alpha=alpha,
        grid=point_set_obj(points),
        analytic_constant=analytic,
        measured=report.delta_min,
        verdict=verdict,
        details=(report.report_dict(),),
    )


def boundary_ratio_grid() -> PointSet:
    """Near-boundary grid for scalar diagonal estimates (never for Grams)."""
    return sample_grid(RadialGrid(radii=BOUNDARY_RADII, angles=BOUNDARY_ANGLES))


def verify_equality_forward(
    b: BlaschkeProduct, alpha: float, points: PointSet, tol: float = DEFAULT_TOL
) -> TheoremReport:
    """Reverse dominance for a finite Blaschke product, against N * C_grid.

    C_grid is the maximum of the model-kernel diagonal over a boundary-
    refined grid; the pass condition is
    delta_min(SubBergman(b, alpha) -> WeightedBergman(alpha - 1)) <=
    N * C_grid * (1 + 1e-6).
    """
    return _forward(b, alpha, points, _dominance_on(points, tol))


def _forward(b: BlaschkeProduct, alpha: float, points: PointSet, dominance) -> TheoremReport:
    if not isinstance(b, BlaschkeProduct):
        raise TypeError("the forward bound needs a finite Blaschke product")
    _require_nonconstant(b)
    alpha = float(alpha)
    boundary = boundary_ratio_grid()
    c_grid = pointwise_bound_constant(b, boundary)
    report = dominance(SubBergman(b, alpha), WeightedBergman(alpha - 1.0))
    bound = b.degree * c_grid
    verdict = "pass" if report.delta_min <= bound * (1.0 + REPORT_TOL) else "fail"
    return TheoremReport(
        theorem="sub2-forward",
        b_spec=format_function(b),
        alpha=alpha,
        grid=point_set_obj(points),
        analytic_constant=bound,
        measured=report.delta_min,
        verdict=verdict,
        details=(
            {
                "degree": b.degree,
                "pointwise_bound": c_grid,
                "bound_grid": point_set_obj(boundary),
            },
            report.report_dict(),
        ),
    )


def verify_equality_converse(
    b,
    radii: tuple = CONVERSE_RADII,
    angles: int = CONVERSE_ANGLES,
) -> TheoremReport:
    """Boundary growth table of (1 - |b|^2)/(1 - |z|^2) with a divergence rule.

    Verdict "divergent" when the last three table values each grow by a
    factor of at least 2; "bounded" when the table is nonincreasing past
    its maximum or stays below 10x its value at radius 0.5; "fail" when
    neither detector fires.
    """
    _require_nonconstant(b)
    radii = tuple(sorted(float(r) for r in radii))
    m = int(angles)
    *table, reference = ratio_table(b, radii + (0.5,), m)
    if len(table) >= 3 and (
        table[-1] >= GROWTH_FACTOR * table[-2]
        and table[-2] >= GROWTH_FACTOR * table[-3]
    ):
        verdict = "divergent"
    else:
        peak = int(np.argmax(table))
        nonincreasing = all(
            table[i] >= table[i + 1] for i in range(peak, len(table) - 1)
        )
        if nonincreasing or max(table) <= BOUNDED_FACTOR * reference:
            verdict = "bounded"
        else:
            verdict = "fail"
    return TheoremReport(
        theorem="sub2-converse",
        b_spec=format_function(b),
        alpha=None,
        grid={"kind": "ratio-table", "radii": list(radii), "angles": m},
        analytic_constant=None,
        measured=table[-1],
        verdict=verdict,
        details=(
            {
                "radii": list(radii),
                "values": table,
                "reference_at_half": reference,
                "divergence_rule": "last three values each grow by a factor >= 2",
            },
        ),
    )


def verify_equality(
    b, alpha: float, points: PointSet | None, radii: tuple = CONVERSE_RADII,
    angles: int = CONVERSE_ANGLES, tol: float = DEFAULT_TOL,
) -> TheoremReport:
    """Sub-Bergman equals the weighted space iff b is a finite Blaschke product.

    Runs the forward bound on ``points`` for a ``BlaschkeProduct`` and the
    converse table on ``radii`` and ``angles`` for any other symbol.
    """
    return _equality(b, alpha, points, radii, angles, _dominance_on(points, tol))


def _equality(b, alpha: float, points: PointSet | None, radii: tuple, angles: int, dominance):
    if not isinstance(b, BlaschkeProduct):
        return verify_equality_converse(b, radii, angles)
    if points is None:
        raise ValueError("the forward bound for a Blaschke symbol needs a grid")
    return _forward(b, alpha, points, dominance)


def verify_m1(
    b, points: PointSet, radii: tuple = CONVERSE_RADII, tol: float = DEFAULT_TOL,
    angles: int = CONVERSE_ANGLES,
) -> TheoremReport:
    """Hardy-space special case: inclusion always, equality iff finite Blaschke.

    Composes the alpha = 0 inclusion check with ``verify_equality``; passes
    when both hold. For a Blaschke symbol both compare SubBergman(b, 0)
    with WeightedBergman(-1) on ``points``, and they share the two Grams.
    """
    dominance = _SharedGrams(points, tol).dominance
    # Equality first: a converse table refuses bad radii or angles before any Gram.
    second = _equality(b, 0.0, points, radii, angles, dominance)
    inclusion = _inclusion(b, 0.0, points, dominance)
    verdict = "pass" if inclusion.holds and second.holds else "fail"
    return TheoremReport(
        theorem="m1-special-case",
        b_spec=format_function(b),
        alpha=0.0,
        grid=point_set_obj(points),
        analytic_constant=inclusion.analytic_constant,
        measured=inclusion.measured,
        verdict=verdict,
        details=(inclusion.report_dict(), second.report_dict()),
    )
