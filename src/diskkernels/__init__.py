"""Numerical toolkit for reproducing kernels on the unit disk.

Closed-form Szego, weighted Bergman, de Branges-Rovnyak, and sub-Bergman
kernels; PSD and dominance testing on finite grids with an exact diagonal
oracle for rotation-invariant kernels; truncated Toeplitz and defect
operators on weighted spaces; Takenaka-Malmquist model-space bases; and a
verification harness for the inclusion/equality statements tying them
together.
"""

from types import ModuleType as _ModuleType

from .functions import (
    AtomicSingularInner,
    BlaschkeProduct,
    ConstantFunction,
    NormalizedZeroKernel,
    SchurBoundError,
    SchurFunction,
    TaylorPolynomial,
    UnitDiskError,
    blaschke_ratio,
    ensure_in_disk,
    evaluate,
    normalized_zero_kernel,
    ratio_sup_estimate,
    ratio_table,
    ratio_values,
    taylor_coefficients,
)
from .kernels import (
    DBR,
    ConjugateScale,
    Difference,
    GramMatrix,
    KernelExpr,
    PointSet,
    RadialGrid,
    RandomGrid,
    Scale,
    SchurProduct,
    SubBergman,
    Sum,
    Szego,
    WeightedBergman,
    default_grid,
    eval_kernel,
    gram,
    is_positivity_preserving,
    sample_grid,
    weighted_bergman_coefficients,
)
from .psd import (
    DiagonalSeries,
    DominanceReport,
    PsdVerdict,
    diagonal_positivity_oracle,
    dominance_delta_min,
    is_psd,
    membership_check,
    multiplier_check,
    refutation_scan,
)
from .operators import (
    DefectOperator,
    SpaceWeight,
    TruncatedToeplitz,
    defect,
    eigenvector_check,
    kernel_section_taylor,
    monomial_norms,
    range_norm,
    toeplitz_analytic,
    toeplitz_coanalytic,
    write_matrix_csv,
)
from .modelspace import (
    ModelBasis,
    onb_sum_check,
    pointwise_bound_constant,
    takenaka_malmquist,
)
from .verify import (
    TheoremReport,
    boundary_ratio_grid,
    verify_equality,
    verify_equality_converse,
    verify_equality_forward,
    verify_inclusion,
    verify_m1,
)

__version__ = "0.1.0"

# Importing a name from a submodule also binds the submodule itself here.
__all__ = [
    name
    for name in dir()
    if not name.startswith("_") and not isinstance(globals()[name], _ModuleType)
]
