"""The angular-frequency route of is_psd and dominance_delta_min.

On a radial grid a rotation-invariant kernel's Gram splits into one small
block per angular frequency. The dense n x n eigensolve stays the
reference: spectra, verdicts and dominance constants must agree with it,
and every input that is not block-circulant must take the dense route.
"""

import math

import numpy as np
import pytest

from diskkernels import (
    DBR,
    BlaschkeProduct,
    ConjugateScale,
    Difference,
    GramMatrix,
    PointSet,
    RadialGrid,
    Scale,
    SchurProduct,
    SubBergman,
    Sum,
    Szego,
    TaylorPolynomial,
    WeightedBergman,
    default_grid,
    diagonal_positivity_oracle,
    dominance_delta_min,
    gram,
    is_psd,
    sample_grid,
)
from diskkernels.psd import DEFAULT_TOL, _angle_blocks

B_Z = BlaschkeProduct((0.0,))
B_Z2 = BlaschkeProduct((0.0, 0.0))
CZ3 = TaylorPolynomial((0.0, 0.0, 0.0, 0.6j))
REFUTING = Difference(Scale(1.9, Szego()), SubBergman(B_Z2, 0.0))

ROUTE_KERNELS = [
    Szego(),
    WeightedBergman(1.0),
    DBR(B_Z2),
    SubBergman(CZ3, 1.0),
    Sum(Szego(), DBR(B_Z)),
    SchurProduct(Szego(), WeightedBergman(0.0)),
    Scale(2.5, SubBergman(B_Z, 0.0)),
    ConjugateScale(CZ3, WeightedBergman(0.5)),
    REFUTING,
]

GRIDS = {
    "default": default_grid(),
    "boundary": sample_grid(RadialGrid((0.3, 0.6, 0.85, 0.95), 24)),
    "one-angle": sample_grid(RadialGrid((0.2, 0.5, 0.8), 1)),
    "one-radius": sample_grid(RadialGrid((0.7,), 12)),
}

DOMINANCE_PAIRS = [
    (Szego(), SubBergman(B_Z2, 0.0)),
    (SubBergman(B_Z2, 0.0), Szego()),
    (DBR(B_Z), Scale(1.5, Szego())),
    (Sum(Szego(), DBR(BlaschkeProduct((0.0, 0.0, 0.0)))), SchurProduct(Szego(), Szego())),
    (WeightedBergman(0.0), SubBergman(CZ3, 1.0)),
    (SubBergman(B_Z2, 1.0), WeightedBergman(0.0)),
]


@pytest.mark.parametrize("grid", sorted(GRIDS))
@pytest.mark.parametrize("kernel", ROUTE_KERNELS, ids=lambda k: type(k).__name__)
def test_route_spectrum_and_verdict_match_dense(grid, kernel):
    G = gram(kernel, GRIDS[grid])
    blocks = _angle_blocks(G, DEFAULT_TOL)
    assert blocks is not None
    dense = np.linalg.eigvalsh(G.matrix)
    scale = max(1.0, float(np.max(np.abs(dense))))
    routed = np.sort(np.linalg.eigvalsh(blocks).ravel())
    np.testing.assert_allclose(routed, dense, rtol=0.0, atol=1e-10 * scale)

    verdict = is_psd(G)
    reference = is_psd(G.matrix)
    assert verdict.is_psd == reference.is_psd
    assert verdict.min_eigenvalue == pytest.approx(dense[0], abs=1e-10 * scale)
    assert verdict.spectral_norm == pytest.approx(reference.spectral_norm, rel=1e-10)


def test_route_refutes_the_difference_kernel():
    for P in (GRIDS["default"], GRIDS["boundary"], GRIDS["one-radius"]):
        G = gram(REFUTING, P)
        assert _angle_blocks(G, DEFAULT_TOL) is not None
        assert not is_psd(G).is_psd
        assert diagonal_positivity_oracle(REFUTING, 32).nonnegative is False


@pytest.mark.parametrize("grid", sorted(GRIDS))
@pytest.mark.parametrize("pair", range(len(DOMINANCE_PAIRS)))
def test_route_dominance_matches_dense_and_stays_below_oracle(grid, pair):
    k1, k2 = DOMINANCE_PAIRS[pair]
    P = GRIDS[grid]
    assert _angle_blocks(gram(k1, P), DEFAULT_TOL) is not None
    assert _angle_blocks(gram(k2, P), DEFAULT_TOL) is not None
    routed = dominance_delta_min(k1, k2, P)
    # Explicit points carry no grid spec, so they take the dense route.
    dense = dominance_delta_min(k1, k2, PointSet(P.points))
    # The pencil amplifies rounding by the condition of G2, on either route;
    # 1e-6 is the tolerance the theorem verdicts are judged at.
    assert routed.delta_min == pytest.approx(dense.delta_min, rel=1e-6)
    assert routed.regularization_jitter == dense.regularization_jitter
    assert routed.min_eig_at_delta == pytest.approx(dense.min_eig_at_delta, abs=1e-9)
    c1 = diagonal_positivity_oracle(k1, 1024).coefficients
    c2 = diagonal_positivity_oracle(k2, 1024).coefficients
    assert routed.delta_min <= float(np.max(c1 / c2)) * (1.0 + 1e-9)


def test_route_dominating_kernel_not_psd():
    bad = Difference(Szego(), Scale(2.0, Szego()))
    P = default_grid()
    assert _angle_blocks(gram(bad, P), DEFAULT_TOL) is not None
    with pytest.raises(ValueError, match="not PSD"):
        dominance_delta_min(Szego(), bad, P)


def test_non_invariant_symbol_takes_dense_route():
    K = DBR(BlaschkeProduct((0.5,)))
    G = gram(K, default_grid())
    assert _angle_blocks(G, DEFAULT_TOL) is None
    assert is_psd(G) == is_psd(G.matrix)
    # One non-invariant kernel sends the whole pencil to the dense route.
    P = default_grid()
    mixed = dominance_delta_min(K, Szego(), P)
    dense = dominance_delta_min(K, Szego(), PointSet(P.points))
    assert (mixed.delta_min, mixed.min_eig_at_delta) == (
        dense.delta_min, dense.min_eig_at_delta
    )


def test_explicit_point_set_takes_dense_route():
    P = default_grid()
    assert P.spec == RadialGrid((0.2, 0.4, 0.6, 0.8, 0.9), 16)
    # The route reads the grid spec, never the provenance string.
    explicit = PointSet(P.points, provenance=P.provenance)
    assert explicit == P and explicit.spec is None
    assert _angle_blocks(gram(Szego(), explicit), DEFAULT_TOL) is None


def test_matrix_off_block_circulant_takes_dense_route():
    P = default_grid()
    G = gram(Szego(), P)
    rng = np.random.default_rng(3)
    E = rng.normal(size=G.matrix.shape) * 1e-6
    perturbed = GramMatrix(
        matrix=G.matrix + (E + E.T), point_set=P, kernel=Szego(), asymmetry=0.0
    )
    assert _angle_blocks(perturbed, DEFAULT_TOL) is None
    assert is_psd(perturbed) == is_psd(perturbed.matrix)
    # A tolerance of 0 admits no rounding at all, and the rounding bound of
    # a nonzero kernel is positive, so the Gram takes the dense route.
    assert _angle_blocks(G, 0.0) is None


def test_non_finite_gram_falls_back_and_is_rejected():
    P = sample_grid(RadialGrid((0.5,), 4))
    G = gram(Szego(), P)
    bad = G.matrix.copy()
    bad[1, 2] = math.nan
    broken = GramMatrix(matrix=bad, point_set=P, kernel=Szego(), asymmetry=0.0)
    assert _angle_blocks(broken, DEFAULT_TOL) is None
    with pytest.raises(ValueError, match="non-finite"):
        is_psd(broken)
