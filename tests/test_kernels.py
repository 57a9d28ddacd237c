"""Closed-form kernel values, kernel algebra, grids, and Gram assembly."""

import numpy as np
import pytest

from diskkernels import (
    DBR,
    BlaschkeProduct,
    ConjugateScale,
    Difference,
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

RNG_PAIRS = [
    (0.5, 0.5),
    (0.3 + 0.2j, -0.1 + 0.6j),
    (0.0, 0.85j),
    (-0.7, 0.4 - 0.4j),
]


def test_szego_closed_form():
    assert eval_kernel(Szego(), 0.5, 0.5) == pytest.approx(4.0 / 3.0)
    assert eval_kernel(Szego(), 0.0, 0.9j) == pytest.approx(1.0)


def test_weighted_bergman_closed_form():
    assert eval_kernel(WeightedBergman(0.0), 0.5, 0.5) == pytest.approx(16.0 / 9.0)
    # alpha = -1 collapses to the Szego kernel.
    for z, w in RNG_PAIRS:
        assert eval_kernel(WeightedBergman(-1.0), z, w) == pytest.approx(
            eval_kernel(Szego(), z, w)
        )


def test_weighted_bergman_rejects_alpha_below_hardy():
    with pytest.raises(ValueError):
        WeightedBergman(-1.5)
    with pytest.raises(ValueError):
        SubBergman(BlaschkeProduct((0.0,)), -0.5)


def test_sub_bergman_identity_symbol_recovers_szego():
    K = SubBergman(BlaschkeProduct((0.0,)), 0.0)
    for z, w in RNG_PAIRS:
        assert eval_kernel(K, z, w) == pytest.approx(eval_kernel(Szego(), z, w))


def test_dbr_identity_symbol_is_constant_one():
    K = DBR(BlaschkeProduct((0.0,)))
    for z, w in RNG_PAIRS:
        assert eval_kernel(K, z, w) == pytest.approx(1.0)


def test_sub_bergman_factors_as_schur_product():
    b = BlaschkeProduct((0.5, -0.3 + 0.2j))
    left = SubBergman(b, 1.0)
    right = SchurProduct(DBR(b), WeightedBergman(0.0))
    for z, w in RNG_PAIRS:
        assert eval_kernel(left, z, w) == pytest.approx(eval_kernel(right, z, w))


def test_kernel_algebra_nodes_evaluate_pointwise():
    K1, K2 = Szego(), WeightedBergman(0.0)
    b = BlaschkeProduct((0.4,))
    z, w = 0.3 + 0.2j, -0.1 + 0.5j
    v1, v2 = eval_kernel(K1, z, w), eval_kernel(K2, z, w)
    assert eval_kernel(Sum(K1, K2), z, w) == pytest.approx(v1 + v2)
    assert eval_kernel(Difference(K2, K1), z, w) == pytest.approx(v2 - v1)
    assert eval_kernel(SchurProduct(K1, K2), z, w) == pytest.approx(v1 * v2)
    assert eval_kernel(Scale(2.5, K1), z, w) == pytest.approx(2.5 * v1)
    fz = (0.4 - z) / (1 - 0.4 * z)
    fw = (0.4 - w) / (1 - 0.4 * w)
    assert eval_kernel(ConjugateScale(b, K1), z, w) == pytest.approx(
        fz * np.conj(fw) * v1
    )


def test_scale_rejects_negative_factor():
    with pytest.raises(ValueError):
        Scale(-1.0, Szego())


def test_conjugate_symmetry_on_random_pairs():
    rng = np.random.default_rng(3)
    kernels = [
        Szego(),
        WeightedBergman(1.5),
        DBR(BlaschkeProduct((0.5, -0.2j))),
        SubBergman(BlaschkeProduct((0.3,)), 2.0),
        Difference(Scale(2.0, Szego()), WeightedBergman(0.0)),
    ]
    for _ in range(20):
        z, w = (rng.uniform(-0.6, 0.6) + 1j * rng.uniform(-0.6, 0.6) for _ in "zw")
        for K in kernels:
            assert eval_kernel(K, z, w) == pytest.approx(
                np.conj(eval_kernel(K, w, z)), abs=1e-12
            )


def test_is_positivity_preserving_flags_difference_nodes():
    assert is_positivity_preserving(SchurProduct(Szego(), Scale(2.0, Szego())))
    assert not is_positivity_preserving(Sum(Szego(), Difference(Szego(), Szego())))


def test_weighted_bergman_coefficients_low_orders():
    np.testing.assert_allclose(
        weighted_bergman_coefficients(0.0, 4), [1, 2, 3, 4, 5], rtol=1e-15
    )
    np.testing.assert_allclose(
        weighted_bergman_coefficients(-1.0, 3), [1, 1, 1, 1], rtol=1e-15
    )
    # Oracle: binomial series (1-x)^{-(alpha+2)} via the Gamma function.
    from scipy.special import gammaln

    alpha = 0.7
    n = np.arange(9)
    oracle = np.exp(gammaln(n + alpha + 2) - gammaln(alpha + 2) - gammaln(n + 1))
    np.testing.assert_allclose(
        weighted_bergman_coefficients(alpha, 8), oracle, rtol=1e-13
    )


def test_gram_trivial_values():
    G = gram(Szego(), PointSet((0.0,))).matrix
    np.testing.assert_allclose(G, [[1.0]], atol=1e-15)
    G = gram(Szego(), PointSet((0.0, 0.5))).matrix
    np.testing.assert_allclose(G, [[1.0, 1.0], [1.0, 4.0 / 3.0]], atol=1e-15)
    G = gram(DBR(BlaschkeProduct((0.0,))), PointSet((0.0, 0.5))).matrix
    np.testing.assert_allclose(G, np.ones((2, 2)), atol=1e-15)


def test_gram_is_hermitian_and_tracks_asymmetry():
    P = default_grid()
    result = gram(SubBergman(BlaschkeProduct((0.5, -0.2j)), 1.0), P)
    np.testing.assert_allclose(result.matrix, result.matrix.conj().T, atol=0)
    assert result.asymmetry <= 1e-12 * max(1.0, np.abs(result.matrix).max())


def test_gram_additivity_and_schur_factorization():
    P = sample_grid(RadialGrid((0.3, 0.7), 6))
    K1, K2 = Szego(), WeightedBergman(0.5)
    G_sum = gram(Sum(K1, K2), P).matrix
    np.testing.assert_allclose(
        G_sum, gram(K1, P).matrix + gram(K2, P).matrix, atol=1e-12
    )
    G_schur = gram(SchurProduct(K1, K2), P).matrix
    np.testing.assert_allclose(
        G_schur, gram(K1, P).matrix * gram(K2, P).matrix, atol=1e-12
    )


def test_sample_grid_radial_single_circle():
    pts = sample_grid(RadialGrid((0.5,), 4)).points
    np.testing.assert_allclose(pts, [0.5, 0.5j, -0.5, -0.5j], atol=1e-15)


def test_sample_grid_cardinality_and_determinism():
    assert len(sample_grid(RadialGrid((0.3, 0.6), 2))) == 4
    a = sample_grid(RandomGrid(10, 0.9, 7)).points
    b = sample_grid(RandomGrid(10, 0.9, 7)).points
    assert a == b  # bit-for-bit
    assert all(abs(z) <= 0.9 for z in a)


def test_default_grid_size():
    assert len(default_grid()) == 80


def test_grid_specs_reject_bad_radii():
    with pytest.raises(ValueError):
        RadialGrid((1.5,), 4)
    with pytest.raises(ValueError):
        RadialGrid((0.3, 0.3), 4)
    with pytest.raises(ValueError):
        RandomGrid(0, 0.9, 1)


def test_point_set_rejects_duplicates_and_boundary_points():
    with pytest.raises(ValueError):
        PointSet((0.5, 0.5 + 1e-12))
    with pytest.raises(Exception):
        PointSet((0.5, 1.0))


class _NanSymbol:
    def eval(self, z):
        return np.full(np.shape(z), np.nan, dtype=complex)


def test_gram_rejects_non_finite_entries_without_warnings():
    import warnings

    P = default_grid()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="non-finite"):
            gram(ConjugateScale(_NanSymbol(), Szego()), P)
        # scale(1e400,szego): the factor parses to inf.
        with pytest.raises(ValueError, match="non-finite"):
            gram(Scale(float("1e400"), Szego()), P)


def test_sample_grid_keeps_its_spec():
    spec = RadialGrid((0.3, 0.6), 5)
    assert sample_grid(spec).spec == spec
    spec = RandomGrid(6, 0.8, 2)
    assert sample_grid(spec).spec == spec
