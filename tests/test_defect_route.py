"""Routes of ``defect`` besides the direct complex formula.

Real route, for symbols symmetric about a line through 0:
b(z) = c g(conj(omega) z) with g real gives D(b) = U (I - T_g T_g^T) U*,
U = diag(conj(omega)^n). Basis route, for the other finite Blaschke
products on H^2: D = E^T conj(E) with E the Takenaka-Malmquist Taylor
matrix. Each route must agree with the direct complex formula, kept here,
and leave every other symbol on the direct formula bit for bit.
"""

import cmath
import math

import numpy as np
import pytest

from diskkernels import (
    AtomicSingularInner,
    BlaschkeProduct,
    ConstantFunction,
    SpaceWeight,
    TaylorPolynomial,
    defect,
    taylor_coefficients,
    kernel_section_taylor,
    range_norm,
    takenaka_malmquist,
    toeplitz_analytic,
    weighted_bergman_coefficients,
)
from diskkernels import operators
from diskkernels.functions import axis_phases

OMEGA = cmath.exp(0.7j)

SYMMETRIC = {
    "atomic-1": AtomicSingularInner(1.0),
    "atomic-i": AtomicSingularInner(0.5, 1j),
    "atomic-minus-1": AtomicSingularInner(2.0, -1.0),
    "atomic-0.6+0.8i": AtomicSingularInner(1.0, 0.6 + 0.8j),
    "atomic-generic": AtomicSingularInner(0.75, cmath.exp(2.3j)),
    "blaschke-line": BlaschkeProduct(
        (0.3 * OMEGA, -0.5 * OMEGA, 0.0, 0.6 * OMEGA), cmath.exp(-1.1j)
    ),
    "blaschke-diagonal": BlaschkeProduct((0.3 + 0.3j, -0.5 - 0.5j)),
    "blaschke-one-zero": BlaschkeProduct((-0.2 + 0.4j,)),
    "blaschke-origin": BlaschkeProduct((0.0, 0.0), 1j),
    "poly-real": TaylorPolynomial((0.3, -0.2, 0.4)),
    "const": ConstantFunction(0.3 - 0.4j),
}

NOT_SYMMETRIC = {
    "blaschke": BlaschkeProduct((0.5, -0.2 + 0.3j)),
    "blaschke-two-lines": BlaschkeProduct((0.0, 0.4, 0.3j)),
    "poly-complex": TaylorPolynomial((0.3, 0.2j)),
}


def direct_defect_matrix(b, weight, degree):
    """I - T_b T_b*, symmetrized, as the complex path forms it."""
    T = toeplitz_analytic(b, weight, degree).matrix
    D = np.eye(degree + 1, dtype=complex) - T @ T.conj().T
    return 0.5 * (D + D.conj().T)


def direct_kernel_section(b, alpha, w, degree):
    """Section coefficients from b's own Taylor coefficients."""
    numer = -np.conj(complex(b.eval(w))) * b.taylor(degree)
    numer[0] += 1.0
    base = weighted_bergman_coefficients(alpha, degree) * np.conj(w) ** np.arange(
        degree + 1
    )
    return np.convolve(numer, base)[: degree + 1]


@pytest.fixture
def eigh_dtypes(monkeypatch):
    """Record the dtype of every matrix ``defect`` hands to eigh."""
    seen = []
    eigh = np.linalg.eigh

    def spy(a, *args, **kwargs):
        seen.append(a.dtype)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(operators.np.linalg, "eigh", spy)
    return seen


@pytest.mark.parametrize("name", sorted(SYMMETRIC))
def test_symbol_is_a_rotated_real_profile(name):
    b = SYMMETRIC[name]
    omega, g = b.reflection_axis()
    assert abs(abs(omega) - 1.0) <= 1e-15
    assert np.all(g.taylor(40).imag == 0.0)
    rng = np.random.default_rng(3)
    z = 0.9 * np.sqrt(rng.random(50)) * np.exp(2j * np.pi * rng.random(50))
    bz = b.eval(z)
    gz = g.eval(np.conj(omega) * z)
    k = int(np.argmax(np.abs(gz)))
    c = bz[k] / gz[k]
    assert abs(abs(c) - 1.0) <= 1e-14
    np.testing.assert_allclose(bz, c * gz, rtol=0, atol=1e-14)


@pytest.mark.parametrize("name", sorted(NOT_SYMMETRIC))
def test_symbol_without_axis(name):
    assert NOT_SYMMETRIC[name].reflection_axis() is None


def test_axis_of_each_class():
    atom = cmath.exp(0.4j)
    assert AtomicSingularInner(1.5, atom).reflection_axis() == (
        atom,
        AtomicSingularInner(1.5),
    )
    omega, g = SYMMETRIC["blaschke-line"].reflection_axis()
    assert omega == pytest.approx(OMEGA, abs=1e-15)
    assert g.zeros == pytest.approx((0.3, -0.5, 0.0, 0.6), abs=1e-15)
    assert g.unimodular_constant == 1.0
    poly = SYMMETRIC["poly-real"]
    assert poly.reflection_axis() == (1.0, poly)
    assert ConstantFunction(-0.5j).reflection_axis() == (1.0, ConstantFunction(0.5))
    # The constructor admits atoms 1e-12 off the circle; the identity does not.
    assert AtomicSingularInner(1.0, 1.0 + 1e-13).reflection_axis() is None


@pytest.mark.parametrize("alpha", [-1.0, 0.0, 1.0])
@pytest.mark.parametrize("name", sorted(SYMMETRIC))
def test_route_matches_direct_formula(name, alpha, eigh_dtypes):
    b = SYMMETRIC[name]
    N = 64
    weight = SpaceWeight.for_degree(alpha, N)
    op = defect(b, weight, N)
    assert eigh_dtypes == [np.float64]
    direct = direct_defect_matrix(b, weight, N)
    assert op.matrix.dtype == complex
    np.testing.assert_array_equal(op.matrix, op.matrix.conj().T)
    np.testing.assert_allclose(op.matrix, direct, rtol=0, atol=1e-13)
    want = np.clip(np.linalg.eigvalsh(direct), 0.0, None)
    np.testing.assert_allclose(op.sqrt_eigenvalues**2, want, rtol=0, atol=1e-12)
    vecs = op.eigenvectors
    np.testing.assert_allclose(vecs.conj().T @ vecs, np.eye(N + 1), rtol=0, atol=1e-13)
    rebuilt = (vecs * op.sqrt_eigenvalues**2) @ vecs.conj().T
    np.testing.assert_allclose(rebuilt, op.matrix, rtol=0, atol=1e-12)
    assert op.clip_magnitude <= 1e-12


def former_real_route(b, weight, degree):
    """The real route of ``defect`` as its own branch ran it, verbatim."""
    omega, g = b.reflection_axis()
    coeffs = taylor_coefficients(g, degree)
    T = operators._toeplitz_fill(coeffs.real, weight, degree)
    D = np.eye(degree + 1) - T @ T.T
    D = 0.5 * (D + D.T)
    evals, vecs = np.linalg.eigh(D)
    phases = axis_phases(omega, degree)
    D = D * np.outer(phases, phases.conj())
    D = 0.5 * (D + D.conj().T)
    return D, evals, phases[:, None] * vecs


@pytest.mark.parametrize("alpha", [-1.0, 0.0, 1.5])
@pytest.mark.parametrize("N", [16, 128])
@pytest.mark.parametrize("name", sorted(SYMMETRIC))
def test_route_keeps_the_bits_of_its_former_branch(name, N, alpha, eigh_dtypes):
    b = SYMMETRIC[name]
    weight = SpaceWeight.for_degree(alpha, N)
    op = defect(b, weight, N)
    assert eigh_dtypes == [np.float64]
    D, evals, vecs = former_real_route(b, weight, N)
    assert op.matrix.tobytes() == D.tobytes()
    assert op.eigenvectors.tobytes() == vecs.tobytes()
    assert op.sqrt_eigenvalues.tobytes() == np.sqrt(np.clip(evals, 0.0, None)).tobytes()
    assert op.clip_magnitude == float(max(0.0, -np.min(evals)))


@pytest.mark.parametrize("N", [128, 512])
@pytest.mark.parametrize(
    "b",
    [
        AtomicSingularInner(0.5, cmath.exp(1.9j)),
        AtomicSingularInner(2.0, 0.6 - 0.8j),
        SYMMETRIC["blaschke-line"],
    ],
)
def test_range_norm_of_kernel_sections_against_closed_form(b, N, eigh_dtypes):
    weight = SpaceWeight.for_degree(-1.0, N)
    op = defect(b, weight, N)
    assert eigh_dtypes == [np.float64]
    for w in (0.2 * cmath.exp(0.3j), 0.4j, -0.6 + 0.0j, 0.6 * cmath.exp(-2.0j)):
        got = op.range_norm(kernel_section_taylor(b, -1.0, w, N))
        exact = math.sqrt((1.0 - abs(complex(b.eval(w))) ** 2) / (1.0 - abs(w) ** 2))
        assert got == pytest.approx(exact, rel=1e-10)


@pytest.mark.parametrize("alpha", [-1.0, 1.0])
@pytest.mark.parametrize("name", sorted(SYMMETRIC))
def test_kernel_section_is_the_rotated_section_of_the_profile(name, alpha):
    b = SYMMETRIC[name]
    w = 0.55 * cmath.exp(-0.9j)
    got = kernel_section_taylor(b, alpha, w, 96)
    want = direct_kernel_section(b, alpha, w, 96)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("name", sorted(NOT_SYMMETRIC))
def test_symbol_without_axis_keeps_the_direct_formula_bit_for_bit(name, eigh_dtypes):
    b = NOT_SYMMETRIC[name]
    N = 48
    weight = SpaceWeight.for_degree(0.0, N)
    op = defect(b, weight, N)
    assert eigh_dtypes == [np.complex128]
    D = direct_defect_matrix(b, weight, N)
    evals, vecs = np.linalg.eigh(D)
    np.testing.assert_array_equal(op.matrix, D)
    np.testing.assert_array_equal(op.eigenvectors, vecs)
    np.testing.assert_array_equal(op.sqrt_eigenvalues, np.sqrt(np.clip(evals, 0.0, None)))
    assert op.clip_magnitude == float(max(0.0, -np.min(evals)))
    w = 0.3 - 0.45j
    np.testing.assert_array_equal(
        kernel_section_taylor(b, 0.0, w, N), direct_kernel_section(b, 0.0, w, N)
    )


@pytest.mark.parametrize(
    "b",
    [
        TaylorPolynomial((0.0, 2.0), unit_ball_check=False),
        ConstantFunction(-1.5, unit_ball_check=False),
    ],
)
def test_clip_error_is_raised_on_the_route(b, eigh_dtypes):
    with pytest.raises(ValueError, match="clip limit"):
        defect(b, SpaceWeight.for_degree(0.0, 16), 16)
    assert eigh_dtypes == [np.float64]


class _ClaimedAxis:
    """A symbol that reports a given profile as its axis, for the guard."""

    def __init__(self, b, profile):
        self.b = b
        self.profile = profile

    def taylor(self, order):
        return self.b.taylor(order)

    def eval(self, z):
        return self.b.eval(z)

    def reflection_axis(self):
        return 1.0, self.profile


def test_profile_with_imaginary_part_above_the_bound_falls_back(eigh_dtypes):
    b = TaylorPolynomial((0.3, 0.2 + 1e-9j))
    claimed = _ClaimedAxis(b, b)
    N = 32
    weight = SpaceWeight.for_degree(0.0, N)
    op = defect(claimed, weight, N)
    assert eigh_dtypes == [np.complex128]
    np.testing.assert_array_equal(op.matrix, direct_defect_matrix(b, weight, N))


def test_profile_with_imaginary_part_below_the_bound_takes_the_route(eigh_dtypes):
    # 2 * 33 * 1e-17 is far below 33 eps: the dropped part is rounding-sized.
    b = TaylorPolynomial((0.3, 0.2 + 1e-17j))
    N = 32
    weight = SpaceWeight.for_degree(0.0, N)
    op = defect(_ClaimedAxis(b, b), weight, N)
    assert eigh_dtypes == [np.float64]
    np.testing.assert_allclose(
        op.matrix, direct_defect_matrix(b, weight, N), rtol=0, atol=1e-14
    )


AXIS_FREE_BLASCHKE = {
    "two-zeros": BlaschkeProduct((0.5, -0.2 + 0.3j)),
    "zero-at-origin": BlaschkeProduct((0.0, 0.4, 0.3j)),
    "repeated-zero": BlaschkeProduct((0.3j, 0.3j, 0.5)),
    "constant": BlaschkeProduct((0.6, 0.2j, -0.5 + 0.1j), cmath.exp(0.4j)),
}


@pytest.fixture
def eigh_shapes(monkeypatch):
    """Record the shape of every matrix ``defect`` hands to eigh."""
    seen = []
    eigh = np.linalg.eigh

    def spy(a, *args, **kwargs):
        seen.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(operators.np.linalg, "eigh", spy)
    return seen


def check_against_direct_formula(op, b, weight, N):
    direct = direct_defect_matrix(b, weight, N)
    assert op.matrix.shape == op.eigenvectors.shape == (N + 1, N + 1)
    np.testing.assert_array_equal(op.matrix, op.matrix.conj().T)
    np.testing.assert_allclose(op.matrix, direct, rtol=0, atol=1e-13)
    want = np.clip(np.linalg.eigvalsh(direct), 0.0, None)
    np.testing.assert_allclose(op.sqrt_eigenvalues**2, want, rtol=0, atol=1e-12)
    assert np.all(np.diff(op.sqrt_eigenvalues) >= 0.0)
    vecs = op.eigenvectors
    np.testing.assert_allclose(vecs.conj().T @ vecs, np.eye(N + 1), rtol=0, atol=1e-13)
    rebuilt = (vecs * op.sqrt_eigenvalues**2) @ vecs.conj().T
    np.testing.assert_allclose(rebuilt, op.matrix, rtol=0, atol=1e-12)
    assert op.clip_magnitude <= 1e-12


@pytest.mark.parametrize("name", sorted(AXIS_FREE_BLASCHKE))
def test_basis_route_matches_direct_formula(name, eigh_shapes):
    b = AXIS_FREE_BLASCHKE[name]
    assert b.reflection_axis() is None
    N = 64
    weight = SpaceWeight.for_degree(-1.0, N)
    op = defect(b, weight, N)
    assert eigh_shapes == [(b.degree, b.degree)]
    check_against_direct_formula(op, b, weight, N)
    # D has rank d, and its null space gets exact zeros: no rounding-level
    # eigenvalue is left for range_norm to take for a range direction.
    assert np.count_nonzero(op.sqrt_eigenvalues) == b.degree
    assert np.all(op.sqrt_eigenvalues[-b.degree :] > 0.1)


def test_basis_route_with_more_zeros_than_coefficients(eigh_shapes):
    b = BlaschkeProduct((0.3, 0.5j, -0.6, 0.2 - 0.4j))
    N = 2
    weight = SpaceWeight.for_degree(-1.0, N)
    op = defect(b, weight, N)
    assert eigh_shapes == [(N + 1, N + 1)]
    check_against_direct_formula(op, b, weight, N)


@pytest.mark.parametrize("N", [128, 512])
@pytest.mark.parametrize("name", sorted(AXIS_FREE_BLASCHKE))
def test_basis_route_range_norms_of_kernel_sections(name, N):
    b = AXIS_FREE_BLASCHKE[name]
    op = defect(b, SpaceWeight.for_degree(-1.0, N), N)
    for w in (0.2 * cmath.exp(0.3j), 0.4j, -0.6 + 0.0j, 0.6 * cmath.exp(-2.0j)):
        got = op.range_norm(kernel_section_taylor(b, -1.0, w, N))
        exact = math.sqrt((1.0 - abs(complex(b.eval(w))) ** 2) / (1.0 - abs(w) ** 2))
        assert got == pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize("name", sorted(AXIS_FREE_BLASCHKE))
def test_basis_route_range_norms_of_constant_and_basis_rows(name):
    b = AXIS_FREE_BLASCHKE[name]
    N = 96
    weight = SpaceWeight.for_degree(-1.0, N)
    # 1 lies in the model space exactly when b(0) = 0.
    one = range_norm([1.0], b, weight, N)
    if b.zeros[0] == 0:
        assert one == pytest.approx(1.0, abs=1e-12)
    else:
        assert one == math.inf
    op = defect(b, weight, N)
    for row in takenaka_malmquist(b).taylor_matrix(N):
        assert op.range_norm(row) == pytest.approx(1.0, abs=1e-12)


# Low-rank route: the Hardy defect of any symbol the basis route does not
# take, from a pivoted partial Cholesky of the D the other routes formed,
# at N + 1 >= 4 FACTOR_BLOCK and when tr D leaves the factor room.
LOW_RANK_SIZES = (255, 511, 1023)


@pytest.fixture
def route_calls(monkeypatch):
    """The orders at which ``defect`` started the pivoted factor and the residual bound."""
    calls = {"rows": [], "bound": []}

    def spy(name, real):
        def called(M, *args, **kwargs):
            calls[name].append(len(M))
            return real(M, *args, **kwargs)

        return called

    monkeypatch.setattr(operators, "_pivoted_rows", spy("rows", operators._pivoted_rows))
    monkeypatch.setattr(operators, "_residual_bound", spy("bound", operators._residual_bound))
    return calls


@pytest.mark.parametrize("N", LOW_RANK_SIZES)
@pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
def test_low_rank_route_for_a_singular_inner_symbol(sigma, N, eigh_dtypes, eigh_shapes):
    b = AtomicSingularInner(sigma, cmath.exp(2.3j))
    weight = SpaceWeight.for_degree(-1.0, N)
    op = defect(b, weight, N)
    assert eigh_dtypes == [np.float64]
    (k, k2), = eigh_shapes
    assert k == k2 and 0 < k <= (N + 1) // 4
    check_against_direct_formula(op, b, weight, N)
    # The null space of the factor gets exact zeros.
    assert np.count_nonzero(op.sqrt_eigenvalues) == k
    for w in (0.2 * cmath.exp(0.3j), 0.4j, -0.6 + 0.0j, 0.6 * cmath.exp(-2.0j)):
        got = op.range_norm(kernel_section_taylor(b, -1.0, w, N))
        exact = math.sqrt((1.0 - abs(complex(b.eval(w))) ** 2) / (1.0 - abs(w) ** 2))
        assert got == pytest.approx(exact, rel=1e-12)


def test_low_rank_route_on_the_complex_formula(eigh_dtypes, eigh_shapes):
    # The same T as a singular inner symbol, through a polynomial with no axis.
    N = 255
    atom = AtomicSingularInner(1.0, cmath.exp(2.3j))
    b = TaylorPolynomial(atom.taylor(N), unit_ball_check=False)
    assert b.reflection_axis() is None
    weight = SpaceWeight.for_degree(-1.0, N)
    op = defect(b, weight, N)
    assert eigh_dtypes == [np.complex128]
    (k, k2), = eigh_shapes
    assert k == k2 and 0 < k <= (N + 1) // 4
    check_against_direct_formula(op, b, weight, N)
    assert np.count_nonzero(op.sqrt_eigenvalues) == k


@pytest.mark.parametrize("b", [TaylorPolynomial((0.5, 0.3j)), TaylorPolynomial((0.5, 0.3))])
def test_low_rank_route_skips_a_trace_too_large_for_its_rows(b, eigh_dtypes, route_calls):
    # tr D is about 676 at N = 1023, far above the 256 rows it would allow,
    # so the complex formula and the real route keep their bits.
    N = 1023
    weight = SpaceWeight.for_degree(-1.0, N)
    op = defect(b, weight, N)
    assert route_calls == {"rows": [], "bound": []}
    if b.reflection_axis() is None:
        assert eigh_dtypes == [np.complex128]
        D = direct_defect_matrix(b, weight, N)
        evals, vecs = np.linalg.eigh(D)
    else:
        assert eigh_dtypes == [np.float64]
        D, evals, vecs = former_real_route(b, weight, N)
    assert op.matrix.tobytes() == D.tobytes()
    assert op.eigenvectors.tobytes() == vecs.tobytes()
    assert op.sqrt_eigenvalues.tobytes() == np.sqrt(np.clip(evals, 0.0, None)).tobytes()


def test_low_rank_route_stays_off_the_weighted_spaces(eigh_shapes, route_calls):
    b = AtomicSingularInner(1.0, cmath.exp(2.3j))
    N = 511
    weight = SpaceWeight.for_degree(0.0, N)
    op = defect(b, weight, N)
    assert eigh_shapes == [(N + 1, N + 1)]
    assert route_calls == {"rows": [], "bound": []}
    D, evals, vecs = former_real_route(b, weight, N)
    assert op.matrix.tobytes() == D.tobytes()
    assert op.eigenvectors.tobytes() == vecs.tobytes()
    assert op.sqrt_eigenvalues.tobytes() == np.sqrt(np.clip(evals, 0.0, None)).tobytes()


@pytest.mark.parametrize(
    "b, tried",
    [
        # tr D < 0: the trace rule skips the route.
        (TaylorPolynomial((0.0, 2.0), unit_ball_check=False), False),
        # D = I - (1 + 1e-6)^2 T T*, T of a singular inner symbol: the
        # factor finishes on the positive part, and the residual bound,
        # about 2e-6 sqrt(N), turns it down.
        (
            TaylorPolynomial(
                (1.0 + 1e-6) * AtomicSingularInner(1.0, cmath.exp(2.3j)).taylor(255),
                unit_ball_check=False,
            ),
            True,
        ),
    ],
)
def test_low_rank_route_leaves_a_non_schur_symbol_to_the_clip_error(b, tried, route_calls):
    N = 255
    with pytest.raises(ValueError, match="clip limit"):
        defect(b, SpaceWeight.for_degree(-1.0, N), N)
    assert route_calls == {"rows": [N + 1] * tried, "bound": [N + 1] * tried}
