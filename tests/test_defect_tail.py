"""The tail that the basis and low-rank routes of ``defect`` share.

Both routes hand a k x k ``eigh`` the R of a QR of their k rows L, and
build the (N + 1)^2 eigenvectors [Q[:, k:], Q[:, :k] W] from the compact
WY form Q = I - V T V* of geqrf's reflectors instead of a complete Q.
The complete-QR tail the routes ran before is kept here as the reference:
the eigenvalues must keep its bits, the eigenvectors its values to
rounding.
"""

import cmath
import tracemalloc

import numpy as np
import pytest

from diskkernels import (
    AtomicSingularInner,
    BlaschkeProduct,
    SpaceWeight,
    TaylorPolynomial,
    defect,
    taylor_coefficients,
)
from diskkernels import operators
from diskkernels.functions import axis_phases

QR = np.linalg.qr


def complete_qr_tail(Lt, degree):
    """The shared tail as it ran with a complete QR, verbatim."""
    Q, R = QR(Lt, mode="complete")
    R = R[: min(R.shape)]
    evals, vecs = np.linalg.eigh(R @ R.conj().T)
    k = len(evals)
    evals = np.concatenate([np.zeros(degree + 1 - k), evals])
    Q[:, : degree + 1 - k], Q[:, degree + 1 - k :] = Q[:, k:], Q[:, :k] @ vecs
    return evals, Q


@pytest.fixture
def qr_calls(monkeypatch):
    """Each (L^T, mode, result) that ``defect`` handed to np.linalg.qr."""
    calls = []

    def spy(a, mode="reduced"):
        out = QR(a, mode=mode)
        calls.append((a.copy(), mode, out))
        return out

    monkeypatch.setattr(operators.np.linalg, "qr", spy)
    return calls


def unphased(op, b, N):
    """The eigenvectors without the real route's phases, and the phases."""
    axis = b.reflection_axis()
    phases = axis_phases(axis[0], N) if axis is not None else np.ones(N + 1)
    return phases.conj()[:, None] * op.eigenvectors, phases


def check_against_complete_qr(op, b, N, qr_calls):
    ((Lt, mode, _),) = qr_calls
    assert mode == "raw"
    evals, Q = complete_qr_tail(Lt, N)
    assert op.sqrt_eigenvalues.tobytes() == np.sqrt(np.clip(evals, 0.0, None)).tobytes()
    vecs, phases = unphased(op, b, N)
    assert op.eigenvectors.shape == (N + 1, N + 1)
    np.testing.assert_allclose(op.eigenvectors, phases[:, None] * Q, rtol=0, atol=1e-13)
    np.testing.assert_allclose(
        op.eigenvectors.conj().T @ op.eigenvectors, np.eye(N + 1), rtol=0, atol=1e-13
    )
    # The null-space columns come first, and are orthogonal to range(L^T).
    null = vecs[:, : N + 1 - min(Lt.shape)]
    np.testing.assert_allclose(null.conj().T @ Lt, 0.0, rtol=0, atol=1e-13)
    return Lt


AXIS_FREE_BLASCHKE = {
    "two-zeros": BlaschkeProduct((0.5, -0.2 + 0.3j)),
    "zero-at-origin": BlaschkeProduct((0.0, 0.4, 0.3j)),
    "repeated-zero": BlaschkeProduct((0.3j, 0.3j, 0.5)),
    "constant": BlaschkeProduct((0.6, 0.2j, -0.5 + 0.1j), cmath.exp(0.4j)),
}


@pytest.mark.parametrize("N", [64, 512])
@pytest.mark.parametrize("name", sorted(AXIS_FREE_BLASCHKE))
def test_basis_route_tail_matches_the_complete_qr(name, N, qr_calls):
    b = AXIS_FREE_BLASCHKE[name]
    op = defect(b, SpaceWeight.for_degree(-1.0, N), N)
    Lt = check_against_complete_qr(op, b, N, qr_calls)
    assert Lt.shape == (N + 1, b.degree)


@pytest.mark.parametrize("N", [255, 1023])
@pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
def test_low_rank_route_tail_matches_the_complete_qr(sigma, N, qr_calls):
    b = AtomicSingularInner(sigma, cmath.exp(2.3j))
    op = defect(b, SpaceWeight.for_degree(-1.0, N), N)
    Lt = check_against_complete_qr(op, b, N, qr_calls)
    assert 0 < Lt.shape[1] <= (N + 1) // 4
    assert Lt.dtype == np.float64


@pytest.mark.parametrize(
    "b, alpha, N",
    [
        # Dense real route: below the low-rank route's size, and off H^2.
        (AtomicSingularInner(1.0, cmath.exp(2.3j)), -1.0, 128),
        (AtomicSingularInner(1.0, cmath.exp(2.3j)), 0.0, 255),
        # Complex formula: no axis, not a Blaschke product.
        (TaylorPolynomial((0.3, 0.2j)), -1.0, 48),
        # Blaschke products off H^2 have no basis route.
        (BlaschkeProduct((0.5, -0.2 + 0.3j)), 1.0, 64),
    ],
)
def test_dense_routes_take_no_qr(b, alpha, N, qr_calls):
    defect(b, SpaceWeight.for_degree(alpha, N), N)
    assert qr_calls == []


def test_no_rows_gives_the_identity(qr_calls):
    # D = I - T T* = 0 for a unimodular constant: k = 0 reflectors.
    b = TaylorPolynomial((1.0,))
    N = 255
    op = defect(b, SpaceWeight.for_degree(-1.0, N), N)
    Lt = check_against_complete_qr(op, b, N, qr_calls)
    assert Lt.shape == (N + 1, 0)
    assert op.eigenvectors.tobytes() == np.eye(N + 1, dtype=complex).tobytes()
    assert not np.any(op.sqrt_eigenvalues)
    assert op.range_norm([1.0]) == np.inf


def test_more_rows_than_coefficients(qr_calls):
    # k = N + 1: the null-space block is empty.
    b = BlaschkeProduct((0.3, 0.5j, -0.6, 0.2 - 0.4j))
    N = 2
    op = defect(b, SpaceWeight.for_degree(-1.0, N), N)
    Lt = check_against_complete_qr(op, b, N, qr_calls)
    assert Lt.shape == (N + 1, 4)
    assert np.all(op.sqrt_eigenvalues > 0.0)


def test_reflectors_with_zero_tau(qr_calls):
    # The rows of b = z^2 are unit vectors, so geqrf sets tau = 0.
    b = BlaschkeProduct((0.0, 0.0))
    N = 255
    op = defect(b, SpaceWeight.for_degree(-1.0, N), N)
    check_against_complete_qr(op, b, N, qr_calls)
    ((_, _, (_, tau)),) = qr_calls
    assert len(tau) == 2 and not np.any(tau)
    assert np.count_nonzero(op.sqrt_eigenvalues) == 2


def former_real_route(b, weight, degree):
    """The dense real route of ``defect`` as its own branch ran it, verbatim."""
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


class _ClaimedAxis:
    """A symbol that reports itself as its own real profile."""

    def __init__(self, b):
        self.b = b

    def taylor(self, order):
        return self.b.taylor(order)

    def eval(self, z):
        return self.b.eval(z)

    def reflection_axis(self):
        return 1.0, self.b


@pytest.mark.parametrize(
    "b, fills",
    [
        # Real coefficients: no Toeplitz matrix of the imaginary part.
        (AtomicSingularInner(1.0, cmath.exp(2.3j)), 1),
        (TaylorPolynomial((0.3, -0.2, 0.4)), 1),
        # An imaginary part of 1e-17 is filled for its norm, then dropped.
        (_ClaimedAxis(TaylorPolynomial((0.3, 0.2 + 1e-17j))), 2),
    ],
)
@pytest.mark.parametrize("alpha", [-1.0, 1.0])
def test_drift_skip_keeps_the_real_route_bits(b, fills, alpha, monkeypatch):
    N = 64
    seen = []
    fill = operators._toeplitz_fill

    def spy(coeffs, *args):
        seen.append(coeffs.copy())
        return fill(coeffs, *args)

    monkeypatch.setattr(operators, "_toeplitz_fill", spy)
    weight = SpaceWeight.for_degree(alpha, N)
    op = defect(b, weight, N)
    assert len(seen) == fills
    D, evals, vecs = former_real_route(b, weight, N)
    assert op.matrix.tobytes() == D.tobytes()
    assert op.eigenvectors.tobytes() == vecs.tobytes()
    assert op.sqrt_eigenvalues.tobytes() == np.sqrt(np.clip(evals, 0.0, None)).tobytes()


def test_low_rank_defect_memory():
    b = AtomicSingularInner(1.0, cmath.exp(2.3j))
    N = 1023
    weight = SpaceWeight.for_degree(-1.0, N)
    unit = (N + 1) ** 2 * 16
    tracemalloc.start()
    try:
        op = defect(b, weight, N)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # Measured: a peak of 3.16 complex (N + 1)^2 arrays, 2.00 held by
    # ``matrix`` and ``eigenvectors`` after the call.
    assert peak <= 3.25 * unit
    assert held <= 2.05 * unit
    assert op.eigenvectors.shape == (N + 1, N + 1)
