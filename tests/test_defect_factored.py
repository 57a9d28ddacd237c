"""The defect operator kept factored: ``matrix`` and ``eigenvectors`` on read.

``defect`` hands back what its route computed (D before the phases, or the
basis rows E; the phases; the dense eigenvectors or the compact WY factors
of the QR's reflectors with the k x k ``eigh``'s W) and builds ``matrix``
and ``eigenvectors`` only when they are read. ``range_norm`` takes its
coordinates from the factors. The eager ``defect`` the operator replaced
is kept here verbatim as the reference: every attribute must keep its
bits, and range norms must match the coordinates of the materialized
eigenvectors.
"""

import cmath
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from diskkernels import (
    AtomicSingularInner,
    BlaschkeProduct,
    SpaceWeight,
    TaylorPolynomial,
    defect,
    kernel_section_taylor,
    takenaka_malmquist,
    taylor_coefficients,
    toeplitz_analytic,
)
from diskkernels import operators
from diskkernels.functions import axis_phases
from diskkernels.operators import (
    CLIP_LIMIT,
    RANGE_CUTOFF,
    RANGE_RESIDUAL,
    _low_rank_rows,
    _toeplitz_fill,
)


def eager_defect(b, weight, degree):
    """``defect`` as it ran when it formed every attribute, verbatim.

    Only the return differs: the eager attributes, and S formed as
    ``sqrt_matrix`` forms it.
    """
    operators._check_degree(weight, degree)
    T = phases = E = None
    axis = b.reflection_axis()
    if axis is not None:
        omega, g = axis
        coeffs = taylor_coefficients(g, degree)
        drift = 0.0
        if np.any(coeffs.imag):
            drift = float(np.linalg.norm(_toeplitz_fill(coeffs.imag, weight, degree)))
        if 2.0 * drift + drift * drift <= (degree + 1) * np.finfo(float).eps:
            T = _toeplitz_fill(coeffs.real, weight, degree)
            phases = axis_phases(omega, degree)
    if T is None and weight.alpha == -1.0 and isinstance(b, BlaschkeProduct):
        E = takenaka_malmquist(b).taylor_matrix(degree)
        D = E.T @ E.conj()
    else:
        if T is None:
            T = toeplitz_analytic(b, weight, degree).matrix
        D = np.eye(degree + 1, dtype=T.dtype) - T @ T.conj().T
    D = 0.5 * (D + D.conj().T)
    if E is None and weight.alpha == -1.0:
        E = _low_rank_rows(D, T)
    if E is not None:
        # geqrf's array, transposed: R and R R* keep a complete QR's bits.
        H, tau = np.linalg.qr(E.T, mode="raw")
        R = np.triu(H.T[: len(tau)])
    evals, vecs = np.linalg.eigh(D if E is None else R @ R.conj().T)
    if E is not None:
        # Any lambda < 0 is clipped to 0 below, so the square roots stay
        # ascending with the null space first.
        evals = np.concatenate([np.zeros(degree + 1 - len(evals)), evals])
        vecs = eager_reflected_eigenvectors(H.T, tau, vecs)
    if phases is not None:
        D = D * np.outer(phases, phases.conj())
        # In place, with the bits of 0.5 * (D + D*) and one temporary fewer.
        D += D.conj().T
        D *= 0.5
        vecs = phases[:, None] * vecs
    clip = float(max(0.0, -np.min(evals)))
    if clip > CLIP_LIMIT:
        raise ValueError(
            "defect operator has negative spectrum %.3g beyond the clip limit; "
            "the symbol violates the Schur bound or the truncation is too small"
            % clip
        )
    sqrt_evals = np.sqrt(np.clip(evals, 0.0, None))
    S = (vecs * sqrt_evals) @ vecs.conj().T
    S = 0.5 * (S + S.conj().T)
    return SimpleNamespace(
        matrix=D,
        eigenvectors=vecs,
        sqrt_eigenvalues=sqrt_evals,
        sqrt_matrix=S,
        clip_magnitude=clip,
    )


def eager_reflected_eigenvectors(A, tau, W):
    """The eigenvectors as the eager ``defect`` built them, verbatim."""
    n, k = len(A), len(tau)
    V = np.tril(A[:, :k], -1)
    np.fill_diagonal(V, 1.0)
    G = V.conj().T @ V
    T = np.diag(tau)
    for i in range(1, k):
        T[:i, i] = -tau[i] * (T[:i, :i] @ G[:i, i])
    vecs = np.empty((n, n), dtype=A.dtype)
    null, span = vecs[:, : n - k], vecs[:, n - k :]
    np.matmul(V, -(T @ V[k:].conj().T), out=null)
    null[k:][np.diag_indices(n - k)] += 1.0
    np.matmul(V, -(T @ (V[:k].conj().T @ W)), out=span)
    span[:k] += W
    return vecs


def materialized_norm(op, f_taylor):
    """The range norm from the coordinates of the materialized eigenvectors."""
    f_taylor = np.asarray(f_taylor, dtype=complex)
    f_onb = np.zeros(op.degree + 1, dtype=complex)
    norms = np.sqrt(op.weight.norms_sq[: op.degree + 1])
    f_onb[: len(f_taylor)] = f_taylor * norms[: len(f_taylor)]
    coords = np.conj(f_onb.conj() @ op.eigenvectors)
    in_range = op.sqrt_eigenvalues >= RANGE_CUTOFF
    if float(np.linalg.norm(coords[~in_range])) > RANGE_RESIDUAL:
        return math.inf
    return float(np.linalg.norm(coords[in_range] / op.sqrt_eigenvalues[in_range]))


XI = cmath.exp(2.3j)
DEGREE_FOUR = BlaschkeProduct(
    (0.3, 0.5j * cmath.exp(1j), -0.6 * cmath.exp(0.3j), 0.45 * cmath.exp(2j)),
    cmath.exp(0.7j),
)
COLLINEAR = BlaschkeProduct((0.5 * cmath.exp(0.4j), -0.3 * cmath.exp(0.4j), 0.0))

ROUTES = {
    "real-hardy-128": (AtomicSingularInner(1.0, XI), -1.0, 128),
    "real-alpha1-128": (AtomicSingularInner(1.0, XI), 1.0, 128),
    **{
        "low-rank-%g-%d" % (sigma, N): (AtomicSingularInner(sigma, XI), -1.0, N)
        for sigma in (0.5, 1.0, 2.0)
        for N in (255, 1023)
    },
    "basis-64": (DEGREE_FOUR, -1.0, 64),
    "basis-511": (DEGREE_FOUR, -1.0, 511),
    "collinear-64": (COLLINEAR, -1.0, 64),
    "collinear-low-rank-255": (COLLINEAR, -1.0, 255),
    "complex-poly": (TaylorPolynomial((0.3, 0.2j, -0.1 + 0.25j)), -1.0, 48),
    # A singular inner symbol's T through a polynomial with no axis.
    "complex-low-rank-255": (
        TaylorPolynomial(AtomicSingularInner(1.0, XI).taylor(255), unit_ball_check=False),
        -1.0,
        255,
    ),
    "complex-blaschke-alpha1": (DEGREE_FOUR, 1.0, 64),
}

ATTRIBUTES = ("matrix", "eigenvectors", "sqrt_eigenvalues", "sqrt_matrix")


@pytest.mark.parametrize("name", sorted(ROUTES))
def test_attributes_keep_the_eager_bits(name):
    b, alpha, N = ROUTES[name]
    weight = SpaceWeight.for_degree(alpha, N)
    op = defect(b, weight, N)
    ref = eager_defect(b, weight, N)
    assert isinstance(op.vectors, tuple) == ("basis" in name or "low-rank" in name)
    assert (op.unphased is None) == (op.rows is not None) == name.startswith("basis")
    assert op.clip_magnitude == ref.clip_magnitude
    for attr in ATTRIBUTES:
        got, want = getattr(op, attr), getattr(ref, attr)
        assert got.dtype == want.dtype and got.shape == want.shape, attr
        assert got.tobytes() == want.tobytes(), attr
        assert not got.flags.writeable, attr
        # A second read hands back the same object.
        assert getattr(op, attr) is got, attr


def _test_vectors(b, alpha, N):
    """Kernel sections, basis rows when b has a model space, random polynomials."""
    vectors = [kernel_section_taylor(b, alpha, w, N) for w in (0.2, 0.45j, -0.6 + 0.3j)]
    if isinstance(b, BlaschkeProduct) and alpha == -1.0:
        vectors += list(takenaka_malmquist(b).taylor_matrix(N))
    rng = np.random.default_rng(2804)
    for degree in (1, 5, N):
        vectors.append(rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1))
    return vectors


@pytest.mark.parametrize("name", sorted(ROUTES))
def test_factored_range_norm_matches_the_eigenvector_coordinates(name):
    b, alpha, N = ROUTES[name]
    op = defect(b, SpaceWeight.for_degree(alpha, N), N)
    finite = 0
    for f in _test_vectors(b, alpha, N):
        got = op.range_norm(f)
        want = materialized_norm(op, f)
        assert math.isinf(got) == math.isinf(want)
        if not math.isinf(want):
            finite += 1
            assert abs(got - want) <= 1e-13 * want
    assert finite >= 3


@pytest.mark.parametrize(
    "b, N, expect_finite",
    [
        # k = 0: D = 0 for a unimodular constant, every direction is null.
        (TaylorPolynomial((1.0,)), 255, [False, False]),
        # k = N + 1: no null space.
        (BlaschkeProduct((0.3, 0.5j, -0.6, 0.2 - 0.4j)), 2, [True, True]),
        # tau = 0 reflectors: the rows of z^2 are unit vectors.
        (BlaschkeProduct((0.0, 0.0)), 255, [True, False]),
    ],
)
def test_factored_range_norm_edges(b, N, expect_finite):
    op = defect(b, SpaceWeight.for_degree(-1.0, N), N)
    assert isinstance(op.vectors, tuple)
    for f, finite in zip(([1.0], [0.0, 0.0, 1.0]), expect_finite):
        got, want = op.range_norm(f), materialized_norm(op, f)
        assert math.isinf(got) == math.isinf(want) == (not finite)
        if finite:
            assert abs(got - want) <= 1e-13 * want


@pytest.mark.parametrize(
    "name, factored",
    [("basis-511", True), ("low-rank-1-1023", True), ("real-hardy-128", False)],
)
def test_eigenvectors_are_built_on_first_read_only(name, factored, monkeypatch):
    calls = []
    build = operators._reflected_eigenvectors

    def spy(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(operators, "_reflected_eigenvectors", spy)
    b, alpha, N = ROUTES[name]
    op = defect(b, SpaceWeight.for_degree(alpha, N), N)
    for w in (0.2, 0.4j, -0.6):
        op.range_norm(kernel_section_taylor(b, alpha, w, N))
    assert calls == []
    assert "eigenvectors" not in vars(op) and "matrix" not in vars(op)
    vecs = op.eigenvectors
    assert len(calls) == int(factored)
    assert op.eigenvectors is vecs and op.sqrt_matrix.shape == vecs.shape
    assert len(calls) == int(factored)


def _traced(run):
    tracemalloc.start()
    try:
        op = run()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return op, held, peak


def test_low_rank_defect_and_range_norms_memory():
    b = AtomicSingularInner(1.0, XI)
    N = 1023
    weight = SpaceWeight.for_degree(-1.0, N)
    sections = [kernel_section_taylor(b, -1.0, w, N) for w in (0.2, 0.4j, -0.6)]
    unit = (N + 1) ** 2 * 16

    def run():
        op = defect(b, weight, N)
        for f in sections:
            assert math.isfinite(op.range_norm(f))
        return op

    op, held, peak = _traced(run)
    # Measured: a peak of 1.51 complex (N + 1)^2 arrays (T, I - T T^T and
    # T T^T, all real) and 0.52 held, the real D.
    assert peak <= 1.6 * unit
    assert held <= 0.55 * unit
    assert op.unphased.dtype == np.float64 and isinstance(op.vectors, tuple)


def test_basis_defect_memory():
    N = 511
    weight = SpaceWeight.for_degree(-1.0, N)
    op, held, peak = _traced(lambda: defect(DEGREE_FOUR, weight, N))
    # Measured: 0.033 complex (N + 1)^2 arrays; D is never formed.
    assert peak <= 0.05 * (N + 1) ** 2 * 16
    assert op.unphased is None and op.rows.shape == (4, N + 1)
