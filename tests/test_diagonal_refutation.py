"""Refutation from the diagonal: membership and multiplier checks before any n x n assembly.

``membership_check`` and ``multiplier_check`` first work out the n diagonal
entries of their test matrix and ``entry_bound``, a majorant E of its
entries; a diagonal entry below -(2 tol max(1, 2 n E) + c) refutes at once,
and the spectrum is assembled only when it is read. The references below
assemble the test matrix explicitly, as both checks did before, and every
verdict, spectrum and error must match them. This file also holds the
oracle's overflow, the batched random-grid sampler against the loop it
replaced, and the single home of the refutation inequality.
"""

import ast
import inspect
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from diskkernels import kernels as kx
from diskkernels import psd
from diskkernels.functions import (
    AtomicSingularInner,
    BlaschkeProduct,
    ConstantFunction,
    SchurBoundError,
    TaylorPolynomial,
)
from diskkernels.kernels import PointSet, RadialGrid, RandomGrid, gram, sample_grid
from diskkernels.psd import diagonal_positivity_oracle, membership_check, multiplier_check
from diskkernels.specs import parse_function, parse_grid, parse_kernel


def _reference_membership(f, kernel, c, points, tol=psd.DEFAULT_TOL):
    """``membership_check``'s assembly: is_psd of c^2 G - v v*, built whole."""
    with np.errstate(all="ignore"):
        v = psd._values_on(f, points.array)
        test = c * c * gram(kernel, points._without_spec()).matrix
        vh = v.conj()
        for s in range(0, len(v), psd.FACTOR_BLOCK):
            test[s : s + psd.FACTOR_BLOCK] -= np.outer(v[s : s + psd.FACTOR_BLOCK], vh)
    return psd.is_psd(test, tol)


def _reference_multiplier(phi, kernel, delta, points, tol=psd.DEFAULT_TOL):
    """``multiplier_check``'s assembly: is_psd of the Gram of (delta^2 - phi conj phi) K."""
    expr = kx.Difference(kx.Scale(delta * delta, kernel), kx.ConjugateScale(phi, kernel))
    return psd.is_psd(gram(expr, points), tol)


def _outcome(check, *args):
    """(is_psd, min_eigenvalue, spectral_norm), or (error type, message)."""
    try:
        v = check(*args)
        return v.is_psd, v.min_eigenvalue, v.spectral_norm
    except Exception as exc:
        return type(exc), str(exc)


def _grid(text):
    return sample_grid(parse_grid(text))


RANDOM = _grid("random[n=150,rmax=0.9,seed=4]")
RADIAL = _grid("radial[0.5,0.8,0.95;angles=32]")
NEAR_ATOM = PointSet((0.1, 0.5j, 1.0 - 1e-13))
OUTSIDE = _grid("radial[0.5,0.7,0.9,0.995;angles=100]")  # 20 z^200 leaves the ball at 0.995
LEAVES = TaylorPolynomial((0.0,) * 200 + (20.0,))

# (f, kernel, c, points, tol)
MEMBERSHIP = {
    "refuted": ("poly[0.3,0.5,-0.2i]", "szego", 0.2, RANDOM, 1e-9),
    "refuted-bergman": ("poly[1,0.5]", "bergman[alpha=1]", 0.5, RADIAL, 1e-9),
    "refuted-tol-0": ("poly[0.3,0.5]", "dbr[b=blaschke[0.3,0.5i]]", 0.3, RANDOM, 0.0),
    # At tol 1e-3 the diagonal is not below -2 tol 2 n E, so the assembly decides.
    "loose-tol": ("poly[0.3,0.5]", "szego", 0.2, RANDOM, 1e-3),
    "passes": ("poly[0.3,0.5]", "szego", 2.0, RANDOM, 1e-9),
    # Every c^2 K(z, z) - |f(z)|^2 >= 0, and the spectrum refutes.
    "spectrum-refutes": ("poly[0.6,0.8]", "bergman[alpha=0]", 0.8, RADIAL, 1e-9),
    "atom-near-point": ("poly[0.5]", "dbr[b=atomic[sigma=1,xi=1]]", 0.1, NEAR_ATOM, 1e-9),
    "f-near-atom": ("atomic[sigma=1,xi=1]", "szego", 0.1, NEAR_ATOM, 1e-9),
    "overflow": ("poly[1e155]", "szego", 1.0, RANDOM, 1e-9),
    "c-overflow": ("poly[0.5]", "szego", 1e200, RANDOM, 1e-9),
}

# (phi, kernel, delta, points, tol)
MULTIPLIER = {
    "refuted": ("blaschke[0.3,0.5i]", "szego", 0.5, RANDOM, 1e-9),
    "refuted-subbergman": (
        "poly[0.2,0.7]", "subbergman[b=blaschke[0.4],alpha=1]", 0.4, RANDOM, 1e-9
    ),
    "refuted-tol-0": ("atomic[sigma=1,xi=1i]", "bergman[alpha=0]", 0.3, RANDOM, 0.0),
    "refuted-monomial-routed": ("poly[0,0.9]", "bergman[alpha=0]", 0.5, RADIAL, 1e-9),
    "refuted-monomial-routed-tol-0": ("poly[0,0,0.9]", "szego", 0.5, RADIAL, 0.0),
    "passes": ("blaschke[0.3,0.5i]", "szego", 1.05, RANDOM, 1e-9),
    "passes-monomial-routed": ("poly[0,0.9]", "szego", 1.0, RADIAL, 1e-9),
    # max |phi| = 0.933 on the grid, below delta, and the spectrum refutes.
    "spectrum-refutes": ("poly[0.5,0.5]", "szego", 0.95, RANDOM, 1e-9),
    "atom-near-point": ("atomic[sigma=1,xi=1]", "szego", 0.5, NEAR_ATOM, 1e-9),
    "kernel-atom-near-point": ("poly[0.5]", "dbr[b=atomic[sigma=2,xi=1]]", 0.1, NEAR_ATOM, 1e-9),
    "overflow": ("poly[1e155]", "szego", 0.5, RADIAL, 1e-9),
    "overflow-random": ("poly[1e155]", "dbr[b=blaschke[0.5]]", 0.5, RANDOM, 1e-9),
    "overflow-edge": ("poly[9e153]", "szego", 0.5, _grid("radial[0.5;angles=4]"), 1e-9),
}


@pytest.mark.parametrize("name", sorted(MEMBERSHIP))
def test_membership_matches_the_assembled_check(name):
    f, kernel, c, points, tol = MEMBERSHIP[name]
    args = (parse_function(f, schur=False), parse_kernel(kernel), c, points, tol)
    expected = _outcome(_reference_membership, *args)
    assert _outcome(membership_check, *args) == expected
    _check_route(name, expected, membership_check(*args) if isinstance(expected[0], bool) else None)


@pytest.mark.parametrize("name", sorted(MULTIPLIER))
def test_multiplier_matches_the_assembled_check(name):
    phi, kernel, delta, points, tol = MULTIPLIER[name]
    args = (parse_function(phi, schur=False), parse_kernel(kernel), delta, points, tol)
    expected = _outcome(_reference_multiplier, *args)
    assert _outcome(multiplier_check, *args) == expected
    _check_route(name, expected, multiplier_check(*args) if isinstance(expected[0], bool) else None)


def _check_route(name, expected, verdict):
    """A case named refuted is refuted off the diagonal, its spectrum computed when first read."""
    if name.startswith("refuted"):
        assert expected[0] is False
    if verdict is not None:
        diagonal = "_refuted_on_diagonal" in verdict.spectrum.__qualname__
        assert diagonal == name.startswith("refuted")


def test_the_error_cases_raise_in_both():
    raised = set()
    for prefix, reference, cases in [
        ("", _reference_membership, MEMBERSHIP),
        ("multiplier-", _reference_multiplier, MULTIPLIER),
    ]:
        for name, (f, kernel, bound, points, tol) in cases.items():
            args = (parse_function(f, schur=False), parse_kernel(kernel), bound, points, tol)
            if isinstance(_outcome(reference, *args)[0], type):
                raised.add(prefix + name)
    assert raised == {
        "atom-near-point", "f-near-atom", "overflow", "c-overflow",
        "multiplier-atom-near-point", "multiplier-kernel-atom-near-point",
        "multiplier-overflow", "multiplier-overflow-random", "multiplier-overflow-edge",
    }


def test_the_routed_case_reads_the_routed_spectrum():
    phi, kernel, delta, points, tol = MULTIPLIER["refuted-monomial-routed"]
    expr = kx.Difference(
        kx.Scale(delta * delta, parse_kernel(kernel)),
        kx.ConjugateScale(parse_function(phi, schur=False), parse_kernel(kernel)),
    )
    assert psd._angle_blocks(gram(expr, points), tol) is not None


@pytest.mark.parametrize(
    "build",
    [
        lambda f: kx.DBR(f),
        lambda f: kx.ConjugateScale(f, kx.Szego()),
        lambda f: kx.Sum(kx.Szego(), kx.SubBergman(f, 1.0)),
    ],
)
def test_a_symbol_leaving_the_ball_raises_the_assembly_message(build):
    kernel = build(LEAVES)
    for check, reference, args in [
        (membership_check, _reference_membership, (ConstantFunction(0.5), kernel, 0.01, OUTSIDE)),
        (multiplier_check, _reference_multiplier, (ConstantFunction(0.5), kernel, 0.01, OUTSIDE)),
        (multiplier_check, _reference_multiplier, (LEAVES, kx.Szego(), 0.01, OUTSIDE)),
    ]:
        expected = _outcome(reference, *args)
        assert expected[0] is SchurBoundError and "modulus 7.3" in expected[1]
        assert _outcome(check, *args) == expected


def test_a_refuted_check_holds_no_matrix():
    points = _grid("random[n=800,rmax=0.9,seed=2]")
    n = len(points)
    f, kernel = parse_function("poly[0.3,0.5,-0.2i]", schur=False), kx.Szego()
    phi = parse_function("blaschke[0.3,0.5i]")
    checks = [
        lambda: membership_check(f, kernel, 0.2, points),
        lambda: multiplier_check(phi, kx.WeightedBergman(1.0), 0.5, points),
    ]
    for check in checks:
        check()  # warm caches before tracing
        tracemalloc.start()
        try:
            verdict = check()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not verdict.is_psd
        # The assembled check peaked at 2.15 n^2 16 B; the diagonal holds O(n).
        assert peak < 0.05 * 16 * n * n


# ------------------------------------------------------------------ entry_bound

_SYMBOLS = st.one_of(
    st.lists(st.complex_numbers(max_magnitude=0.95), min_size=1, max_size=3).map(
        lambda zeros: BlaschkeProduct(tuple(zeros))
    ),
    st.builds(
        AtomicSingularInner,
        st.floats(0.1, 3.0),
        st.sampled_from([1.0, 1j, -1.0, (0.6 + 0.8j)]),
    ),
    st.lists(st.complex_numbers(max_magnitude=0.25), min_size=1, max_size=4).map(
        lambda c: TaylorPolynomial(tuple(c))
    ),
    st.lists(st.complex_numbers(max_magnitude=50.0), min_size=1, max_size=4).map(
        lambda c: TaylorPolynomial(tuple(c), unit_ball_check=False)
    ),
    st.complex_numbers(max_magnitude=1.0).map(ConstantFunction),
)
_ALPHA = st.floats(-1.0, 3.0)


def _extend(children):
    pairs = st.tuples(children, children)
    return st.one_of(
        pairs.map(lambda p: kx.Sum(*p)),
        pairs.map(lambda p: kx.SchurProduct(*p)),
        pairs.map(lambda p: kx.Difference(*p)),
        st.builds(kx.Scale, st.floats(0.0, 10.0), children),
        st.builds(kx.ConjugateScale, _SYMBOLS, children),
    )


_TREES = st.recursive(
    st.one_of(
        st.just(kx.Szego()),
        st.builds(kx.WeightedBergman, _ALPHA),
        st.builds(kx.DBR, _SYMBOLS),
        st.builds(kx.SubBergman, _SYMBOLS, st.floats(0.0, 3.0)),
    ),
    _extend,
    max_leaves=4,
)
_GRIDS = st.one_of(
    st.builds(RandomGrid, st.integers(1, 40), st.floats(0.01, 0.99), st.integers(0, 2**16)),
    st.builds(
        RadialGrid,
        st.lists(st.integers(1, 99), min_size=1, max_size=3, unique=True).map(
            lambda hundredths: tuple(k / 100 for k in hundredths)
        ),
        st.integers(1, 12),
    ),
)


@settings(
    max_examples=300,
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(_TREES, _GRIDS)
def test_entry_bound_majorizes_the_gram(kernel, spec):
    points = sample_grid(spec)
    try:
        G = gram(kernel, points)
    except ValueError:
        return  # a Gram the assembly refuses: non-finite or not conjugate-symmetric
    bound = kernel.entry_bound(points.array)
    peak = float(np.max(np.abs(G.matrix)))
    assert bound >= peak or not np.isfinite(bound)
    assert bound >= G.peak or not np.isfinite(bound)


def test_entry_bound_of_a_leaf_is_the_closed_form():
    points = np.array([0.5, 0.9j, -0.3])
    d = (1.0 - 0.9) * (1.0 + 0.9)
    bound = kx.Szego().entry_bound(points)
    assert 1.0 / d < bound < (1.0 + 1e-13) / d
    bound = kx.WeightedBergman(1.5).entry_bound(points)
    assert d**-3.5 < bound < (1.0 + 1e-12) * d**-3.5
    dbr = kx.DBR(ConstantFunction(0.5)).entry_bound(points)
    assert 1.25 / d < dbr < (1.0 + 1e-13) * 1.25 / d


def test_entry_bound_overflows_to_inf_or_nan():
    points = np.array([0.5, 0.9j])
    huge = TaylorPolynomial((1e200,), unit_ball_check=False)
    assert kx.ConjugateScale(huge, kx.Szego()).entry_bound(points) == np.inf
    assert np.isnan(kx.Scale(0.0, kx.ConjugateScale(huge, kx.Szego())).entry_bound(points))
    assert kx.WeightedBergman(500.0).entry_bound(points) == np.inf


# ------------------------------------------------------------------ the oracle's overflow


def test_oracle_refuses_a_coefficient_whose_square_overflows():
    kernel = kx.ConjugateScale(TaylorPolynomial((1e155,), unit_ball_check=False), kx.Szego())
    with pytest.raises(ValueError, match=r"^symbol coefficient \|c\| = 1e\+155 is too large"):
        diagonal_positivity_oracle(kernel)
    dbr = kx.DBR(TaylorPolynomial((0.0, 1e160), unit_ball_check=False))
    with pytest.raises(ValueError, match=r"\|c\|\^2 overflows$"):
        diagonal_positivity_oracle(dbr)
    # Just below the overflow, |c|^2 is still finite.
    edge = kx.ConjugateScale(TaylorPolynomial((1e154,), unit_ball_check=False), kx.Szego())
    assert diagonal_positivity_oracle(edge, 4).coefficients[0] == abs(1e154) ** 2


# ------------------------------------------------------------------ the random-grid sampler


def _parent_first_crowded(pts):
    """``kernels._first_crowded`` as the per-refusal loop used it, verbatim."""
    eps = kx.MIN_SEPARATION  # read per call, so a patched value is honoured
    order = np.argsort(pts.real, kind="stable")
    s = pts[order]
    x = pts.real[order]
    first = len(s)
    for d in range(1, len(s)):
        near = np.flatnonzero(x[d:] - x[:-d] < eps)
        if len(near) == 0:
            break
        close = near[np.abs(s[near + d] - s[near]) < eps]
        if len(close):
            later = np.maximum(order[close], order[close + d])
            first = min(first, int(np.min(later)))
    return first if first < len(s) else None


def _parent_random_points(spec):
    """``kernels._random_points`` before close pairs were resolved per draw, verbatim."""
    rng = np.random.default_rng(spec.seed)
    pts = np.empty(spec.count, dtype=complex)
    k = m = 0  # pts[:k] are kept; pts[k:k + m] are drawn and not yet checked
    refused = 0
    while k < spec.count:
        if m == 0:
            m = spec.count - k
            u = rng.random((m, 2))
            radius = spec.rmax * np.sqrt(u[:, 0])
            angle = 2.0 * np.pi * u[:, 1]
            pts.real[k:] = radius * np.cos(angle)
            pts.imag[k:] = radius * np.sin(angle)
        crowded = _parent_first_crowded(pts[: k + m])
        if crowded is None:
            k, m = k + m, 0
        else:
            refused += 1
            if refused == 64 * spec.count:
                raise ValueError(kx._crowded_message(spec, "%d draws were refused" % refused))
            m -= crowded - k + 1
            k = crowded
            pts[k : k + m] = pts[k + 1 : k + 1 + m]
    return pts


def _sampled(sample, spec):
    try:
        return sample(spec).tobytes()
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize(
    "count, rmax, seed",
    [
        (24, 3e-10, 2),
        (30, 3.5e-10, 1),
        (100, 7e-10, 3),
        (150, 8.5e-10, 2),
        # Grids that stall: both give up at the same refused draw.
        (24, 3e-10, 1),
        (40, 4e-10, 1),
    ],
)
def test_crowded_grids_match_the_per_refusal_loop(count, rmax, seed):
    spec = RandomGrid(count, rmax, seed)
    assert _sampled(kx._random_points, spec) == _sampled(_parent_random_points, spec)


@pytest.mark.parametrize("separation", [0.02, 0.05, 0.09])
def test_patched_separations_match_the_per_refusal_loop(separation, monkeypatch):
    monkeypatch.setattr(kx, "MIN_SEPARATION", separation)
    spec = RandomGrid(200, 0.9, 11)
    assert _sampled(kx._random_points, spec) == _sampled(_parent_random_points, spec)


@pytest.mark.parametrize("separation", [0.005, 0.02])
def test_close_to_sorted_finds_what_a_full_comparison_finds(separation, monkeypatch):
    monkeypatch.setattr(kx, "MIN_SEPARATION", separation)
    rng = np.random.default_rng(8)
    kept = 0.3 * (rng.random(300) + 1j * rng.random(300))
    ordered = kept[np.argsort(kept.real)]
    new = np.concatenate((0.3 * (rng.random(200) + 1j * rng.random(200)), kept[:5] + 0.5 * separation))
    want = np.min(np.abs(new[:, None] - kept[None, :]), axis=1) < separation
    assert 0 < np.count_nonzero(want) < len(new)
    assert np.array_equal(kx._close_to_sorted(ordered, new), want)


def test_an_uncrowded_grid_is_sorted_once(monkeypatch):
    sorts = []
    argsort = np.argsort
    monkeypatch.setattr(
        np, "argsort", lambda a, *args, **kwargs: sorts.append(len(a)) or argsort(a, *args, **kwargs)
    )
    kx._random_points(RandomGrid(1600, 0.9, 1))
    # The candidates by real part; the empty list of close pairs costs nothing.
    assert sorts == [1600, 0]


def test_close_pairs_lists_every_close_pair_once():
    pts = np.array([0.0, 5e-11, 0.3, 0.3 + 9e-11j, 0.5, 0.0 + 2e-11j])
    pairs = {tuple(p) for p in kx._close_pairs(pts).T.tolist()}
    assert pairs == {(0, 1), (2, 3), (0, 5), (1, 5)}
    assert kx._close_pairs(pts[[2, 4]]).shape == (2, 0)
    assert kx._first_crowded(pts) == 1 and kx._first_crowded(pts[[2, 4]]) is None


# ------------------------------------------------------------------ single home


def test_the_refutation_inequality_is_written_once():
    tree = ast.parse(inspect.getsource(psd))
    inequalities = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare) and "2.0 * tol * max(1.0" in ast.unparse(node)
    ]
    assert len(inequalities) == 1
    for caller in (psd._certificate, psd._refuted_on_diagonal):
        calls = [
            node
            for node in ast.walk(ast.parse(inspect.getsource(caller)))
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "_refutation"
        ]
        assert len(calls) == 1, caller.__name__
    for check in (psd.membership_check, psd.multiplier_check):
        assert "_refuted_on_diagonal" in inspect.getsource(check)
