"""Gram assembly in strips, and the angular route's check on a circulant view.

``kernels.gram`` evaluates the kernel and symmetrizes it one strip of rows
at a time, each pair of points once, on W threads, and keeps max |G_ij| as
``GramMatrix.peak``; ``psd._circulant_dev2`` rebuilds the block-circulant
matrix as a strided view. The whole-matrix evaluation and symmetrization
and the per-radius deviation loop they replace are kept below verbatim as
the reference. Every matrix, asymmetry, peak, deviation, error message and
route choice must be bit-identical to it.

This file also checks routed Grams (``tests/test_gram_route.py``) against the
whole-matrix reference, which has the bits of the dense assembly, as the
``explicit-*`` cases show at every W. A routed Gram keeps no matrix, so its
diagonal, peak, asymmetry and deviation are compared with the reference
before its ``matrix`` is read. ``test_routed_gram_keeps_the_bits_of_the_dense_assembly``
in ``tests/test_gram_route.py`` checks the route blocks of the same Gram:
each routed (kernel, grid, W) Gram is assembled once for both tests.
"""

import copy
import functools
import math
import struct
import tracemalloc

import numpy as np
import pytest

from diskkernels import kernels as kx
from diskkernels.functions import TaylorPolynomial
from diskkernels.kernels import (
    HERMITIAN_TOL,
    GramMatrix,
    PointSet,
    RadialGrid,
    RandomGrid,
    gram,
    sample_grid,
)
from diskkernels.psd import DEFAULT_TOL, _angle_blocks, _circulant_dev2, is_psd
from diskkernels.specs import parse_function, parse_kernel


def _reference_gram(kernel, points):
    """(matrix, asymmetry, peak) of the whole-matrix symmetrization, or its error."""
    arr = points.array
    with np.errstate(all="ignore"):
        raw = np.asarray(kernel.eval(arr[:, None], arr[None, :]), dtype=complex)
        asym = float(np.max(np.abs(raw - raw.conj().T)))
        sym = 0.5 * (raw + raw.conj().T)
        # A non-finite raw entry, or a sum that overflows, leaves sym
        # non-finite. |x| of a complex entry is finite exactly when both parts
        # are, and np.max propagates NaN, so one finite peak certifies sym.
        peak = float(np.max(np.abs(sym)))
    if not math.isfinite(peak):
        raise ValueError("kernel evaluation has non-finite entries")
    scale = max(1.0, peak)
    if asym > HERMITIAN_TOL * scale:
        raise ValueError(
            "kernel evaluation is not conjugate-symmetric (deviation %.3g)" % asym
        )
    return sym, asym, peak


def _reference_check(G):
    """(dev2, peak) of the per-radius loop over the gathered circulant."""
    grid = G.point_set.spec
    R, A = len(grid.radii), grid.angles
    G4 = G.matrix.reshape(R, A, R, A)
    first = G4[:, :, :, 0]
    lag = (np.arange(A)[:, None] - np.arange(A)[None, :]) % A
    dev2 = 0.0
    peak = 0.0
    for a in range(R):
        # C[p, b, q] = first[a, (p - q) mod A, b], one block-row at a time.
        diff = G4[a] - first[a][lag].transpose(0, 2, 1)
        dev2 += float(np.vdot(diff, diff).real)
        peak = max(peak, float(np.max(np.abs(G4[a]))))
    return dev2, peak


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def _invariant(kernel) -> bool:
    try:
        kernel.diagonal_series(0)
    except ValueError:
        return False
    return True


KERNELS = [
    "szego",
    "bergman[alpha=-1]",
    "bergman[alpha=0.5]",
    "dbr[b=blaschke[0,0]]",
    "dbr[b=blaschke[0.3,-0.5i]]",
    "subbergman[b=poly[0,0,0.6i],alpha=1]",
    "subbergman[b=atomic[sigma=1,xi=0.6+0.8i],alpha=0]",
    "sum(szego,dbr[b=blaschke[0]])",
    "schur(szego,bergman[alpha=0])",
    "scale(2.5,subbergman[b=blaschke[0],alpha=0])",
    "diff(scale(1.9,szego),subbergman[b=blaschke[0,0],alpha=0])",
    "diff(szego,szego)",
    "cscale(poly[0,0,0,0.6i],bergman[alpha=0.5])",
    "cscale(poly[0.2,0.3],szego)",
]

# (radii, angles) with R * A = n for each size.
RADIAL = {
    1: (1, 1),
    2: (1, 2),
    63: (7, 9),
    64: (4, 16),
    65: (5, 13),
    129: (3, 43),
    160: (5, 32),
    481: (13, 37),
    # 17 strips of 64 rows, the last one a single row.
    1025: (25, 41),
}


def _radii(R):
    return tuple(float(r) for r in np.linspace(0.1, 0.92, R + 2)[1:-1])


def _point_sets():
    for n, (R, A) in RADIAL.items():
        radial = sample_grid(RadialGrid(_radii(R), A))
        yield "radial-%d" % n, radial
        yield "random-%d" % n, sample_grid(RandomGrid(n, 0.9, n))
        # The same points without a spec: the dense route, whatever the kernel.
        yield "explicit-%d" % n, PointSet(radial.points)


POINT_SETS = dict(_point_sets())
# The point sets whose Gram is more than one strip, and the worker counts
# W = ``kx._gram_workers()`` they are assembled with.
SPLIT = [name for name, points in POINT_SETS.items() if len(points) ** 2 > kx.GRAM_STRIP_ENTRIES]
WORKERS = (1, 2, 3, 5)


def _check_against_reference(kernel, points):
    try:
        expected = _reference_gram(kernel, points)
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            gram(kernel, points)
        assert str(info.value) == str(exc)
        return None
    G = gram(kernel, points)
    _assert_reference_bits(G, expected)
    return G


def _assert_reference_bits(G, expected):
    matrix, asym, peak = expected
    assert G.matrix.tobytes() == matrix.tobytes()
    assert _bits(G.asymmetry) == _bits(asym)
    assert _bits(G.peak) == _bits(peak)


TOLERANCES = (DEFAULT_TOL, 0.0, 1e-3)


def _check_route(G, tols=TOLERANCES):
    """The route's blocks of G at each tolerance, each route choice checked
    against the reference loop, which runs once for all of them."""
    blocks = [_angle_blocks(G, tol) for tol in tols]
    spec = G.point_set.spec
    if not (isinstance(spec, RadialGrid) and _invariant(G.kernel)):
        assert all(b is None for b in blocks)
        return blocks
    R, A = len(spec.radii), spec.angles
    dev2, peak = _reference_check(G)
    ours = _circulant_dev2(G.matrix.reshape(R, A, R, A))
    assert _bits(ours) == _bits(dev2) or (math.isnan(ours) and math.isnan(dev2))
    for tol, b in zip(tols, blocks):
        assert (b is not None) == (math.sqrt(dev2) <= 0.1 * tol * max(1.0, peak))
    return blocks


def _routed(text, grid):
    """Whether ``gram`` assembles the case on the rotation route, keeping no matrix."""
    return grid in SPLIT and kx._circulant_shape(parse_kernel(text), POINT_SETS[grid]) is not None


def _cases():
    """(text, grid, W) for every kernel on every point set at the W of this
    machine, then, for a Gram of more than one strip, at each W in WORKERS.

    The cases of one (text, grid) are consecutive, so ``_reference`` and
    ``_dense`` build each reference once.
    """
    for text in KERNELS:
        for grid in POINT_SETS:
            yield pytest.param(text, grid, None, id="%s-%s" % (text, grid))
            if grid in SPLIT:
                for w in WORKERS:
                    yield pytest.param(text, grid, w, id="%s-%s-w%d" % (text, grid, w))


@functools.lru_cache(maxsize=1)
def _reference(text, grid):
    return _reference_gram(parse_kernel(text), POINT_SETS[grid])


@functools.cache
def _dense(text, grid):
    """The dense side of a routed case: the route blocks, at each tolerance,
    of a Gram built on the reference matrix, its deviation, and a slot for
    the routed deviation of the first W. Kept for every (kernel, grid), so
    that the route blocks' test finds them after the reference is gone."""
    matrix, asym, _ = _reference(text, grid)
    points = POINT_SETS[grid]
    D = GramMatrix(matrix=matrix, point_set=points, kernel=parse_kernel(text), asymmetry=asym)
    R, A = len(points.spec.radii), points.spec.angles
    return _check_route(D), _circulant_dev2(matrix.reshape(R, A, R, A)), {}


# Routed Grams assembled by one of their two tests and not yet taken by the
# other, by (text, grid, W).
_SHARED = {}


def _routed_gram(text, grid, w):
    """The Gram of the routed case (text, grid, W), assembled once for the two
    tests that check it. The first to run assembles it and leaves a copy,
    which the second takes; the copy shares the kept arrays, but not a
    ``matrix`` that the first reads."""
    G = _SHARED.pop((text, grid, w), None)
    if G is None:
        G = gram(parse_kernel(text), POINT_SETS[grid])
        _SHARED[text, grid, w] = copy.copy(G)
    return G


@pytest.mark.parametrize("text, grid, w", _cases())
def test_gram_and_route_match_the_reference(text, grid, w, monkeypatch):
    if w is not None:
        # Assembled by W - 1 helper threads and the calling one.
        monkeypatch.setattr(kx, "_gram_workers", lambda: w)
    if not _routed(text, grid):
        G = gram(parse_kernel(text), POINT_SETS[grid])
        _assert_reference_bits(G, _reference(text, grid))
        _check_route(G)
        return
    # A routed Gram holds no matrix until it is read, and what it keeps has
    # the bits of the reference (its route blocks: tests/test_gram_route.py).
    G = _routed_gram(text, grid, w)
    matrix, asym, peak = _reference(text, grid)
    _, dev2, seen = _dense(text, grid)
    assert G._matrix is None and G._circulant is not None
    assert _bits(G.peak) == _bits(peak)
    assert _bits(G.asymmetry) == _bits(asym)
    assert G.diagonal.tobytes() == matrix.diagonal().tobytes()
    # The stored deviation is the same sum in another order ...
    ours = G._circulant[1]
    assert ours == pytest.approx(dev2, rel=1e-12, abs=1e-300)
    # ... with the same bits for every W.
    assert _bits(seen.setdefault("dev2", ours)) == _bits(ours)
    # The matrix is read once per kernel and grid: the explicit-* cases
    # check the dense assembly against the reference at every W.
    if w is None:
        assert G.matrix.tobytes() == matrix.tobytes()


def test_every_node_kind_and_both_routes_are_covered():
    kinds = {type(parse_kernel(t)) for t in KERNELS}
    nested = {type(parse_kernel(t).left) for t in KERNELS if t.startswith("diff(")}
    assert set(kx._LEAF_TYPES) | {
        kx.Sum, kx.SchurProduct, kx.Scale, kx.Difference, kx.ConjugateScale
    } <= kinds | nested
    routed = dense = 0
    for text in KERNELS:
        G = gram(parse_kernel(text), POINT_SETS["radial-160"])
        if _angle_blocks(G, DEFAULT_TOL) is None:
            dense += 1
        else:
            routed += 1
    assert routed >= 8 and dense >= 3


class _Planted:
    """Szego with chosen raw entries replaced, or an asymmetric term added.

    ``entries`` holds ((i, j), value) by point index. The value is planted
    at the pair (p_i, p_j) of points, wherever that pair falls in the block
    ``eval`` is asked for: ``gram`` evaluates strips, not the whole matrix.
    """

    def __init__(self, points=None, entries=(), skew=0.0):
        arr = None if points is None else points.array
        self.entries = [((arr[i], arr[j]), value) for (i, j), value in entries]
        self.skew = skew

    def eval(self, z, w):
        out = kx.Szego().eval(z, w) + self.skew * np.asarray(z)
        for (zi, wj), value in self.entries:
            out[(z == zi) & (w == wj)] = value
        return out

    def diagonal_series(self, order):
        return np.ones(order + 1)


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 129, 481, 1025])
@pytest.mark.parametrize(
    "value",
    [math.nan, math.inf, -math.inf, complex(1.0, math.nan), complex(0, math.inf)],
)
def test_non_finite_raw_entries_raise_the_same_error(n, value):
    points = POINT_SETS["random-%d" % n]
    for where in {(0, 0), (n - 1, 0), (n // 2, n - 1), (n - 1, n - 1)}:
        _check_against_reference(_Planted(points, [(where, value)]), points)


@pytest.mark.parametrize("n", [2, 64, 65, 481, 1025])
def test_overflow_raises_the_same_error(n):
    points = POINT_SETS["radial-%d" % n]
    f = parse_function("poly[1.2e154]", schur=False)
    assert _check_against_reference(kx.ConjugateScale(f, kx.Szego()), points) is None
    # Finite raw entries whose sum overflows, and whose difference overflows.
    for partner in (1.7e308, -1.7e308):
        planted = _Planted(points, [((0, n - 1), 1.7e308), ((n - 1, 0), partner)])
        assert np.all(np.isfinite(planted.eval(points.array[:, None], points.array)))
        assert _check_against_reference(planted, points) is None


@pytest.mark.parametrize("n", [2, 63, 64, 65, 129, 481, 1025])
@pytest.mark.parametrize("skew", [1e-9, 1e-12, 1e-14])
def test_asymmetric_eval_raises_or_passes_as_the_reference(n, skew):
    _check_against_reference(_Planted(skew=skew), POINT_SETS["random-%d" % n])
    G = _check_against_reference(_Planted(skew=skew), POINT_SETS["radial-%d" % n])
    if G is not None:
        _check_route(G, (DEFAULT_TOL, 0.0))


def _direct(G, matrix):
    return GramMatrix(
        matrix=matrix, point_set=G.point_set, kernel=G.kernel, asymmetry=0.0
    )


@pytest.mark.parametrize("n", [1, 2, 64, 65, 160, 481])
def test_directly_built_grams_compute_their_peak(n):
    G = gram(parse_kernel("bergman[alpha=0.5]"), POINT_SETS["radial-%d" % n])
    rng = np.random.default_rng(n)
    E = rng.normal(size=G.matrix.shape) * 1e-6
    planted = G.matrix.copy()
    planted[n // 2, n - 1] = complex(math.nan, 1.0)
    blown = G.matrix.copy()
    blown[n - 1, 0] = math.inf
    # A Hermitian spike whose peak lies in an imaginary part.
    spiked = G.matrix.copy()
    spiked[0, n - 1] += 1e3j
    spiked[n - 1, 0] -= 1e3j
    for matrix in (G.matrix.copy(), G.matrix + (E + E.T), planted, blown, spiked):
        D = _direct(G, matrix)
        with np.errstate(all="ignore"):
            expected = float(np.max(np.abs(matrix)))
        assert _bits(D.peak) == _bits(expected) or (
            math.isnan(D.peak) and math.isnan(expected)
        )
        # inf - inf in the reference deviation warns; the route check in
        # is_psd skips a matrix whose peak is not finite.
        with np.errstate(invalid="ignore"):
            _check_route(D)
        if not math.isfinite(expected):
            assert _angle_blocks(D, DEFAULT_TOL) is None
            with pytest.raises(ValueError, match="non-finite"):
                is_psd(D)
    # gram() fills the peak in its pass; a direct build recomputes the same bits.
    assert _bits(_direct(G, G.matrix.copy()).peak) == _bits(G.peak)


def test_gram_holds_about_one_matrix_at_its_peak():
    n = 800
    points = sample_grid(RandomGrid(n, 0.9, 5))
    points.array  # cached before tracing
    tracemalloc.start()
    try:
        gram(kx.Szego(), points)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The Gram matrix, plus a few strips of rows of kernel values.
    assert peak <= 1.5 * 16 * n * n


def _leaves_the_ball():
    """20 z^200: 0.9 at the certification grid's largest radius 64/65, 7.3 at 0.995."""
    return TaylorPolynomial((0.0,) * 200 + (20.0,))


@pytest.mark.parametrize(
    "build",
    [
        lambda f: kx.DBR(f),
        lambda f: kx.SubBergman(f, 1.0),
        lambda f: kx.ConjugateScale(f, kx.Szego()),
        lambda f: kx.Sum(kx.Szego(), kx.Scale(2.0, kx.DBR(f))),
    ],
)
def test_a_symbol_leaving_the_ball_raises_the_whole_grid_message(build):
    # Its largest modulus is at the last point, outside the first strip,
    # which also holds a point where it leaves the ball by less.
    arr = POINT_SETS["random-481"].array * 0.9
    arr[0] = 0.988
    arr[-1] = 0.995j
    points = PointSet(arr)
    assert max(64, kx.GRAM_STRIP_ENTRIES // len(points)) < len(points) - 1
    kernel = build(_leaves_the_ball())
    assert _check_against_reference(kernel, points) is None
    with pytest.raises(ValueError, match=r"modulus 7\.3"):
        gram(kernel, points)
