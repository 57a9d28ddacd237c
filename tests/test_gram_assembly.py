"""Gram assembly in strips, the rotation route's first columns, and its bound.

``kernels.gram`` evaluates the kernel and symmetrizes it one strip of rows
at a time, each pair of points once, on W threads, and keeps max |G_ij| as
``GramMatrix.peak``. The whole-matrix evaluation and symmetrization it
replaces is kept below verbatim as the reference: every matrix, asymmetry,
peak and error message must be bit-identical to it.

On a radial grid a rotation-invariant kernel's Gram takes the rotation
route: ``gram`` evaluates only the first column of each A x A block and the
diagonal, and bounds ||G - C||_F a priori (``kernels._circulant_bound``), C
the block-circulant matrix of those columns. Its columns and diagonal must
have the reference's bits, and its peak and asymmetry those of the
reference read on the same entries. The per-radius loop ``_reference_check``
measures ||G - C||_F on the reference matrix: the bound must be at least
that, and the route must be taken exactly where the measured deviation
took it, at every tolerance of ``TOLERANCES``
(``test_routed_gram_keeps_the_bits_of_the_dense_assembly`` in
``tests/test_gram_route.py`` checks the route blocks).
"""

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
from diskkernels.psd import DEFAULT_TOL, _angle_blocks, is_psd
from diskkernels.specs import parse_function, parse_kernel


def _reference_raw(kernel, points):
    """K(p_i, p_j) on the whole matrix at once."""
    arr = points.array
    with np.errstate(all="ignore"):
        return np.asarray(kernel.eval(arr[:, None], arr[None, :]), dtype=complex)


def _reference_gram(kernel, points, raw=None):
    """(matrix, asymmetry, peak) of the whole-matrix symmetrization, or its error."""
    raw = _reference_raw(kernel, points) if raw is None else raw
    with np.errstate(all="ignore"):
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


def _reference_check(matrix, R, A):
    """||G - C||_F of the per-radius loop over the gathered circulant."""
    G4 = matrix.reshape(R, A, R, A)
    first = G4[:, :, :, 0]
    lag = (np.arange(A)[:, None] - np.arange(A)[None, :]) % A
    dev2 = 0.0
    for a in range(R):
        # C[p, b, q] = first[a, (p - q) mod A, b], one block-row at a time.
        diff = G4[a] - first[a][lag].transpose(0, 2, 1)
        dev2 += float(np.vdot(diff, diff).real)
    return math.sqrt(dev2)


def _reference_blocks(matrix, R, A, dev, peak, tol):
    """The route's blocks read off a dense Gram, when the measured deviation admits them."""
    if not dev <= 0.1 * tol * max(1.0, peak):
        return None
    blocks = np.fft.fft(matrix.reshape(R, A, R, A)[:, :, :, 0], axis=1).transpose(1, 0, 2)
    return 0.5 * (blocks + blocks.conj().transpose(0, 2, 1))


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


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
    """The route's blocks of a Gram off the route, at each tolerance: all None."""
    blocks = [_angle_blocks(G, tol) for tol in tols]
    assert G._circulant is None and all(b is None for b in blocks)


def _routed(text, grid):
    """Whether ``gram`` builds the case on the rotation route, keeping no matrix."""
    return kx._circulant_shape(parse_kernel(text), POINT_SETS[grid]) is not None


def _cases():
    """(text, grid, W) for every kernel on every point set at the W of this
    machine, then, for a Gram of more than one strip, at each W in WORKERS.

    The cases of one (text, grid) are consecutive, so ``_reference`` builds
    each reference once.
    """
    for text in KERNELS:
        for grid in POINT_SETS:
            yield pytest.param(text, grid, None, id="%s-%s" % (text, grid))
            if grid in SPLIT:
                for w in WORKERS:
                    yield pytest.param(text, grid, w, id="%s-%s-w%d" % (text, grid, w))


@functools.lru_cache(maxsize=1)
def _reference(text, grid):
    """The reference of a case and, for a routed one, what the route reads
    of it: the first columns' and the diagonal's asymmetry and peak."""
    kernel, points = parse_kernel(text), POINT_SETS[grid]
    raw = _reference_raw(kernel, points)
    expected = _reference_gram(kernel, points, raw)
    if not _routed(text, grid):
        return expected, None
    matrix = expected[0]
    cols = np.arange(0, len(points), points.spec.angles)
    with np.errstate(all="ignore"):
        asym = max(
            float(np.max(np.abs(raw[:, cols] - raw[cols].conj().T))),
            float(np.max(np.abs(raw.diagonal() - raw.diagonal().conj()))),
        )
    peak = max(
        float(np.max(np.abs(matrix[:, cols]))), float(np.max(np.abs(matrix.diagonal())))
    )
    return expected, (asym, peak)


@functools.cache
def _reference_route(text, grid):
    """(the measured ||G - C||_F, the reference route's blocks at each
    tolerance) of a routed case, kept for every (kernel, grid), so that the
    route blocks' test finds them after the reference is gone."""
    (matrix, _, peak), _ = _reference(text, grid)
    spec = POINT_SETS[grid].spec
    R, A = len(spec.radii), spec.angles
    dev = _reference_check(matrix, R, A)
    return dev, [_reference_blocks(matrix, R, A, dev, peak, tol) for tol in TOLERANCES]


@pytest.mark.parametrize("text, grid, w", _cases())
def test_gram_and_route_match_the_reference(text, grid, w, monkeypatch):
    if w is not None:
        # Assembled by W - 1 helper threads and the calling one.
        monkeypatch.setattr(kx, "_gram_workers", lambda: w)
    G = gram(parse_kernel(text), POINT_SETS[grid])
    expected, route = _reference(text, grid)
    if route is None:
        _assert_reference_bits(G, expected)
        _check_route(G)
        return
    # A routed Gram holds no matrix until it is read. Its columns and
    # diagonal have the bits of the reference, and its asymmetry and peak
    # are the reference's on those entries.
    matrix = expected[0]
    spec = POINT_SETS[grid].spec
    R, A = len(spec.radii), spec.angles
    assert G._matrix is None and G._circulant is not None
    first, bound = G._circulant
    assert first.tobytes() == matrix.reshape(R, A, R, A)[:, :, :, 0].tobytes()
    assert G.diagonal.tobytes() == matrix.diagonal().tobytes()
    assert (_bits(G.asymmetry), _bits(G.peak)) == tuple(map(_bits, route))
    # The bound holds the measured deviation (route blocks: tests/test_gram_route.py).
    assert bound >= _reference_route(text, grid)[0]
    # The matrix is read once per kernel and grid: the explicit-* cases
    # check the dense assembly against the reference at every W.
    if w is None:
        assert G.matrix.tobytes() == matrix.tobytes()


BOUNDARY = {
    "to-0.99": sample_grid(RadialGrid((0.3, 0.6, 0.9, 0.99), 40)),
    "to-0.999": sample_grid(RadialGrid((0.5, 0.9, 0.97, 0.999), 37)),
}


@pytest.mark.parametrize("grid", sorted(BOUNDARY))
@pytest.mark.parametrize("text", [t for t in KERNELS if _routed(t, "radial-160")])
def test_the_bound_holds_near_the_boundary(text, grid):
    # The bound may send such Grams to the dense route, but never below
    # the measured deviation, and the route is never taken where that
    # deviation refuses it.
    points = BOUNDARY[grid]
    kernel = parse_kernel(text)
    R, A = len(points.spec.radii), points.spec.angles
    G = gram(kernel, points)
    matrix, _, peak = _reference_gram(kernel, points)
    dev = _reference_check(matrix, R, A)
    bound = G._circulant[1]
    assert bound >= dev
    for tol in TOLERANCES:
        if _angle_blocks(G, tol) is not None:
            assert _reference_blocks(matrix, R, A, dev, peak, tol) is not None


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
    It has no ``rounding_bound``, so its Grams are dense on any grid.
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
    # The dense assembly, as a routed Gram would give its matrix; a Gram
    # built directly takes the dense route whatever its points.
    G = kx._gram(parse_kernel("bergman[alpha=0.5]"), POINT_SETS["radial-%d" % n])
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
        _check_route(D)
        if not math.isfinite(expected):
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
