"""Routed Grams: rotation-route assembly that keeps no n x n matrix.

On a ``sample_grid`` radial grid a rotation-invariant kernel's Gram of more
than one strip is assembled without its matrix: ``kernels.gram`` keeps the
first column of each A x A block, the diagonal, the peak, the asymmetry and
||G - C||_F^2, and builds ``matrix`` densely when it is first read.

The dense assembly (``kernels._gram(kernel, points, None)``) is the
reference: everything a routed Gram keeps, and everything read off it, must
have its bits, for every worker count W, and the deviation must not depend
on W. Each routed (kernel, grid, W) Gram is assembled once and checked by
two tests: its case of ``test_gram_and_route_match_the_reference`` in
``tests/test_gram_assembly.py`` compares its diagonal, peak, asymmetry,
deviation and ``matrix`` with the whole-matrix reference, which has the bits
of the dense assembly, and its case here compares its route blocks with the
route of a Gram built on that matrix. This file also checks that those cases
cover every invariant kernel, and what the route evaluates, holds and raises.
"""

import math
import struct
import sys
import tracemalloc

import numpy as np
import pytest

from diskkernels import cli
from diskkernels import kernels as kx
from diskkernels.kernels import PointSet, RadialGrid, gram, sample_grid
from diskkernels.psd import (
    DEFAULT_TOL,
    _angle_blocks,
    dominance_delta_min,
    is_psd,
    membership_check,
)
from diskkernels.specs import parse_function, parse_grid, parse_kernel
from test_gram_assembly import (
    KERNELS,
    POINT_SETS,
    TOLERANCES,
    _cases,
    _dense,
    _leaves_the_ball,
    _routed,
    _routed_gram,
)


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def _routed_cases():
    """The cases of ``test_gram_and_route_match_the_reference`` whose Gram is routed."""
    return [case for case in _cases() if _routed(*case.values[:2])]


@pytest.mark.parametrize("text, grid, w", _routed_cases())
def test_routed_gram_keeps_the_bits_of_the_dense_assembly(text, grid, w, monkeypatch):
    if w is not None:
        monkeypatch.setattr(kx, "_gram_workers", lambda: w)
    # The Gram of the same case of test_gram_and_route_match_the_reference,
    # which checks what it keeps against the reference.
    G = _routed_gram(text, grid, w)
    dense_blocks = _dense(text, grid)[0]
    assert G._matrix is None and G._circulant is not None
    for tol, dense in zip(TOLERANCES, dense_blocks):
        routed = _angle_blocks(G, tol)
        assert (routed is None) == (dense is None)
        if routed is not None:
            assert routed.tobytes() == dense.tobytes()


def test_routed_cases_cover_every_invariant_kernel_and_split_grid():
    cases = {(c.values[0], c.values[1]) for c in _routed_cases()}
    invariant = [t for t in KERNELS if kx._circulant_shape(parse_kernel(t), POINT_SETS["radial-481"])]
    assert len(invariant) >= 10
    assert cases == {(t, g) for t in invariant for g in ("radial-481", "radial-1025")}
    # Grams of one strip, and every other point set, are dense.
    for grid in ("radial-160", "random-481", "explicit-1025"):
        assert gram(kx.Szego(), POINT_SETS[grid])._circulant is None


def test_strip_rooms_are_never_shared_between_threads(monkeypatch):
    # Each thread takes a room (padded rows, Y* and terms) from a shared
    # pool and returns it; two strips in one room would mix their rows.
    points = POINT_SETS["radial-1025"]
    kernel = parse_kernel("sum(szego,dbr[b=blaschke[0]])")
    monkeypatch.setattr(kx, "_gram_workers", lambda: 1)
    serial = gram(kernel, points)
    monkeypatch.setattr(kx, "_gram_workers", lambda: 64)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            G = gram(kernel, points)
            assert G.diagonal.tobytes() == serial.diagonal.tobytes()
            assert _bits(G._circulant[1]) == _bits(serial._circulant[1])
            assert _bits(G.peak) == _bits(serial.peak)
    finally:
        sys.setswitchinterval(interval)


class _Counting:
    """A kernel that counts the entries it is asked for, in any thread."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.sizes = []

    @property
    def entries(self) -> int:
        return sum(self.sizes)

    def eval(self, z, w):
        self.sizes.append(np.broadcast(z, w).size)
        return self.kernel.eval(z, w)

    def diagonal_series(self, order):
        return self.kernel.diagonal_series(order)


RADIAL = sample_grid(RadialGrid((0.3, 0.5, 0.7, 0.9), 120))


def test_each_gram_evaluates_every_pair_once_and_the_first_columns_on_the_route():
    n, R = len(RADIAL), len(RADIAL.spec.radii)
    route = n * n + 2 * R * n

    K = _Counting(kx.Szego())
    G = gram(K, RADIAL)
    assert is_psd(G).is_psd and K.entries == route
    # The matrix, read off a routed Gram, is assembled once more.
    G.matrix
    G.matrix
    assert K.entries == route + n * n

    # An invariant dominance pair: both Grams on the route.
    K1, K2 = _Counting(kx.Szego()), _Counting(kx.WeightedBergman(0.0))
    dominance_delta_min(K1, K2, RADIAL)
    assert (K1.entries, K2.entries) == (route, route)

    # One kernel off the route sends both Grams to the dense route from the start.
    K1, K2 = _Counting(kx.DBR(parse_function("blaschke[0.5]"))), _Counting(kx.Szego())
    dominance_delta_min(K1, K2, RADIAL)
    assert (K1.entries, K2.entries) == (n * n, n * n)
    K1, K2 = _Counting(kx.Szego()), _Counting(kx.DBR(parse_function("blaschke[0.5]")))
    dominance_delta_min(K1, K2, RADIAL)
    assert (K1.entries, K2.entries) == (n * n, n * n)

    # membership_check needs the matrix, so it assembles densely.
    K = _Counting(kx.Szego())
    membership_check(parse_function("poly[0.1,0.2]", schur=False), K, 2.0, RADIAL)
    assert K.entries == n * n

    # A Gram of one strip is dense and evaluates every pair once.
    small = sample_grid(RadialGrid((0.3, 0.6), 64))
    K = _Counting(kx.Szego())
    is_psd(gram(K, small))
    assert K.entries == len(small) ** 2


def test_routed_psd_check_holds_no_matrix():
    points = sample_grid(RadialGrid(tuple(np.linspace(0.1, 0.9, 10)), 160))
    n = len(points)
    points.array  # cached before tracing
    tracemalloc.start()
    try:
        verdict = is_psd(gram(kx.Szego(), points))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.is_psd
    # Strips in flight, the first columns and their windows; the dense
    # assembly held the whole 41 MB matrix (1.22 n^2 16 B traced).
    assert peak <= 0.4 * 16 * n * n


@pytest.mark.parametrize(
    "kernel, grid, message",
    [
        ("bergman[alpha=200]", "radial[0.3,0.99999;angles=64]", "non-finite entries"),
        ("bergman[alpha=200]", "radial[0.3,0.99999;angles=200]", "non-finite entries"),
        (
            "bergman[alpha=0]",
            "radial[0.3,0.999999;angles=64]",
            r"not conjugate-symmetric \(deviation 13\.2\)",
        ),
        (
            "bergman[alpha=0]",
            "radial[0.3,0.999999;angles=200]",
            r"not conjugate-symmetric \(deviation",
        ),
    ],
)
def test_route_raises_the_messages_of_the_dense_assembly(kernel, grid, message):
    K, points = parse_kernel(kernel), sample_grid(parse_grid(grid))
    with pytest.raises(ValueError, match=message) as dense:
        kx._gram(K, points, None)
    with pytest.raises(ValueError) as routed:
        gram(K, points)
    assert str(routed.value) == str(dense.value)


def test_route_keeps_the_cli_error_line(capsys):
    code = cli.main(
        ["dominance", "--k1", "bergman[alpha=0]", "--k2", "szego",
         "--grid", "radial[0.3,0.999999;angles=64]"]
    )
    assert code == 1
    assert "not conjugate-symmetric (deviation 13.2)" in capsys.readouterr().err


def test_a_symbol_leaving_the_ball_raises_the_whole_grid_message_on_the_route():
    # 20 z^200 is c z^k, so DBR of it is rotation-invariant; it leaves the
    # ball at the largest radius only, in the last strip.
    points = sample_grid(RadialGrid((0.5, 0.7, 0.9, 0.995), 100))
    kernel = kx.DBR(_leaves_the_ball())
    assert kx._circulant_shape(kernel, points) is not None
    with pytest.raises(ValueError, match=r"modulus 7\.3") as dense:
        kx._gram(kernel, points, None)
    with pytest.raises(ValueError) as routed:
        gram(kernel, points)
    assert str(routed.value) == str(dense.value)


@pytest.mark.parametrize("angles, routed", [(1, False), (2, False), (4, False), (5, True)])
def test_few_angles_assemble_densely(angles, routed):
    # Below 5 angles the first columns and their windows would hold more
    # than the matrix; the route check then reads them off the matrix.
    points = sample_grid(RadialGrid(tuple(np.linspace(0.05, 0.95, 300 // angles)), angles))
    assert len(points) ** 2 > kx.GRAM_STRIP_ENTRIES
    K = _Counting(kx.Szego())
    G = gram(K, points)
    n, R = len(points), len(points.spec.radii)
    assert (G._circulant is not None) == routed
    assert K.entries == n * n + (2 * R * n if routed else 0)
    assert _angle_blocks(G, DEFAULT_TOL) is not None
    D = kx._gram(kx.Szego(), points, None)
    assert is_psd(G) == is_psd(D)


def test_a_routed_gram_on_explicit_points_is_dense():
    points = PointSet(RADIAL.points)
    assert kx._circulant_shape(kx.Szego(), points) is None
    G = gram(kx.Szego(), points)
    assert G._circulant is None and not math.isnan(G.peak)
