"""Routed Grams: the rotation route evaluates the first columns and the diagonal only.

On a ``sample_grid`` radial grid a rotation-invariant kernel's Gram holds no
n x n matrix: ``kernels.gram`` evaluates the first column of each A x A
block and the diagonal, 2 R n + n entries, keeps them with an a priori
bound on ||G - C||_F, and builds ``matrix`` densely when it is first read.

Each routed case of ``test_gram_and_route_match_the_reference`` in
``tests/test_gram_assembly.py`` compares what the Gram keeps with the
whole-matrix reference; its case here compares the route blocks with those
the reference matrix gives where its measured deviation admits them, bit
for bit and with the same route choice at every tolerance. This file also
checks that those cases cover every invariant kernel, and what the route
evaluates, holds and raises.
"""

import math
import threading
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
    _leaves_the_ball,
    _reference_blocks,
    _reference_check,
    _reference_route,
    _routed,
)


def _routed_cases():
    """The cases of ``test_gram_and_route_match_the_reference`` whose Gram is routed."""
    return [case for case in _cases() if _routed(*case.values[:2])]


@pytest.mark.parametrize("text, grid, w", _routed_cases())
def test_routed_gram_keeps_the_bits_of_the_dense_assembly(text, grid, w, monkeypatch):
    if w is not None:
        monkeypatch.setattr(kx, "_gram_workers", lambda: w)
    G = gram(parse_kernel(text), POINT_SETS[grid])
    reference_blocks = _reference_route(text, grid)[1]
    assert G._matrix is None and G._circulant is not None
    for tol, reference in zip(TOLERANCES, reference_blocks):
        routed = _angle_blocks(G, tol)
        assert (routed is None) == (reference is None)
        if routed is not None:
            assert routed.tobytes() == reference.tobytes()


def test_routed_cases_cover_every_invariant_kernel_and_radial_grid():
    cases = {(c.values[0], c.values[1]) for c in _routed_cases()}
    invariant = [t for t in KERNELS if kx._circulant_shape(parse_kernel(t), POINT_SETS["radial-481"])]
    radial = [g for g in POINT_SETS if g.startswith("radial-")]
    assert len(invariant) >= 10 and len(radial) >= 9
    assert cases == {(t, g) for t in invariant for g in radial}
    # Every other point set is dense.
    for grid in ("random-481", "explicit-1025"):
        assert gram(kx.Szego(), POINT_SETS[grid])._circulant is None


def test_a_routed_gram_starts_no_thread(monkeypatch):
    # The route evaluates no strips, so W changes neither its work nor its bits.
    points = POINT_SETS["radial-1025"]
    kernel = parse_kernel("sum(szego,dbr[b=blaschke[0]])")
    monkeypatch.setattr(kx, "_gram_workers", lambda: 1)
    serial = gram(kernel, points)

    def refuse(self):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    monkeypatch.setattr(kx, "_gram_workers", lambda: 64)
    G = gram(kernel, points)
    assert G._circulant[0].tobytes() == serial._circulant[0].tobytes()
    assert G.diagonal.tobytes() == serial.diagonal.tobytes()
    assert (G._circulant[1], G.peak, G.asymmetry) == (
        serial._circulant[1], serial.peak, serial.asymmetry
    )


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

    def rounding_bound(self, x):
        return self.kernel.rounding_bound(x)


RADIAL = sample_grid(RadialGrid((0.3, 0.5, 0.7, 0.9), 120))


def test_each_gram_evaluates_every_pair_once_and_the_first_columns_on_the_route():
    n, R = len(RADIAL), len(RADIAL.spec.radii)
    route = 2 * R * n + n

    K = _Counting(kx.Szego())
    G = gram(K, RADIAL)
    assert is_psd(G).is_psd and K.entries == route
    # The matrix, read off a routed Gram, is assembled once.
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

    # Explicit points are dense, and a Gram of one strip evaluates every pair once.
    small = PointSet(sample_grid(RadialGrid((0.3, 0.6), 64)).points)
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
    # The kernel values at 2 R n + n entries, their symmetrized columns and
    # the (A, R, R) blocks: 1.3-1.4 MB, 0.032-0.035 n^2 16 B, traced with
    # numpy 2.4 on x86-64, where the dense assembly held the whole 41 MB
    # matrix (1.22 n^2 16 B).
    assert peak <= 0.05 * 16 * n * n


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
        kx._gram(K, points)
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
        kx._gram(kernel, points)
    with pytest.raises(ValueError) as routed:
        gram(kernel, points)
    assert str(routed.value) == str(dense.value)


@pytest.mark.parametrize("angles", [1, 2, 4, 5])
def test_few_angles_take_the_route(angles):
    # However few the angles, the route evaluates 2 R n + n entries; with
    # one angle every entry is in a first column, and the bound is 0.
    points = sample_grid(RadialGrid(tuple(np.linspace(0.05, 0.95, 300 // angles)), angles))
    K = _Counting(kx.Szego())
    G = gram(K, points)
    n, R = len(points), len(points.spec.radii)
    assert G._circulant is not None and K.entries == 2 * R * n + n
    assert (G._circulant[1] == 0.0) == (angles == 1)
    D = kx._gram(kx.Szego(), points)
    dev = _reference_check(D.matrix, R, points.spec.angles)
    reference = _reference_blocks(D.matrix, R, points.spec.angles, dev, D.peak, DEFAULT_TOL)
    assert _angle_blocks(G, DEFAULT_TOL).tobytes() == reference.tobytes()


def test_a_routed_gram_on_explicit_points_is_dense():
    points = PointSet(RADIAL.points)
    assert kx._circulant_shape(kx.Szego(), points) is None
    G = gram(kx.Szego(), points)
    assert G._circulant is None and not math.isnan(G.peak)


class _CountingWithBound(_Counting):
    """A counting kernel that forwards ``entry_bound``, as every kernel node has it."""

    def entry_bound(self, points):
        return self.kernel.entry_bound(points)


def test_a_refuted_membership_check_evaluates_the_diagonal_only():
    n = len(RADIAL)
    f = parse_function("poly[0.1,0.2]", schur=False)
    K = _CountingWithBound(kx.Szego())
    verdict = membership_check(f, K, 0.01, RADIAL)
    assert not verdict.is_psd and K.entries == n
    # The spectrum assembles the test matrix when it is first read, once.
    verdict.min_eigenvalue
    verdict.spectral_norm
    assert K.entries == n + n * n

    # Without entry_bound the check assembles at once, and evaluates no diagonal first.
    K = _Counting(kx.Szego())
    assert not membership_check(f, K, 0.01, RADIAL).is_psd
    assert K.entries == n * n

    # A check the diagonal does not refute evaluates it, then assembles.
    K = _CountingWithBound(kx.Szego())
    assert membership_check(f, K, 2.0, RADIAL).is_psd
    assert K.entries == n + n * n
