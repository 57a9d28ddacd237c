"""Minimum-separation checks: random-grid rejection and the PointSet check.

Both go through one sort-and-sweep routine, ``kernels._first_crowded``. The
two blocked O(n^2) checks it replaced are kept below as references.
"""

import time
import tracemalloc

import numpy as np
import pytest

from diskkernels import PointSet, RadialGrid, RandomGrid, sample_grid
from diskkernels import kernels as kx
from diskkernels.functions import radial_points

EPS = kx.MIN_SEPARATION
BLOCK = 256


def _blocked_separated_prefix(pts, k, m):
    """The blocked prefix check the random sampler used, kept as reference."""
    diff = np.empty((min(m, BLOCK), k + m), dtype=complex)
    dists = np.empty(diff.shape)
    for s in range(k, k + m, BLOCK):
        e = min(s + BLOCK, k + m)
        np.subtract(pts[None, :e], pts[s:e, None], out=diff[: e - s, :e])
        dist = np.abs(diff[: e - s, :e], out=dists[: e - s, :e])
        dist[:, s:][np.triu_indices(e - s)] = np.inf
        crowded = np.flatnonzero(np.min(dist, axis=1) < kx.MIN_SEPARATION)
        if len(crowded):
            return s + int(crowded[0]) - k
    return m


def _blocked_point_set_check(arr):
    """The blocked pairwise loop PointSet ran, kept as reference."""
    for start in range(0, len(arr), BLOCK):
        rows = arr[start : start + BLOCK]
        dist = np.abs(rows[:, None] - arr[None, start:])
        np.fill_diagonal(dist, np.inf)
        if np.min(dist) < kx.MIN_SEPARATION:
            raise ValueError(
                "points closer than %g are considered coincident" % kx.MIN_SEPARATION
            )


def _loop_random_points(spec):
    """The scalar rejection loop that sample_grid vectorizes, kept as reference.

    Returns the accepted points and the number of rejected draws.
    """
    rng = np.random.default_rng(spec.seed)
    accepted = []
    rejected = 0
    while len(accepted) < spec.count:
        radius = spec.rmax * np.sqrt(rng.random())
        angle = 2.0 * np.pi * rng.random()
        z = complex(radius * np.cos(angle), radius * np.sin(angle))
        if all(abs(z - p) >= kx.MIN_SEPARATION for p in accepted):
            accepted.append(z)
        else:
            rejected += 1
    return tuple(accepted), rejected


@pytest.mark.parametrize("seed", [0, 1, 5, 401, 2**31])
def test_random_grid_matches_scalar_loop(seed):
    spec = RandomGrid(300, 0.9, seed)
    assert sample_grid(spec).points == _loop_random_points(spec)[0]


@pytest.mark.parametrize("seed", [0, 3, 17])
def test_random_grid_matches_scalar_loop_with_rejections(monkeypatch, seed):
    monkeypatch.setattr(kx, "MIN_SEPARATION", 0.03)
    spec = RandomGrid(400, 0.9, seed)
    expected, rejected = _loop_random_points(spec)
    assert rejected > 0
    assert sample_grid(spec).points == expected


@pytest.mark.parametrize("pair", [(3, 40), (1100, 1199), (0, 1199), (255, 256)])
def test_point_set_rejects_coincident_pair_in_any_block(pair):
    pts = list(sample_grid(RandomGrid(1200, 0.9, 2)).points)
    i, j = pair
    pts[j] = pts[i] + 1e-12
    with pytest.raises(ValueError, match="considered coincident"):
        PointSet(tuple(pts))


def test_point_set_accepts_separated_points_across_blocks():
    pts = sample_grid(RandomGrid(1200, 0.9, 2)).points
    assert len(PointSet(pts)) == 1200
    assert len(PointSet(pts[:1])) == 1


def _explicit_sets():
    base = np.asarray(sample_grid(RandomGrid(700, 0.9, 2)).points)
    yield "random", base
    yield "radial", np.asarray(sample_grid(RadialGrid((0.2, 0.5, 0.9), 64)).points)
    offsets = [
        ("planted", 1.2e-10 * (0.6 + 0.8j)),
        ("duplicate", 0.0),
        ("near", 1e-12),
        ("below", EPS * (1 - 1e-15)),
        ("at", EPS),
        ("above", EPS * (1 + 1e-15)),
        ("below-imag", 1j * EPS * (1 - 1e-15)),
        ("at-imag", 1j * EPS),
        ("above-imag", 1j * EPS * (1 + 1e-15)),
    ]
    for i, j in [(3, 40), (40, 3), (0, 699), (255, 256), (600, 2)]:
        for name, off in offsets:
            # Planted at the origin the offset is exact, so "below" and
            # "above" are one rounding step either side of the separation;
            # planted at 0.5 it is rounded.
            for anchor in (0.0, 0.5):
                pts = base.copy()
                pts[i] = anchor
                pts[j] = anchor + off
                yield "%s-%d-%d-at-%g" % (name, i, j, anchor), pts
    # Imaginary-axis clusters: every real part is 0, so the sweep cannot
    # prune by real part. A cluster 0, c i, -c i, 2c i with c one rounding
    # step either side of the separation goes into a line of points.
    line = 1j * np.linspace(-0.9, 0.9, 60)
    for k in range(0, 61, 12):
        for name, c in [("below", EPS * (1 - 1e-15)), ("above", EPS * (1 + 1e-15))]:
            cluster = 1j * np.array([0.0, c, -c, 2 * c])
            yield "imag-axis-%s-%d" % (name, k), np.insert(line, k, cluster)
    conj = base[np.abs(base.imag) > 1e-3][:200]
    yield "conjugate-pairs", np.concatenate([conj, np.conj(conj)])


@pytest.mark.parametrize("pts", [pytest.param(p, id=n) for n, p in _explicit_sets()])
def test_sweep_agrees_with_the_blocked_checks(pts):
    crowded = kx._first_crowded(pts)
    expected = _blocked_separated_prefix(pts, 0, len(pts))
    assert (len(pts) if crowded is None else crowded) == expected
    try:
        _blocked_point_set_check(pts)
    except ValueError as err:
        with pytest.raises(ValueError) as got:
            PointSet(tuple(pts))
        assert (type(got.value), str(got.value)) == (type(err), str(err))
    else:
        assert PointSet(tuple(pts)).points == tuple(pts.tolist())


def test_sweep_finds_the_smallest_crowded_index():
    pts = np.asarray(sample_grid(RandomGrid(300, 0.9, 4)).points)
    pts[250] = pts[10] + 1e-12  # crowded index 250
    pts[120] = pts[200] + 1e-12  # crowded index 200, a later pair in input order
    assert kx._first_crowded(pts) == 200 == _blocked_separated_prefix(pts, 0, 300)
    assert kx._first_crowded(pts[:200]) is None


def test_sweep_keeps_going_past_the_first_lag_with_a_close_pair():
    # Sorted by real part: 0 (index 0), 2e-11 + 0.5i (2), 5e-11 (1), so the
    # pair crowding index 1 is two places apart; 0.3 and 0.3 + 1e-12 i
    # (indices 3, 4) are adjacent and crowd the later index 4.
    pts = np.array([0.0, 5e-11, 2e-11 + 0.5j, 0.3, 0.3 + 1e-12j])
    assert kx._first_crowded(pts) == 1 == _blocked_separated_prefix(pts, 0, 5)


def test_sweep_reads_a_patched_separation(monkeypatch):
    pts = np.array([0.1, 0.12, 0.5j])
    assert kx._first_crowded(pts) is None
    monkeypatch.setattr(kx, "MIN_SEPARATION", 0.03)
    assert kx._first_crowded(pts) == 1
    with pytest.raises(ValueError, match="closer than 0.03"):
        PointSet(tuple(pts))


def test_vertical_line_worst_case():
    # Every real part is equal, so the sweep runs all n - 1 lags.
    line = 0.3 + 1j * np.linspace(-0.9, 0.9, 4096)
    start = time.perf_counter()
    assert kx._first_crowded(line) is None
    assert time.perf_counter() - start < 5.0
    assert len(PointSet(tuple(line))) == 4096
    line[4095] = line[0] + 0.5j * EPS
    assert kx._first_crowded(line) == 4095 == _blocked_separated_prefix(line, 0, 4096)


def test_sample_grid_allocates_no_pairwise_matrix():
    tracemalloc.start()
    try:
        sample_grid(RandomGrid(4096, 0.9, 3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6


@pytest.mark.parametrize(
    "radii, angles",
    [((0.5,), 1), ((0.2, 0.4, 0.6, 0.8, 0.9), 16), ((0.9, 0.1, 0.33), 97), ((0.3, 0.6), 400)],
)
def test_radial_points_match_the_comprehension(radii, angles):
    circle = np.exp(2j * np.pi * np.arange(angles) / angles)
    expected = np.asarray([r * a for r in radii for a in circle])
    assert radial_points(radii, angles).tobytes() == expected.tobytes()
    assert sample_grid(RadialGrid(radii, angles)).points == tuple(expected.tolist())


def test_point_set_keeps_one_read_only_copy():
    src = np.array([0.1, 0.2j, -0.3])
    P = PointSet(src)
    src[0] = 0.9
    assert P.points == (0.1 + 0j, 0.2j, -0.3 + 0j)
    assert P.array.tobytes() == np.array(P.points).tobytes()
    assert not P.array.flags.writeable
    assert P == PointSet(P.points) and hash(P) == hash(PointSet(P.points))
