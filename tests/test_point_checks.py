"""Minimum-separation checks: random-grid rejection and the PointSet check."""

import numpy as np
import pytest

from diskkernels import PointSet, RandomGrid, sample_grid
from diskkernels import kernels as kx


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
