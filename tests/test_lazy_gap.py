"""The dominance gap, solved when it is first read.

``DominanceReport.min_eig_at_delta``, the least eigenvalue of
delta G2 - G1, costs one more eigensolve of the pencil's size. It is solved
on its first read, with the bits of the former eager expression, and a
``TheoremReport`` reads it only when its details are read. The pencil
itself is formed in one buffer (``psd._mirror``), so a dominance pass that
nobody reads the gap of holds about two n x n matrices beside its Grams.
"""

import tracemalloc

import numpy as np
import pytest

from diskkernels import (
    BlaschkeProduct,
    RadialGrid,
    RandomGrid,
    Scale,
    SubBergman,
    Szego,
    WeightedBergman,
    dominance_delta_min,
    gram,
    sample_grid,
    verify_inclusion,
    verify_m1,
)
from diskkernels import psd
from diskkernels.psd import DEFAULT_TOL, FACTOR_BLOCK, _angle_blocks, _mirror

REAL_EIGVALSH = np.linalg.eigvalsh

DENSE = RandomGrid(count=160, rmax=0.9, seed=3)
ROUTED = RadialGrid(radii=(0.3, 0.6, 0.9), angles=40)


@pytest.fixture
def eig_calls(monkeypatch):
    """The shapes of the eigvalsh calls made while the test runs."""
    calls = []

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return REAL_EIGVALSH(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    return calls


@pytest.mark.parametrize("grid", [DENSE, ROUTED], ids=["dense", "routed"])
def test_the_gap_is_solved_once_on_first_read(grid, eig_calls):
    points = sample_grid(grid)
    report = dominance_delta_min(Scale(0.5, Szego()), Szego(), points)
    assert report.delta_min == pytest.approx(0.5, rel=1e-9)
    assert len(eig_calls) == 1
    first = report.min_eig_at_delta
    assert len(eig_calls) == 2
    assert eig_calls[0] == eig_calls[1]
    assert report.min_eig_at_delta == first
    report.report_dict()
    assert len(eig_calls) == 2


def test_the_routed_gap_is_one_batched_solve(eig_calls):
    points = sample_grid(ROUTED)
    dominance_delta_min(Scale(0.5, Szego()), Szego(), points).min_eig_at_delta
    assert eig_calls == [(40, 3, 3)] * 2


def test_a_theorem_report_solves_the_gap_only_for_its_details(eig_calls):
    b = BlaschkeProduct((0.3, 0.5j))
    report = verify_inclusion(b, 0.0, sample_grid(RandomGrid(count=80, rmax=0.9, seed=1)))
    assert report.verdict == "pass"
    assert len(eig_calls) == 1
    first = report.report_dict()
    assert len(eig_calls) == 2
    assert report.report_dict() == first
    assert report.details == tuple(first["details"])
    assert len(eig_calls) == 2


def test_m1_reads_both_gaps_only_for_its_details(eig_calls):
    b = BlaschkeProduct((0.4,))
    report = verify_m1(b, sample_grid(RandomGrid(count=60, rmax=0.9, seed=2)))
    assert report.holds
    before = len(eig_calls)
    inclusion, forward = report.details
    assert len(eig_calls) == before + 2
    assert inclusion["details"][0]["min_eig"] == report.parts[0].parts[0].min_eig_at_delta
    assert forward["details"][1]["delta_min"] == report.parts[1].parts[1].delta_min


def _eager_gap(k1, k2, points, delta):
    """The least eigenvalue of delta G2 - G1, as the report computed it eagerly."""
    G1, G2 = (_angle_blocks(gram(k, points), DEFAULT_TOL) for k in (k1, k2))
    if G1 is None or G2 is None:
        G1, G2 = (gram(k, points._without_spec()).matrix[None] for k in (k1, k2))
    return float(np.min(np.linalg.eigvalsh(np.subtract(np.multiply(delta, G2), G1))))


@pytest.mark.parametrize(
    "k1,k2,grid",
    [
        (Scale(0.5, Szego()), Szego(), DENSE),
        (WeightedBergman(0.0), Szego(), RandomGrid(count=130, rmax=0.95, seed=2)),
        (SubBergman(BlaschkeProduct((0.3, 0.5j)), 0.0), Szego(), RandomGrid(count=200, rmax=0.9, seed=1)),
        (WeightedBergman(0.0), Szego(), ROUTED),
        (Szego(), WeightedBergman(0.0), RadialGrid(radii=(0.2, 0.5, 0.8), angles=8)),
    ],
)
def test_the_lazy_gap_has_the_bits_of_the_eager_one(k1, k2, grid):
    points = sample_grid(grid)
    report = dominance_delta_min(k1, k2, points)
    want = _eager_gap(k1, k2, points, report.delta_min)
    assert report.min_eig_at_delta.hex() == want.hex()


def test_equality_hash_and_repr_read_the_gap():
    points = sample_grid(DENSE)
    one = dominance_delta_min(Scale(0.5, Szego()), Szego(), points)
    two = dominance_delta_min(Scale(0.5, Szego()), Szego(), points)
    assert "min_eig_at_delta" not in vars(one)
    assert one == two and hash(one) == hash(two)
    assert "min_eig_at_delta" in vars(one) and "min_eig_at_delta" in vars(two)
    assert repr(one) == (
        "DominanceReport(delta_min=%r, min_eig_at_delta=%r, regularization_jitter=%r, "
        "grid=%r, grid_size=160, kernel1=Scale(factor=0.5, operand=Szego()), kernel2=Szego())"
        % (one.delta_min, one.min_eig_at_delta, one.regularization_jitter, one.grid)
    )
    other = dominance_delta_min(Scale(0.25, Szego()), Szego(), points)
    assert one != other
    assert one != one.report_dict()
    assert len({one, two, other}) == 2


@pytest.mark.parametrize("n", [1, FACTOR_BLOCK - 1, FACTOR_BLOCK, FACTOR_BLOCK + 1, 200])
@pytest.mark.parametrize("count", [1, 3])
def test_mirror_has_the_bits_of_the_whole_array_expression(n, count):
    rng = np.random.default_rng(n + count)
    X = rng.normal(size=(count, n, n)) + 1j * rng.normal(size=(count, n, n))
    # Signed zeros in both parts, where the order of a sum could show.
    X.real[:, ::3] = rng.choice([0.0, -0.0], size=X.real[:, ::3].shape)
    X.imag[:, :, ::5] = rng.choice([0.0, -0.0], size=X.imag[:, :, ::5].shape)
    star = np.conjugate(X.transpose(0, 2, 1))
    assert _mirror(X.copy(), False).tobytes() == star.tobytes()
    assert _mirror(X.copy(), True).tobytes() == (X + star).tobytes()


def test_an_unread_pencil_holds_two_matrices_and_keeps_none():
    n = 400
    points = sample_grid(RandomGrid(count=n, rmax=0.9, seed=1))
    G1, G2 = gram(Scale(0.5, Szego()), points), gram(Szego(), points)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        report = psd._dominance(G1, G2, DEFAULT_TOL)
        held, peak = (x - base for x in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert report.delta_min == pytest.approx(0.5, rel=1e-9)
    assert "min_eig_at_delta" not in vars(report)
    # L with L^-1 G1, then the pencil alone, and one block row of products;
    # the eager gap and the copied conjugate transposes held 3.05.
    assert peak <= 2.25 * n * n * 16
    # The report keeps G1 and G2, which the Grams hold already, and no pencil.
    assert held <= 0.01 * n * n * 16
