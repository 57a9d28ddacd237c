"""Gram strips spread over the CPUs the process may use.

``kernels.gram`` hands its strips to the calling thread and W - 1 helper
threads, W = ``kernels._gram_workers()``. These tests patch W and require
the bits of the whole-matrix reference of ``test_gram_assembly`` for every
W, the error a serial loop would raise, no thread at W = 1, no helper
outliving its Gram, no leaked warning, the in-flight memory budget for
large W, a working ``gram`` after ``os.fork``, and no new import at startup.
"""

import os
import pathlib
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

import diskkernels
from diskkernels import kernels as kx
from diskkernels.kernels import PointSet, RandomGrid, gram, sample_grid
from diskkernels.psd import DEFAULT_TOL
from diskkernels.specs import parse_function, parse_kernel
from test_gram_assembly import (
    KERNELS,
    POINT_SETS,
    _check_against_reference,
    _bits,
    _check_route,
    _leaves_the_ball,
    _Planted,
    _reference_gram,
)

SRC = str(pathlib.Path(diskkernels.__file__).resolve().parents[1])
WORKERS = (1, 2, 3, 5)
# The point sets whose Gram is more than one strip.
SPLIT = [name for name, points in POINT_SETS.items() if len(points) ** 2 > kx.GRAM_STRIP_ENTRIES]


@pytest.fixture
def workers(monkeypatch):
    """Set W for the test."""

    def set_workers(w):
        monkeypatch.setattr(kx, "_gram_workers", lambda: w)

    return set_workers


@pytest.fixture
def no_thread_start(monkeypatch):
    """Fail the test if any thread is started."""

    def refuse(self):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading.Thread, "start", refuse)


def _run_python(code, *flags):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *flags, "-c", code], capture_output=True, text=True,
        env=env, timeout=120,
    )


def test_the_split_sets_include_the_largest():
    assert {"radial-1025", "random-1025", "explicit-1025", "random-481"} <= set(SPLIT)
    for w in WORKERS:
        rows, threads = kx._strip_plan(1025, w)
        assert threads == min(w, 4) and len(range(0, 1025, rows)) > threads


def test_the_strips_in_flight_hold_no_more_than_one_serial_strip():
    for n in (1, 100, 256, 257, 300, 481, 800, 1025, 1600, 4096):
        serial = max(64, kx.GRAM_STRIP_ENTRIES // n)
        for w in WORKERS + (4, 8, 64, 1024):
            rows, threads = kx._strip_plan(n, w)
            if n <= 256:
                assert (rows, threads) == (n, 1)
            elif w == 1:
                assert (rows, threads) == (serial, 1)
            else:
                assert 1 <= threads <= w and rows >= 16
                assert serial - threads < threads * rows <= serial
                # Every thread has a strip to take.
                assert len(range(0, n, rows)) > threads


@pytest.mark.parametrize("grid", SPLIT)
@pytest.mark.parametrize("text", KERNELS)
def test_every_worker_count_gives_the_reference_bits(text, grid, workers):
    kernel, points = parse_kernel(text), POINT_SETS[grid]
    matrix, asym, peak = _reference_gram(kernel, points)
    for w in WORKERS:
        workers(w)
        G = gram(kernel, points)
        assert G.matrix.tobytes() == matrix.tobytes()
        assert (_bits(G.asymmetry), _bits(G.peak)) == (_bits(asym), _bits(peak))
    # Equal bits make equal route choices; check them once against the reference.
    for tol in (DEFAULT_TOL, 0.0):
        _check_route(G, tol)


@pytest.mark.parametrize("w", [2, 3, 5])
def test_errors_match_the_reference_for_every_worker_count(w, workers):
    workers(w)
    points = POINT_SETS["random-1025"]
    n = len(points)
    for where in ((0, 0), (n - 1, 0), (n // 2, n - 1), (n - 1, n - 1)):
        _check_against_reference(_Planted(points, [(where, np.nan)]), points)
    f = parse_function("poly[1.2e154]", schur=False)
    assert _check_against_reference(kx.ConjugateScale(f, kx.Szego()), points) is None
    for skew in (1e-9, 1e-14):
        _check_against_reference(_Planted(skew=skew), points)


def test_one_worker_starts_no_thread(workers, no_thread_start):
    workers(1)
    G = _check_against_reference(parse_kernel("szego"), POINT_SETS["random-1025"])
    assert G is not None


def test_a_one_strip_gram_starts_no_thread(workers, no_thread_start):
    workers(5)
    gram(parse_kernel("szego"), POINT_SETS["radial-160"])


def test_no_helper_outlives_its_gram(workers, monkeypatch):
    started, start = [], threading.Thread.start

    def spy(self):
        started.append(self)
        start(self)

    monkeypatch.setattr(threading.Thread, "start", spy)
    workers(3)
    before = threading.active_count()
    gram(parse_kernel("szego"), POINT_SETS["random-481"])
    assert len(started) == 2 and not any(t.is_alive() for t in started)
    assert threading.active_count() == before


def test_a_thread_that_cannot_start_leaves_the_work_to_the_others(workers, monkeypatch):
    def refuse(self):
        raise RuntimeError("can't start new thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    workers(3)
    G = _check_against_reference(parse_kernel("szego"), POINT_SETS["random-1025"])
    assert G is not None


class _Recording:
    """Szego, recording the threads that evaluate it."""

    def __init__(self):
        self.threads = set()

    def eval(self, z, w):
        self.threads.add(threading.current_thread())
        return kx.Szego().eval(z, w)


@pytest.mark.parametrize("w", [1, 2, 3, 5])
def test_at_most_w_minus_one_helpers_take_strips(w, workers):
    workers(w)
    kernel = _Recording()
    gram(kernel, POINT_SETS["random-1025"])
    assert len(kernel.threads) <= min(w, 4)


def _gram_peak(points):
    tracemalloc.start()
    try:
        gram(kx.Szego(), points)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("w", [8, 64])
def test_many_workers_hold_no_more_than_one_worker_at_the_peak(w, workers):
    # The strips in flight hold no more entries than one serial strip, so
    # the peak is that of W = 1, whatever W. At n = 1600 a serial strip is
    # 64 rows, 1.6 MB of kernel values; 64 strips of 16 rows would be 26 MB.
    points = sample_grid(RandomGrid(1600, 0.9, 5))
    points.array  # cached before tracing
    workers(1)
    serial = _gram_peak(points)
    workers(w)
    assert max(_gram_peak(points) for _ in range(3)) <= serial + 2**20


class _FailingStrips:
    """Szego, except that strips 0 and 1 raise when asked for X.

    Every other strip waits until strip 1 has raised, and strip 0 raises
    only then, so the later strip's error is recorded first and no strip
    finishes before a failure.
    """

    def __init__(self, points, rows):
        arr = points.array
        self.starts = {complex(arr[s]): s // rows for s in range(0, len(arr), rows)}
        self.failed = threading.Event()
        self.evaluated = set()
        self.lock = threading.Lock()

    def eval(self, z, w):
        k = self.starts.get(complex(z.flat[0]))
        if k is not None and complex(w.flat[0]) == complex(z.flat[0]):
            with self.lock:
                self.evaluated.add(k)
            if k == 1:
                self.failed.set()
                raise ValueError("strip 1")
            self.failed.wait(timeout=10)
            if k == 0:
                raise ValueError("strip 0: the whole grid")
        return kx.Szego().eval(z, w)


@pytest.mark.parametrize("w", [2, 3, 5])
def test_the_lowest_failed_strip_wins_and_stops_the_hand_out(w, workers):
    workers(w)
    points = POINT_SETS["random-1025"]
    kernel = _FailingStrips(points, kx._strip_plan(len(points), w)[0])
    assert len(kernel.starts) > w
    with pytest.raises(ValueError, match="^strip 0: the whole grid$"):
        gram(kernel, points)
    assert kernel.failed.is_set()
    # Each thread claims at most one strip before strip 1 fails, and none
    # after it.
    assert {0, 1} <= kernel.evaluated <= set(range(w))


@pytest.mark.parametrize(
    "build", [lambda f: kx.DBR(f), lambda f: kx.SubBergman(f, 1.0)]
)
def test_a_symbol_refusing_points_gives_the_whole_grid_message(build, workers):
    # 20 z^200 leaves the ball by most at point 0, which only strip 0 holds
    # in w; every strip holds the last point, where it leaves by less.
    arr = POINT_SETS["random-1025"].array * 0.9
    arr[0] = 0.995j
    arr[-1] = 0.988
    points = PointSet(arr)
    kernel = build(_leaves_the_ball())
    for w in WORKERS:
        workers(w)
        with pytest.raises(ValueError, match=r"modulus 7\.3"):
            gram(kernel, points)


def test_a_helper_starting_after_the_last_claim_returns_at_once(monkeypatch):
    ran = []
    start, join = threading.Thread.start, threading.Thread.join
    helpers = []

    def late_start(self, timeout=None):
        # The caller has claimed every strip by the time it joins.
        helpers.append(self)
        start(self)
        join(self, timeout)

    monkeypatch.setattr(threading.Thread, "start", lambda self: None)
    monkeypatch.setattr(threading.Thread, "join", late_start)
    kx._run_strips(ran.append, 3, 2)
    assert ran == [0, 1, 2]
    assert len(helpers) == 1 and not helpers[0].is_alive()


def test_concurrent_grams(workers):
    """More workers than cores, two callers at once and a short switch
    interval: a lost claim would leave a strip unwritten or written twice."""
    workers(5)
    cases = [(parse_kernel(t), POINT_SETS[g]) for t, g in (
        ("dbr[b=blaschke[0.3,-0.5i]]", "radial-1025"),
        ("cscale(poly[0.2,0.3],szego)", "random-1025"),
    )]
    expected = [gram(k, p).matrix.tobytes() for k, p in cases]
    results = {}

    def run(i):
        k, p = cases[i % 2]
        results[i] = [gram(k, p).matrix.tobytes() == expected[i % 2] for _ in range(3)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
        start = time.monotonic()
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert time.monotonic() - start < 120
    assert results == {i: [True] * 3 for i in range(4)}


WARNINGS_SCRIPT = """
import numpy as np
from diskkernels import kernels as kx
from diskkernels.specs import parse_function, parse_kernel
kx._gram_workers = lambda: 3
points = kx.sample_grid(kx.RandomGrid(700, 0.9, 4))
f = parse_function("poly[1.2e154]", schur=False)
for kernel in (kx.ConjugateScale(f, kx.Szego()), parse_kernel("bergman[alpha=0.5]")):
    try:
        kx.gram(kernel, points)
    except ValueError as exc:
        print(exc)
import threading
print(threading.active_count())
"""


def test_no_helper_leaks_a_warning():
    proc = _run_python(WARNINGS_SCRIPT, "-W", "error")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout == "kernel evaluation has non-finite entries\n1\n"


FORK_SCRIPT = """
import os, threading
from diskkernels import kernels as kx
kx._gram_workers = lambda: 2
points = kx.sample_grid(kx.RandomGrid(600, 0.9, 2))
expected = kx.gram(kx.Szego(), points).matrix.tobytes()
# No helper is left running to be lost in the fork.
assert threading.active_count() == 1
pid = os.fork()
if pid == 0:
    helpers = []
    start = threading.Thread.start
    def spy(self):
        helpers.append(self)
        start(self)
    threading.Thread.start = spy
    ok = kx.gram(kx.Szego(), points).matrix.tobytes() == expected
    os._exit(0 if ok and len(helpers) == 1 else 1)
_, status = os.waitpid(pid, 0)
print(os.waitstatus_to_exitcode(status))
"""


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_assembles_its_own_gram_with_a_helper():
    proc = _run_python(FORK_SCRIPT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0\n"


def test_startup_imports_no_executor():
    proc = _run_python(
        "import sys, diskkernels.cli\n"
        "print(sorted(m for m in ('concurrent.futures', 'queue', 'logging') if m in sys.modules))"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
