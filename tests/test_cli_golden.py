"""Default CLI output against outputs recorded from an earlier release.

``cli_golden.json`` holds fixed invocations of every subcommand with the
exit code, stdout and stderr that commit bac2fb8 printed for them with one
BLAS thread. A multithreaded BLAS sums in another order and moves the last
digits of eigenvalues and of delta, so every case runs in one child
interpreter with OPENBLAS_NUM_THREADS, OMP_NUM_THREADS and MKL_NUM_THREADS
set to 1, as the benchmark runs them, whatever the test process was given.
Cases marked ``exact`` must match byte for byte. The others evaluate a
weighted Bergman power at a non-integer alpha, which is now computed in real
arithmetic and moves digits at the rounding level; their text must match
with every number masked, and each number x must agree with the recorded
y to 1e-12 max(1, |y|), the scale the library's own tolerances use, since
an eigenvalue at rounding level has no relative digits to keep.

Gram assembly spreads its strips over the CPUs the process may run on, and
that count must never move output: the cases run a second time in a child
restricted to one CPU, and every exit code, stdout and stderr must equal
the first run's byte for byte.
"""

import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

import diskkernels

CASES = json.loads((pathlib.Path(__file__).parent / "cli_golden.json").read_text())
NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:e[-+]?\d+)?")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Reads a JSON list of argv lists on stdin and writes one JSON list of
# {"code", "stdout", "stderr"} records, in order, on stdout. With the
# argument "one-cpu" it first restricts itself to one CPU.
_CHILD = """
import contextlib, io, json, os, sys
if sys.argv[1:] == ["one-cpu"]:
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from diskkernels.cli import main
runs = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    runs.append({"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()})
json.dump(runs, sys.__stdout__)
"""


def run_pinned(argvs, *child_args):
    """Run each argv through ``cli.main`` in one child with one BLAS thread."""
    src = str(pathlib.Path(diskkernels.__file__).resolve().parents[1])
    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, *child_args], input=json.dumps(argvs), env=env,
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.fixture(scope="module")
def runs():
    return run_pinned([c["argv"] for c in CASES])


def _numbers_close(out: str, expected: str) -> bool:
    if NUMBER.sub("#", out) != NUMBER.sub("#", expected):
        return False
    for x, y in zip(NUMBER.findall(out), NUMBER.findall(expected)):
        if not abs(float(x) - float(y)) <= 1e-12 * max(1.0, abs(float(y))):
            return False
    return True


def test_cases_cover_every_subcommand():
    commands = {"psd", "dominance", "verify", "membership", "multiplier", "onb",
                "ratio", "toeplitz"}
    assert {a for c in CASES for a in c["argv"] if a in commands} == commands
    assert {c["argv"][1] for c in CASES if c["argv"][0] == "verify"} == {"sub", "sub2", "m1"}
    assert any(c["exact"] for c in CASES) and not all(c["exact"] for c in CASES)


@pytest.mark.parametrize("case", CASES, ids=lambda c: " ".join(c["argv"])[:60])
def test_cli_output_matches_the_recorded_release(case, runs):
    run = runs[CASES.index(case)]
    assert (run["code"], run["stderr"]) == (case["code"], case["stderr"])
    if case["exact"]:
        assert run["stdout"] == case["stdout"]
    else:
        assert _numbers_close(run["stdout"], case["stdout"]), run["stdout"]


def test_masked_comparison_rejects_a_moved_digit():
    text = '{"delta_min":2.2447807784019544,"min_eig":-4.8455683278725412e-12}'
    assert _numbers_close(text.replace("19544", "19385"), text)
    assert not _numbers_close(text.replace("2.2447807784", "2.2447807794"), text)
    assert not _numbers_close(text.replace("delta_min", "delta_max"), text)


@pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs os.sched_setaffinity and at least two CPUs",
)
def test_one_cpu_prints_the_same_bytes(runs):
    assert run_pinned([c["argv"] for c in CASES], "one-cpu") == runs
