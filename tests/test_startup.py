"""scipy.linalg is loaded only when a dense dominance pencil is solved.

Loading it costs more than most CLI calls do, so importing the package and
running commands that never reach the dense pencil must leave it unloaded.
Each check runs in a fresh interpreter, since the test process has long
since imported scipy.
"""

import json
import os
import subprocess
import sys

import diskkernels

SRC = os.path.dirname(os.path.dirname(os.path.abspath(diskkernels.__file__)))
GRID = "radial[0.2,0.5,0.8;angles=8]"

SCRIPT = """
import contextlib, io, json, sys
import diskkernels, diskkernels.cli
loaded = ["scipy.linalg" in sys.modules]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = diskkernels.cli.main(argv)
    loaded.append((code, "scipy.linalg" in sys.modules))
print(json.dumps(loaded))
"""


def _scipy_linalg_loaded(*commands):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps(commands)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_import_leaves_scipy_linalg_unloaded():
    assert _scipy_linalg_loaded() == [False]


def test_commands_without_a_dense_pencil_leave_it_unloaded():
    commands = [
        ["psd", "--kernel", "szego", "--grid", GRID],
        ["psd", "--kernel", "szego", "--grid", "random[n=20,rmax=0.8,seed=1]"],
        ["dominance", "--k1", "szego", "--k2", "bergman[alpha=0]", "--grid", GRID],
        ["toeplitz", "--b", "blaschke[0.5;c=1]", "--degree", "8"],
        ["onb", "--b", "blaschke[0.3,0.5i;c=1]", "--grid", GRID],
        ["ratio", "--b", "atomic[sigma=1,xi=1]", "--radii", "0.9,0.99"],
    ]
    assert _scipy_linalg_loaded(*commands) == [False] + [[0, False]] * len(commands)


def test_dense_pencil_loads_it():
    argv = ["verify", "sub", "--b", "blaschke[0.3,0.5i;c=1]", "--grid", GRID]
    assert _scipy_linalg_loaded(argv) == [False, [0, True]]
