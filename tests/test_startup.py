"""The package never loads scipy.linalg.

Loading it costs more than most CLI calls do, and numpy covers every solve
the package makes, the dense dominance pencil included. Each command runs
in a fresh interpreter, since the test process has long since imported
scipy; a source scan checks that no module imports scipy at all.
"""

import ast
import json
import os
import pathlib
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


def test_dense_pencil_leaves_it_unloaded():
    commands = [
        ["verify", "sub", "--b", "blaschke[0.3,0.5i;c=1]", "--grid", GRID],
        ["verify", "m1", "--b", "blaschke[0.3,0.5i;c=1]", "--grid", GRID],
        ["verify", "m1", "--b", "atomic[sigma=1,xi=1]", "--grid", GRID],
    ]
    assert _scipy_linalg_loaded(*commands) == [False] + [[0, False]] * len(commands)


def _imported_modules(path):
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_no_module_imports_scipy():
    sources = sorted(pathlib.Path(diskkernels.__file__).parent.rglob("*.py"))
    assert len(sources) > 1
    offenders = [
        "%s: %s" % (path.name, name)
        for path in sources
        for name in _imported_modules(path)
        if name.split(".")[0] == "scipy"
    ]
    assert offenders == []
