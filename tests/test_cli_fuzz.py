"""Fuzz the command line: subcommands, global flags and flag values.

Each call draws a subcommand, global flags on either side of it, and values
from small valid specs and numbers mixed with bad, huge, negative and
non-finite ones. Every in-process call of ``cli.main`` must return 0, 1 or
2, raise nothing and leak no warning; a completed JSON report must parse,
and a refusal must say why on stderr and print nothing on stdout.

Accepted sizes stay tiny (angles <= 8, n <= 12, degree <= 16); oversized
ones are far above ``kernels.MAX_DENSE_BYTES``, so they are refused before
anything of that size is allocated.
"""

import contextlib
import io
import json
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from diskkernels import cli
from diskkernels.kernels import Szego, sample_grid
from diskkernels.psd import is_psd, membership_check
from diskkernels.specs import parse_function, parse_grid

BAD_NUMBERS = ["-1", "0", "-0", "nan", "inf", "-inf", "1e400", "-1e308", "x", ""]
HUGE_COUNTS = ["100000", "1000000000", "9" * 30]

SCHUR = [
    "blaschke[0.5]", "blaschke[0,0]", "blaschke[0.3,0.5i;c=-1]",
    "atomic[sigma=1,xi=1]", "atomic[sigma=0.5,xi=1i]",
    "poly[0,0.5]", "poly[0.2,0.3]", "poly[0.5]", "poly[0]", "poly[0.5,-0]",
    "const[0.5]", "const[1]",
]
# Admitted only as membership and multiplier symbols; some overflow.
NOT_SCHUR = [
    "poly[2]", "const[5]", "poly[0,1.5]", "poly[1e308,1e308]",
    "poly[1e308,1e308,1e308,1e308]", "poly[1.2e154]", "poly[9e153]",
]
BAD_SYMBOLS = ["blaschke[1.5]", "atomic[sigma=-1]", "poly[nan]", "poly[", ""]
KERNELS = [
    "szego", "bergman[alpha=0]", "bergman[alpha=1.5]", "dbr[b=blaschke[0,0]]",
    "dbr[b=poly[0.3,0.3]]", "subbergman[b=blaschke[0.5],alpha=1]",
    "subbergman[b=poly[0,0.6],alpha=0]", "sum(szego,bergman[alpha=0])",
    "diff(szego,bergman[alpha=0])", "diff(bergman[alpha=0],szego)",
    "schur(szego,dbr[b=const[0.5]])", "scale(2,szego)",
    "scale(1e308,bergman[alpha=3])", "cscale(poly[0,0.7],szego)",
    "cscale(atomic[sigma=1,xi=-1],bergman[alpha=0])",
]
BAD_KERNELS = [
    "cscale(poly[1e308,1e308],szego)", "szeg", "bergman[alpha=nan]",
    "bergman[alpha=-2]", "sum(szego)", "",
]
GRIDS = [
    "radial[0.5;angles=4]", "radial[0.3,0.8;angles=8]", "radial[0.99;angles=1]",
    "random[n=12,rmax=0.9,seed=3]", "random[n=5,rmax=0.5]",
]
BAD_GRIDS = [
    "radial[0.5;angles=100000]", "random[n=1000000000,rmax=0.5]",
    "radial[0.5;angles=1e400]", "radial[1.5;angles=4]", "radial[0.5,0.5;angles=4]",
    "random[n=0,rmax=0.5]", "random[n=4,rmax=0.5,seed=-1]", "radial[", "",
]


def value(valid, invalid=BAD_NUMBERS):
    """(valid values, bad values) of one flag."""
    return st.sampled_from(valid), st.sampled_from(invalid)


symbols = value(SCHUR, NOT_SCHUR + BAD_SYMBOLS)
any_symbols = value(SCHUR + NOT_SCHUR, BAD_SYMBOLS)
kernels = value(KERNELS, BAD_KERNELS)
grids = value(GRIDS, BAD_GRIDS)
reals = value(["0.5", "1", "2", "1e-9"])
angles = value(["1", "3", "8"], BAD_NUMBERS + ["1000000000"])
radii = value(["0.5", "0.5,0.9,0.99", "0.9,0.99,0.999"], BAD_NUMBERS + ["1", "0.5,"])

GLOBAL_FLAGS = {
    "--tol": value(["1e-9", "0", "1e-6", "0.5"]),
    "--degree": value(["0", "1", "4", "16"], BAD_NUMBERS + HUGE_COUNTS),
    "--format": value(["json", "csv"], ["xml", "JSON", ""]),
    "--seed": value(["0", "7", "9" * 30], BAD_NUMBERS),
}

# --out paths, made absolute under the test's tmp_path when the call runs.
OUT_PATHS = ["t.csv", "missing/t.csv"]

COMMANDS = {
    "psd": {"--kernel": kernels, "--grid": grids},
    "dominance": {"--k1": kernels, "--k2": kernels, "--grid": grids},
    "ratio": {"--b": symbols, "--radii": radii, "--angles": angles},
    "onb": {"--b": value(SCHUR[:3], SCHUR[3:] + BAD_SYMBOLS), "--grid": grids},
    "toeplitz": {
        "--b": symbols,
        "--alpha": value(["0", "1", "-1", "0.5"]),
        "--kind": value(["analytic", "coanalytic"], ["both", ""]),
        "--out": value(OUT_PATHS[:1], OUT_PATHS[1:]),
    },
    "membership": {
        "--f": any_symbols, "--kernel": kernels, "--c": reals, "--grid": grids
    },
    "multiplier": {
        "--phi": any_symbols, "--kernel": kernels, "--delta": reals, "--grid": grids
    },
    "verify": {
        "verify": value(["sub", "sub2", "m1"], ["m2", ""]),
        "--b": symbols, "--alpha": value(["0", "1"]), "--grid": grids,
        "--radii": radii, "--angles": angles,
    },
}


@st.composite
def calls(draw, name):
    """(global flags before, the subcommand's call, global flags after).

    Two calls in three are valid throughout; the third spoils one slot,
    which leaves a flag out or gives it a bad value.
    """
    before = draw(st.lists(st.sampled_from(sorted(GLOBAL_FLAGS)), max_size=2))
    after = draw(st.lists(st.sampled_from(sorted(GLOBAL_FLAGS)), max_size=2))
    slots = [("command", f, COMMANDS[name][f]) for f in COMMANDS[name]]
    slots += [("before", f, GLOBAL_FLAGS[f]) for f in before]
    slots += [("after", f, GLOBAL_FLAGS[f]) for f in after]
    # Hypothesis favours small integers, so the small ones spoil nothing.
    spoil = draw(st.integers(0, 3 * len(slots) - 1)) - 2 * len(slots)
    argv = {"before": [], "command": [name], "after": []}
    for i, (where, flag, (good, bad)) in enumerate(slots):
        text = draw(bad if i == spoil else good)
        if flag == "verify":
            argv[where].append(text)
        elif i != spoil or draw(st.booleans()):
            argv[where] += [flag, text]
    return argv["before"], argv["command"], argv["after"]


def run(argv):
    """(exit code, stdout, stderr) of an in-process call; warnings are errors."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def effective_format(before, after):
    """The --format argparse keeps: the last one after the subcommand, else before."""

    def given(args):
        return [v for f, v in zip(args, args[1:]) if f == "--format"]

    return (given(after) or given(before) or ["json"])[-1]


# 18 calls for each of the 8 subcommands: 144 in all.
FUZZ = settings(
    max_examples=18,
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)

ON_GRID = ["--kernel", "szego", "--grid", "radial[0.5;angles=4]"]

# Calls made besides the drawn ones, each of which once leaked numpy's
# overflow warnings: a non-Schur f, and a Gram whose entries are finite but
# overflow when symmetrized.
EXAMPLES = {
    "membership": ["membership", "--f", "poly[1e308,1e308]", "--c", "2"] + ON_GRID,
    "multiplier": ["multiplier", "--phi", "poly[9e153]", "--delta", "0.5"] + ON_GRID,
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_calls_exit_cleanly(tmp_path, name):
    def check(call):
        check_call(tmp_path, *call)

    check = given(calls(name))(check)
    if name in EXAMPLES:
        check = example(([], EXAMPLES[name], []))(check)
    FUZZ(check)()


def check_call(tmp_path, before, command, after):
    command = [str(tmp_path / x) if x in OUT_PATHS else x for x in command]
    argv = before + command + after
    code, out, err = run(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err
    if code == 1:
        assert err.strip() and not out, argv
        return
    assert not err, argv
    to_stdout = command[0] == "toeplitz" and "--out" not in command
    if effective_format(before, after) == "json" and not to_stdout:
        json.loads(out)
    else:
        assert out and not out.startswith("{"), argv


@pytest.mark.parametrize(
    "f", ["poly[1e308,1e308]", "poly[1e308,1e308,1e308,1e308]", "poly[1.2e154]"]
)
def test_membership_overflow_is_a_clean_error(f):
    """f's values, their outer product or its symmetrization overflow."""
    code, out, err = run(["membership", "--f", f, "--c", "2"] + ON_GRID)
    assert (code, out, err) == (1, "", "error: matrix has non-finite entries\n")
    points = sample_grid(parse_grid("radial[0.5;angles=4]"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^matrix has non-finite entries$"):
            membership_check(parse_function(f, schur=False), Szego(), 2.0, points)


def test_a_spectrum_beyond_the_float_range_is_refused_not_passed():
    """Finite entries, but an eigenvalue below -1.8e308: no PSD verdict."""
    with pytest.raises(ValueError, match="^eigenvalues overflow the float range$"):
        is_psd(np.full((4, 4), -8e307))
    code, out, err = run(["membership", "--f", "poly[9e153]", "--c", "2"] + ON_GRID)
    assert (code, out, err) == (1, "", "error: eigenvalues overflow the float range\n")
