"""Default CLI output against outputs recorded from an earlier release.

``cli_golden.json`` holds fixed invocations of every subcommand with the
exit code, stdout and stderr that commit 49daa7d printed for them. Cases
marked ``exact`` must match byte for byte. The others evaluate a weighted
Bergman power at a non-integer alpha, which is now computed in real
arithmetic and moves digits at the rounding level; their text must match
with every number masked, and each number x must agree with the recorded
y to 1e-12 max(1, |y|), the scale the library's own tolerances use, since
an eigenvalue at rounding level has no relative digits to keep.
"""

import json
import pathlib
import re

import pytest

from diskkernels.cli import main

CASES = json.loads((pathlib.Path(__file__).parent / "cli_golden.json").read_text())
NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:e[-+]?\d+)?")


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
def test_cli_output_matches_the_recorded_release(case, capsys):
    code = main(list(case["argv"]))
    captured = capsys.readouterr()
    assert (code, captured.err) == (case["code"], case["stderr"])
    if case["exact"]:
        assert captured.out == case["stdout"]
    else:
        assert _numbers_close(captured.out, case["stdout"]), captured.out


def test_masked_comparison_rejects_a_moved_digit():
    text = '{"delta_min":2.2447807784019544,"min_eig":-4.8455683278725412e-12}'
    assert _numbers_close(text.replace("19544", "19385"), text)
    assert not _numbers_close(text.replace("2.2447807784", "2.2447807794"), text)
    assert not _numbers_close(text.replace("delta_min", "delta_max"), text)
