"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json:

* a tiny untraced run and a tiny traced run pass every reference and print
  exactly the end-to-end and per-layer metric names, with the units, that
  BENCHMARK.json lists;
* a run whose first reference is deliberately corrupted counts that task as
  failed, which shows the checks can fail;
* the same seed gives the same task list and another seed a different one.

Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, trace: int, *extra: str) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "0.5", "--trace", str(trace), "--tiny", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise AssertionError("%s exited %d: %s" % (" ".join(cmd), proc.returncode, proc.stderr[-500:]))
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def expect_metrics(result: dict, declared: list, label: str) -> list[str]:
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("%s: result keys %s" % (label, sorted(result)))
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        wrong = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        problems.append("%s: missing %s, extra %s, wrong unit %s" % (label, missing, extra, wrong))
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)) or isinstance(m["value"], bool):
            problems.append("%s: %s is not a number" % (label, name))
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        record, result = run(workload, 1, 0)
        problems += expect_metrics(result, spec["end_to_end"], workload + " trace 0")
        if not result["correct"] or result["failed"]:
            problems.append("%s: failures %s" % (workload, record["failures"]))
        traced_record, traced = run(workload, 2, 1)
        problems += expect_metrics(traced, spec["per_layer"], workload + " trace 1")
        if not traced["correct"]:
            problems.append("%s traced: failures %s" % (workload, traced_record["failures"]))
        corrupt_record, corrupt = run(workload, 1, 0, "--corrupt-reference")
        passes = corrupt_record["passes"]
        if corrupt["correct"] or corrupt["failed"] != passes:
            problems.append("%s: corrupted reference gave failed=%d over %d passes"
                            % (workload, corrupt["failed"], passes))
        frac = corrupt["metrics"]["pass_frac"]["value"]
        if abs(frac - (1.0 - passes / corrupt["attempted"])) > 1e-12:
            problems.append("%s: pass_frac %r does not count the corrupted task" % (workload, frac))
        if corrupt_record["task_list_sha256"] != record["task_list_sha256"]:
            problems.append("%s: same seed, different task lists" % workload)
        if traced_record["task_list_sha256"] == record["task_list_sha256"]:
            problems.append("%s: seeds 1 and 2 gave the same task list" % workload)
        print("%-13s ok" % workload if not problems else "%-13s %s" % (workload, problems[-1]), flush=True)
    for problem in problems:
        print("FAIL", problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
