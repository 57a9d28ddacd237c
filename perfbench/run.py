"""diskkernels benchmark: four closed-loop workloads, one client, one process.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the package is imported from ``src/``.
Each run builds the workload's fixed task list from the seed, computes the
references, runs one untimed warm-up task, then runs whole passes over the
list for ``--seconds``: a pass starts only when the mean pass so far would
still end within that time, and there are at least two. Outcomes are checked
against their references after each pass, outside the timed region.

Each task's time is its median over the run's passes. On a shared machine
the speed wanders over seconds in both directions: the median of many
samples spread over the run is steady from run to run, the best of them is
not.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics from a run whose first half of ``--seconds`` is untraced
and second half traced (see spans.py), and writes the spans to
``.perfbench/spans-<workload>-seed<seed>.json``. The last stdout line is the
result object; the line before it records versions, threads, the seed and
the task-list digest.
"""

from __future__ import annotations

import os
import sys

PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if "numpy" in sys.modules:
    sys.exit("error: numpy was loaded before the BLAS thread pin")
for _name in PINNED:
    os.environ[_name] = "1"

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(Path(__file__).resolve().parent))

IMPORT_PROBES = 3
SETUP_PROBES = 3
MIN_PASSES = 2
TAIL_BEYOND = 10


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.update({name: "1" for name in PINNED})
    return env


def check_pin(env) -> None:
    missing = [name for name in PINNED if env.get(name) != "1"]
    if missing:
        sys.exit("error: BLAS thread pin missing for %s" % ", ".join(missing))


def import_package():
    """Import diskkernels from this checkout's src/ and nowhere else."""
    if not (SRC / "diskkernels" / "__init__.py").is_file():
        sys.exit("error: %s has no diskkernels package; run from a full checkout" % SRC)
    sys.path.insert(0, str(SRC))
    import diskkernels
    import diskkernels.cli  # noqa: F401  (traced as a layer; loaded like the console entry point)

    if SRC not in Path(diskkernels.__file__).resolve().parents:
        sys.exit("error: diskkernels was imported from %s" % diskkernels.__file__)
    return diskkernels


def blas_runtime() -> dict:
    """Thread count reported by each OpenBLAS build bundled with numpy and scipy."""
    import ctypes

    import numpy
    import scipy

    found = {}
    for package in (numpy, scipy):
        libs = Path(package.__file__).resolve().parent.parent / (package.__name__ + ".libs")
        for path in sorted(libs.glob("*openblas*.so*")):
            lib = ctypes.CDLL(str(path))
            for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                         "openblas_get_num_threads64_", "openblas_get_num_threads"):
                getter = getattr(lib, name, None)
                if getter is not None:
                    getter.restype = ctypes.c_int
                    found[path.name] = getter()
                    break
    return found


def environment_record(args, tasks, digest) -> dict:
    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True)
            commit = proc.stdout.strip() or None
        except OSError:  # no git on this machine; the source hash still identifies the code
            pass
    source = hashlib.sha256()
    for path in sorted((SRC / "diskkernels").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    runtime = blas_runtime()
    if any(threads != 1 for threads in runtime.values()):
        sys.exit("error: OpenBLAS reports more than one thread: %r" % runtime)
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "task_list_sha256": digest, "tasks_per_pass": len(tasks),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")), "blas_threads": runtime,
        "threads": {name: os.environ.get(name) for name in PINNED},
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "commit": commit, "source_sha256": source.hexdigest(),
    }


def tail_percentile(tasks: int) -> float:
    """Highest percentile with at least ten of the task times beyond it."""
    return max(50.0, 100.0 * (1.0 - TAIL_BEYOND / tasks))


def percentile(values, p: float) -> float:
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


class Measurement:
    """Whole passes over the task list, checked after each pass."""

    def __init__(self, dk, runner, tasks, check):
        self.dk = dk
        self.runner = runner
        self.tasks = tasks
        self.check = check
        self.times: list[list[float]] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def run_passes(self, count: int, tracer=None) -> list[float]:
        """Run ``count`` passes and return their wall times; spans only inside passes."""
        walls = []
        for _ in range(count):
            outcomes = []
            if tracer is not None:
                tracer.enabled = True
            t_pass = time.perf_counter()
            for task in self.tasks:
                t0 = time.perf_counter()
                try:
                    outcome, error = self.runner.run(task), None
                except Exception as exc:  # a task that raises is a failure; the run goes on
                    outcome, error = None, "%s: %s" % (type(exc).__name__, exc)
                outcomes.append((time.perf_counter() - t0, outcome, error))
            walls.append(time.perf_counter() - t_pass)
            if tracer is not None:
                tracer.enabled = False
            self.times.append([dt for dt, _, _ in outcomes])
            for task, (_, outcome, error) in zip(self.tasks, outcomes):
                self.attempted += 1
                if error is None:
                    try:
                        error = self.check(self.dk, task, outcome)
                    except Exception as exc:
                        error = "check raised %s: %s" % (type(exc).__name__, exc)
                if error is not None:
                    self.failed += 1
                    if len(self.failures) < 5:
                        self.failures.append("%s %s: %s" % (task.kind, json.dumps(task.inputs)[:160], error))
        return walls

    def run_for(self, seconds: float, min_passes: int, tracer=None) -> list[float]:
        """Whole passes for ``seconds``: another starts while the mean pass would end in time."""
        walls = self.run_passes(min_passes, tracer)
        while sum(walls) + statistics.mean(walls) <= seconds:
            walls += self.run_passes(1, tracer)
        return walls

    def median_times(self) -> list[float]:
        """Each task's median time over the passes run so far."""
        return [statistics.median(column) for column in zip(*self.times)]


def timed_setup(args) -> float:
    """Seconds from spawning a fresh interpreter to the end of its warm-up task."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)] + (["--tiny"] if args.tiny else [])
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait()
    if line.strip() != "ready" or code != 0:
        sys.exit("error: setup probe failed (exit %d)" % code)
    return t1 - t0


def import_probe() -> tuple[float, int]:
    """Fresh-interpreter import time of diskkernels minus a bare interpreter."""
    env = child_env()
    script = "import sys, diskkernels; print(int('scipy.linalg' in sys.modules))"
    bare, full, loaded = [], [], 0
    for _ in range(IMPORT_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, cwd=ROOT, check=True)
        t1 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", script], env=env, cwd=ROOT, check=True,
                              capture_output=True, text=True)
        t2 = time.perf_counter()
        bare.append(t1 - t0)
        full.append(t2 - t1)
        loaded = int(proc.stdout.strip())
    return statistics.median(full) - statistics.median(bare), loaded


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny sizes, for the self-test")
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="break the first task's reference, for the self-test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    check_pin(os.environ)
    env = child_env()
    check_pin(env)
    dk = import_package()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error("unknown workload %r; choose from %s" % (args.workload, ", ".join(workloads.WORKLOADS)))
    tasks = workloads.build(args.workload, args.seed, args.tiny)
    runner = workloads.Runner(dk, ROOT, env)
    if args.setup_probe:
        runner.run(tasks[0])
        print("ready", flush=True)
        return 0

    digest = workloads.task_list_digest(tasks)
    record = environment_record(args, tasks, digest)
    workloads.prepare(dk, tasks)
    if args.corrupt_reference:
        corrupt(tasks[0])
    runner.run(tasks[0])
    measure = Measurement(dk, runner, tasks, workloads.check_outcome)
    tail_p = tail_percentile(len(tasks))

    if args.trace == 0:
        walls = measure.run_for(args.seconds, MIN_PASSES)
        # For cli-small the peak is read before the set-up probes, which are
        # children too; every pass runs every CLI call of the list.
        if args.workload == "cli-small":
            peak_rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        else:
            peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        setup = statistics.median(timed_setup(args) for _ in range(SETUP_PROBES))
        peak_rss_mb = peak_rss_kb / 1024.0
        task_s = measure.median_times()
        metrics = {
            "setup_s": (setup, "s"),
            "wall_s": (sum(task_s), "s"),
            "task_s_p50": (statistics.median(task_s), "s"),
            "task_s_tail": (percentile(task_s, tail_p), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "pass_frac": ((measure.attempted - measure.failed) / measure.attempted, "ratio"),
        }
    else:
        import spans

        untraced = measure.run_for(args.seconds / 2, 1)
        tracer = spans.Tracer()
        tracer.install(dk)
        runner.traced = True
        traced = measure.run_for(args.seconds / 2, 1, tracer)
        tracer.uninstall()
        walls = untraced + traced
        collected = tracer.spans
        for child in runner.child_spans:
            collected.extend(_reindexed(child, len(collected)))
        values = spans.summarize(collected, traced, untraced)
        values["kernels.sample_grid_peak_mb"] = spans.largest_grid_peak_mb(dk, collected)
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        (out_dir / ("spans-%s-seed%d.json" % (args.workload, args.seed))).write_text(
            json.dumps({"fields": ["layer", "name", "parent", "start", "end", "info"], "spans": collected}))
        values["import.s"], values["import.scipy_linalg_loaded"] = import_probe()
        units = spans.metric_units()
        metrics = {name: (values[name], unit) for name, unit in units.items()}

    task_s = measure.median_times()
    tail_value = percentile(task_s, tail_p)
    record.update(passes=len(walls), tail_percentile=tail_p,
                  tail_tasks_beyond=sum(1 for t in task_s if t > tail_value),
                  pass_walls=walls, task_median_s=task_s, failures=measure.failures)
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": measure.failed == 0,
        "attempted": measure.attempted,
        "failed": measure.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def _reindexed(child_spans, offset):
    for span in child_spans:
        if span[2] is not None:
            span[2] += offset
        yield span


def corrupt(task) -> None:
    """Flip the reference of one task so that its check must fail."""
    e = task.expect
    if task.kind == "cli":
        e["exit"] = 1  # a usage error, which no task expects
    elif "is_psd" in e:
        e["is_psd"] = not e["is_psd"]
    elif "nonnegative" in e:
        e["nonnegative"] = not e["nonnegative"]
    elif "range_norms" in e:
        e["range_norms"] = [2.0 * v for v in e["range_norms"]]
    else:
        raise ValueError("no corruption defined for %s" % task.kind)


if __name__ == "__main__":
    sys.exit(main())
