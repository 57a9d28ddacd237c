"""Span tracer for the per-layer run, installed from outside the package.

``Tracer.install`` replaces every public function and public method of the
diskkernels modules with a wrapper that records a span (layer, name, parent,
start, end, info) while ``enabled`` is set. Each function object is replaced
in every module namespace that holds it, so ``psd.gram`` and ``cli.is_psd``
are traced as well as ``kernels.gram`` and ``psd.is_psd``. Dense linear
algebra entry points are wrapped too; their spans count calls and computed
flops and their time stays with the enclosing layer span.

Spans stay in memory; ``summarize`` turns them into per-layer metrics.
``largest_grid_peak_mb`` measures the grid-sampling memory peak after the
traced passes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import tracemalloc

LAYERS = ("cli", "formatting", "specs", "functions", "kernels", "psd", "operators",
          "modelspace", "verify")
# Scalar formatters run once per printed number (tens of thousands of calls
# for one Toeplitz CSV); their time stays with the caller's span.
UNTRACED = {"formatting.fmt_real", "formatting.fmt_int", "formatting.fmt_complex"}
NUMPY_LINALG = ("eigvalsh", "eigh", "eig", "eigvals", "cholesky", "svd", "solve", "inv", "qr")
SCIPY_LINALG = ("eigh", "eigvalsh", "eigh_tridiagonal", "cholesky", "cho_factor", "cho_solve",
                "solve_triangular", "solve", "svd")
EIGEN = {"eigvalsh", "eigh", "eig", "eigvals", "eigh_tridiagonal"}
# Computed real flops per n^3 for an n x n complex Hermitian matrix: the
# Golub & Van Loan operation counts (4/3 n^3 for symmetric eigenvalues, 9 n^3
# with eigenvectors, 1/3 n^3 for Cholesky) times four for complex arithmetic.
# A real matrix counts a quarter of that.
FLOPS_PER_N3 = {"eigvalsh": 16.0 / 3.0, "eigvals": 16.0 / 3.0, "eigh": 36.0, "eig": 36.0,
                "cholesky": 4.0 / 3.0}

LAYER, NAME, PARENT, T0, T1, INFO = range(6)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.enabled = False
        self._stack: list = []
        self._frames: list = []
        self._undo: list = []

    def _wrap(self, fn, layer: str, name: str, info=None):
        tracer = self
        spans = self.spans
        stack = self._stack
        frames = self._frames
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # Direct recursion (canonical_json, format_kernel) stays in one span.
            if not tracer.enabled or (frames and frames[-1] is traced):
                return fn(*args, **kwargs)
            span = [layer, name, stack[-1] if stack else None, clock(), 0.0, None]
            index = len(spans)
            spans.append(span)
            stack.append(index)
            frames.append(traced)
            try:
                if info is None:
                    result = fn(*args, **kwargs)
                else:
                    result, span[INFO] = info(fn, args, kwargs)
                return result
            finally:
                span[T1] = clock()
                stack.pop()
                frames.pop()

        return traced

    def _patch(self, owner, attr, wrapper):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self, dk) -> None:
        modules = {layer: importlib.import_module("diskkernels." + layer) for layer in LAYERS}
        replaced = {}
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                qual = "%s.%s" % (layer, name)
                if inspect.isfunction(obj) and qual not in UNTRACED:
                    replaced[id(obj)] = (obj, self._wrap(obj, layer, qual, INFO_HOOKS.get(qual)))
                elif inspect.isclass(obj):
                    for mname, method in list(vars(obj).items()):
                        if not mname.startswith("_") and inspect.isfunction(method):
                            self._patch(obj, mname, self._wrap(method, layer, "%s.%s" % (qual, mname)))
        linalg = [(sys.modules["numpy.linalg"], NUMPY_LINALG)]
        if "scipy.linalg" in sys.modules:
            linalg.append((sys.modules["scipy.linalg"], SCIPY_LINALG))
        for mod, names in linalg:
            for name in names:
                fn = getattr(mod, name, None)
                if fn is not None and id(fn) not in replaced:
                    wrapper = self._wrap(fn, "linalg", "linalg." + name, _matrix_info)
                    replaced[id(fn)] = (fn, wrapper)
                    self._patch(mod, name, wrapper)
        for ns in list(modules.values()) + [dk]:
            for name, obj in list(vars(ns).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(ns, name, hit[1])

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


def _matrix_info(fn, args, kwargs):
    a = args[0] if args else next(iter(kwargs.values()))
    result = fn(*args, **kwargs)
    return result, [int(a.shape[-1]), bool(a.dtype.kind == "c")]


def _sample_grid_info(fn, args, kwargs):
    result = fn(*args, **kwargs)
    return result, [len(result), result.provenance]


def _gram_info(fn, args, kwargs):
    result = fn(*args, **kwargs)
    return result, result.size


def _is_psd_info(fn, args, kwargs):
    result = fn(*args, **kwargs)
    return result, bool(not result.is_psd)


INFO_HOOKS = {
    "kernels.sample_grid": _sample_grid_info,
    "kernels.gram": _gram_info,
    "psd.is_psd": _is_psd_info,
}

# name of a per-layer metric -> (span names, what to sum)
INCLUSIVE = {
    "cli.main_s": {"cli.main"},
    "formatting.canonical_json_s": {"formatting.canonical_json"},
    "specs.parse_s": {"specs.parse_function", "specs.parse_kernel", "specs.parse_grid"},
    "kernels.sample_grid_s": {"kernels.sample_grid"},
    "kernels.gram_s": {"kernels.gram"},
    "psd.is_psd_s": {"psd.is_psd"},
    "psd.dominance_s": {"psd.dominance_delta_min"},
    "psd.oracle_s": {"psd.diagonal_positivity_oracle"},
    "operators.toeplitz_s": {"operators.toeplitz_analytic", "operators.toeplitz_coanalytic"},
    "operators.defect_s": {"operators.defect"},
    "operators.range_norm_s": {"operators.range_norm", "operators.DefectOperator.range_norm"},
    "functions.taylor_s": {"functions.taylor_coefficients", "functions.BlaschkeProduct.taylor",
                           "functions.AtomicSingularInner.taylor", "functions.TaylorPolynomial.taylor",
                           "functions.ConstantFunction.taylor"},
    "modelspace.taylor_matrix_s": {"modelspace.ModelBasis.taylor_matrix"},
    "modelspace.eval_all_s": {"modelspace.ModelBasis.eval_all"},
    "verify.s": {"verify.verify_inclusion", "verify.verify_equality_forward",
                 "verify.verify_equality_converse", "verify.verify_m1"},
}
CALLS = {
    "specs.parse_calls": "specs.parse_s",
    "kernels.gram_calls": "kernels.gram_s",
    "psd.is_psd_calls": "psd.is_psd_s",
    "psd.dominance_calls": "psd.dominance_s",
    "operators.defect_calls": "operators.defect_s",
    "functions.taylor_calls": "functions.taylor_s",
}
SELF_LAYERS = ("import",) + LAYERS


def metric_units() -> dict:
    """Every per-layer metric ``summarize`` reports, with its unit."""
    units = {"import.s": "s", "import.scipy_linalg_loaded": "flag"}
    units.update({name: "s" for name in INCLUSIVE})
    units.update({name: "count" for name in CALLS})
    units.update({
        "kernels.points": "count", "kernels.sample_grid_peak_mb": "MB",
        "kernels.gram_entries": "count", "psd.refuted_frac": "ratio", "psd.scan_rungs": "count",
        "psd.eig_calls": "count", "psd.chol_calls": "count", "psd.eig_flops": "flop",
        "operators.eig_flops": "flop",
    })
    units.update({"%s.self_s" % layer: "s" for layer in SELF_LAYERS})
    units.update({"trace.wall_s": "s", "trace.untraced_wall_s": "s", "trace.overhead_s": "s",
                  "trace.remainder_s": "s", "trace.accounted_frac": "ratio"})
    return units


def largest_grid_peak_mb(dk, spans: list) -> float:
    """tracemalloc peak, in MB, of ``sample_grid`` on the largest grid the spans saw.

    Run untimed after the traced passes: tracemalloc slows the Python loops of
    grid sampling several times over, so it stays out of the timed spans.
    """
    sampled = [s[INFO] for s in spans if s[NAME] == "kernels.sample_grid" and s[INFO] is not None]
    if not sampled:
        return 0.0
    spec = dk.specs.parse_grid(max(sampled)[1])
    tracemalloc.start()
    try:
        dk.sample_grid(spec)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def summarize(spans: list, traced_walls: list, untraced_walls: list) -> dict:
    """Per-layer metrics per traced pass.

    Self time is a span's duration minus the time its child spans cover;
    linear-algebra spans are not subtracted, so their time counts toward
    the layer span that encloses them. The remainder is the traced wall time
    that no span covers (the benchmark's own loop and, for CLI calls,
    interpreter start and exit); layer self times plus the remainder should
    account for the traced wall time.
    """
    passes = max(1, len(traced_walls))
    parent = [s[PARENT] for s in spans]
    names = [s[NAME] for s in spans]
    dur = [s[T1] - s[T0] for s in spans]

    def ancestors(i):
        p = parent[i]
        while p is not None:
            yield p
            p = parent[p]

    def outermost(members):
        return [i for i, name in enumerate(names)
                if name in members and not any(names[p] in members for p in ancestors(i))]

    out = {}
    for metric, members in INCLUSIVE.items():
        out[metric] = sum(dur[i] for i in outermost(members)) / passes
    for metric, time_metric in CALLS.items():
        out[metric] = len(outermost(INCLUSIVE[time_metric])) / passes

    # INFO stays None on a call that raised.
    sample = [s[INFO] for s in spans if s[NAME] == "kernels.sample_grid" and s[INFO] is not None]
    out["kernels.points"] = sum(info[0] for info in sample) / passes
    out["kernels.gram_entries"] = sum(
        s[INFO] ** 2 for s in spans if s[NAME] == "kernels.gram" and s[INFO] is not None) / passes
    psd_verdicts = [s[INFO] for s in spans if s[NAME] == "psd.is_psd" and s[INFO] is not None]
    out["psd.refuted_frac"] = sum(psd_verdicts) / len(psd_verdicts) if psd_verdicts else 0.0
    out["psd.scan_rungs"] = sum(
        1 for i, name in enumerate(names)
        if name == "kernels.sample_grid" and any(names[p] == "psd.refutation_scan" for p in ancestors(i))
    ) / passes

    counts = {"psd": [0, 0, 0.0], "operators": [0, 0, 0.0]}
    self_time = dict.fromkeys(SELF_LAYERS, 0.0)
    covered_by_children = [0.0] * len(spans)
    for i, s in enumerate(spans):
        p = parent[i]
        if s[LAYER] == "linalg":
            enclosing = spans[p][LAYER] if p is not None else None
            if enclosing in counts and s[INFO] is not None:
                fn = names[i].split(".", 1)[1]
                n, is_complex = s[INFO]
                c = counts[enclosing]
                if fn in EIGEN:
                    c[0] += 1
                    c[2] += FLOPS_PER_N3.get(fn, 0.0) * n ** 3 * (1.0 if is_complex else 0.25)
                elif fn in ("cholesky", "cho_factor"):
                    c[1] += 1
        elif p is not None:
            covered_by_children[p] += dur[i]
    for i, s in enumerate(spans):
        if s[LAYER] != "linalg":
            self_time[s[LAYER]] += dur[i] - covered_by_children[i]
    for layer in ("psd", "operators"):
        out["%s.eig_flops" % layer] = counts[layer][2] / passes
    out["psd.eig_calls"] = counts["psd"][0] / passes
    out["psd.chol_calls"] = counts["psd"][1] / passes
    for layer, value in self_time.items():
        out["%s.self_s" % layer] = value / passes

    wall = sum(traced_walls) / passes
    roots = sorted((s[T0], s[T1]) for s in spans if s[PARENT] is None and s[LAYER] != "linalg")
    covered, end = 0.0, float("-inf")
    for t0, t1 in roots:
        if t1 > end:
            covered += t1 - max(t0, end)
            end = t1
    remainder = wall - covered / passes
    out["trace.wall_s"] = wall
    out["trace.untraced_wall_s"] = sum(untraced_walls) / max(1, len(untraced_walls))
    out["trace.overhead_s"] = out["trace.wall_s"] - out["trace.untraced_wall_s"]
    out["trace.remainder_s"] = remainder
    out["trace.accounted_frac"] = (sum(self_time.values()) / passes + remainder) / wall
    return out
