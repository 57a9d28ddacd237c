"""Seeded task lists for the four workloads, with a correctness reference per task.

A task is one user-level call: one CLI invocation, or one library check such
as ``dominance_delta_min``, ``verify_inclusion`` or ``defect`` followed by
``range_norm``. Spec parsing and grid sampling happen inside the task, because
users pay for them on every call.

Every workload is a fixed list of tasks: 30 CLI calls, or 40 library checks.
The seed picks the parameters (radii, symbol zeros, scale factors, random-grid
seeds); the kind and size of each slot do not depend on it, so every seed asks
for about the same amount of work.

References are stated per task kind in ``check_outcome``. Where an exact or
independent value exists it is used: analytic constants, the diagonal-series
oracle, closed-form symbol values, Taylor coefficients from an FFT. Checks
built to refute are made so by construction: a grid point is picked whose
diagonal entry of the tested kernel is negative, which forces a negative
eigenvalue.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("cli-small", "gram-radial", "gram-generic", "operators")
# Each list is sized so that a run of 25 seconds holds several passes: 3.5-4.5 s
# a pass for the in-process workloads and 12-15 s for cli-small, on a 2-vCPU
# Xeon VM with one BLAS thread. Two and a half CLI cycles give 25 calls,
# so the tail percentile has ten calls beyond it.
CLI_CYCLES = 3
CLI_CALLS = 25
CLI_TIMEOUT_S = 120.0

# Float fields of CLI reports must match the library value computed in the
# benchmark process within REL_TOL relative, plus ABS_TOL times the largest
# reference magnitude of the same report (for fields that are rounding noise).
REL_TOL = 1e-6
ABS_TOL = 1e-9
RANGE_NORM_TOL = 1e-9
EIGVEC_TOL = 1e-10
TAYLOR_TOL = 1e-9
TOEPLITZ_TOL = 1e-9
TM_TOL = 1e-10
REPORT_TOL = 1e-6

# Refutation scan rungs, as in diskkernels.psd.REFUTATION_RADII.
SCAN_FIRST_RUNG = "radial[0.5;angles=128]"


@dataclass
class Task:
    """One call of the workload.

    ``inputs`` are what the program receives (hashed into the task-list
    digest); ``expect`` is the reference the outcome is checked against.
    """

    kind: str
    inputs: dict
    expect: dict = field(default_factory=dict)


def task_list_digest(tasks) -> str:
    payload = json.dumps([[t.kind, t.inputs] for t in tasks], sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


# ---------------------------------------------------------------- spec text


def _r(x) -> str:
    return repr(float(x))


def _c(z) -> str:
    z = complex(z)
    imag = _r(z.imag)
    sign = "" if imag.startswith("-") else "+"
    return "%s%s%si" % (_r(z.real), sign, imag)


def _unimodular(rng) -> complex:
    theta = rng.uniform(0.0, 2.0 * math.pi)
    return complex(math.cos(theta), math.sin(theta))


def sym_spec(sym: dict) -> str:
    kind = sym["kind"]
    if kind == "blaschke":
        zeros = ",".join("0" if a == 0 else _c(a) for a in sym["zeros"])
        return "blaschke[%s;c=%s]" % (zeros, _c(sym["c"]))
    if kind == "atomic":
        return "atomic[sigma=%s,xi=%s]" % (_r(sym["sigma"]), _c(sym["xi"]))
    if kind == "poly":
        return "poly[%s]" % ",".join(_c(a) for a in sym["coeffs"])
    raise ValueError(kind)


def sym_eval(sym: dict, z) -> np.ndarray:
    """Closed-form value of a symbol, written independently of the library."""
    z = np.asarray(z, dtype=complex)
    kind = sym["kind"]
    if kind == "blaschke":
        out = np.full(z.shape, complex(sym["c"]))
        for a in sym["zeros"]:
            out = out * (z if a == 0 else (a - z) / (1.0 - np.conj(a) * z))
        return out
    if kind == "atomic":
        xi = complex(sym["xi"])
        return np.exp(-sym["sigma"] * (xi + z) / (xi - z))
    if kind == "poly":
        return np.polyval(np.asarray(sym["coeffs"], dtype=complex)[::-1], z)
    raise ValueError(kind)


def monomial(rng, k: int, unimodular: bool) -> dict:
    """b = c z^k: a Blaschke product with k zeros at 0, or a polynomial with |c| < 1."""
    if unimodular:
        return {"kind": "blaschke", "zeros": [0] * k, "c": _unimodular(rng)}
    c = rng.uniform(0.3, 0.95) * _unimodular(rng)
    return {"kind": "poly", "coeffs": [0.0] * k + [c]}


def blaschke(rng, degree: int, rmin: float = 0.2, rmax: float = 0.7, moduli=None) -> dict:
    """Blaschke product with distinct zeros away from 0.

    ``moduli`` fixes |a| and leaves only the angles to the seed. Operator tasks
    do that: |a|^n underflows to subnormal numbers for small |a| and n up to
    1024, and subnormal arithmetic is slow, so a random modulus would make the
    cost of a task depend on the seed.
    """
    if moduli is None:
        moduli = rng.uniform(rmin, rmax, degree)
    zeros = [m * _unimodular(rng) for m in moduli]
    return {"kind": "blaschke", "zeros": zeros, "c": _unimodular(rng)}


def atomic(rng, sigma=None) -> dict:
    sigma = rng.uniform(0.5, 2.0) if sigma is None else sigma
    return {"kind": "atomic", "sigma": sigma, "xi": _unimodular(rng)}


def poly(rng, degree: int, total: float = 0.95) -> dict:
    """Polynomial with sum |a_n| = total < 1, so it lies in the unit ball."""
    mags = rng.uniform(0.2, 1.0, degree + 1)
    mags *= total / mags.sum()
    return {"kind": "poly", "coeffs": [m * _unimodular(rng) for m in mags]}


def b_at_zero(sym: dict) -> float:
    if sym["kind"] == "blaschke":
        return abs(complex(sym["c"])) * math.prod(abs(a) for a in sym["zeros"])
    if sym["kind"] == "atomic":
        return math.exp(-sym["sigma"])
    return abs(complex(sym["coeffs"][0]))


def inclusion_constant(sym: dict) -> float:
    """(1 + |b(0)|)/(1 - |b(0)|), the analytic constant of the inclusion check."""
    b0 = b_at_zero(sym)
    return (1.0 + b0) / (1.0 - b0)


def bergman_diag(alpha: float, n: int) -> np.ndarray:
    """1/||z^j||^2 = binom(j + alpha + 1, j) for j < n (alpha = -1: Hardy)."""
    j = np.arange(n, dtype=float)
    if alpha == -1.0:
        return np.ones(n)
    return np.exp(
        np.array([math.lgamma(x + alpha + 2.0) - math.lgamma(x + 1.0) for x in j])
        - math.lgamma(alpha + 2.0)
    )


def kernel_diag(alpha: float, z) -> np.ndarray:
    """K(z, z) of the weighted Bergman kernel (alpha = -1: Szego)."""
    return (1.0 - np.abs(np.asarray(z)) ** 2) ** (-(alpha + 2.0))


def bergman_spec(alpha: float) -> str:
    return "szego" if alpha == -1.0 else "bergman[alpha=%s]" % _r(alpha)


# ---------------------------------------------------------------- grids


def radial_grid(rng, n: int, R: int) -> tuple[str, np.ndarray]:
    """radial[...] spec with R jittered radii in (0.1, 0.9) and n/R angles."""
    A = n // R
    edges = np.linspace(0.1, 0.9, R + 1)
    radii = [round(lo + (hi - lo) * rng.uniform(0.25, 0.75), 6) for lo, hi in zip(edges, edges[1:])]
    spec = "radial[%s;angles=%d]" % (",".join(_r(r) for r in radii), A)
    pts = np.concatenate(
        [r * np.exp(2j * np.pi * np.arange(A) / A) for r in radii]
    )
    return spec, pts


def random_points(count: int, rmax: float, seed: int) -> np.ndarray:
    """The points of random[n=count,rmax=rmax,seed=seed], drawn as the library draws them."""
    u = np.random.default_rng(seed).random(2 * count)
    radius = rmax * np.sqrt(u[0::2])
    angle = 2.0 * np.pi * u[1::2]
    return radius * np.cos(angle) + 1j * radius * np.sin(angle)


def random_grid(rng, n: int) -> tuple[str, np.ndarray]:
    rmax = round(rng.uniform(0.75, 0.9), 6)
    seed = int(rng.integers(0, 2**31 - 1))
    spec = "random[n=%d,rmax=%s,seed=%d]" % (n, _r(rmax), seed)
    return spec, random_points(n, rmax, seed)


# ---------------------------------------------------------------- builders


def _pick(options, slot: int):
    """Choices that change the cost of a task follow the slot, not the seed."""
    return options[slot % len(options)]


def _size(n: int, tiny: bool) -> int:
    return 16 if tiny else n


def _radii_count(n: int, tiny: bool) -> int:
    return 2 if tiny else (5 if n <= 160 else 10)


def _degree(N: int, tiny: bool) -> int:
    # Truncation tails at |w| <= 0.7 are below the tolerances from degree 128 on.
    return 128 if tiny else N


def _radial_pair(rng, slot: int) -> tuple[str, str]:
    """Dominance pairs whose coefficient ratio c1_n/c2_n peaks at n = 0."""
    k = 1 + slot % 3
    b = sym_spec(monomial(rng, k, unimodular=slot % 2 == 0))
    s = _r(round(rng.uniform(0.5, 2.0), 6))
    a = _r(_pick((0.0, 0.5, 1.0), slot))
    pairs = [
        ("scale(%s,szego)" % s, "subbergman[b=%s,alpha=%s]" % (b, a)),
        ("dbr[b=%s]" % b, "scale(%s,szego)" % s),
        ("subbergman[b=%s,alpha=%s]" % (b, a), "bergman[alpha=%s]" % a),
        ("sum(szego,dbr[b=%s])" % b, "schur(szego,szego)"),
        ("szego", "sum(scale(%s,szego),subbergman[b=%s,alpha=0])" % (s, b)),
    ]
    return pairs[slot % len(pairs)]


def _radial_psd_kernel(rng, slot: int, refute: bool) -> str:
    k = 1 + slot % 3
    b = sym_spec(monomial(rng, k, unimodular=slot % 2 == 1))
    s = _r(round(rng.uniform(0.5, 2.0), 6))
    if refute:
        t = _r(round(rng.uniform(1.2, 2.0), 6))
        choices = [
            "diff(szego,scale(%s,dbr[b=%s]))" % (t, b),
            "diff(scale(%s,szego),bergman[alpha=0])" % _r(round(rng.uniform(0.3, 0.9), 6)),
        ]
        return choices[slot % 2]
    choices = [
        "szego",
        "bergman[alpha=%s]" % _r(_pick((0.0, 1.0, 2.0, 0.5), slot // 8)),
        "dbr[b=%s]" % b,
        "subbergman[b=%s,alpha=%s]" % (b, _r(_pick((0.0, 1.0), slot // 8))),
        "sum(szego,subbergman[b=%s,alpha=0])" % b,
        "scale(%s,dbr[b=%s])" % (s, b),
        "schur(szego,dbr[b=%s])" % b,
        "sum(dbr[b=%s],scale(%s,bergman[alpha=1]))" % (b, s),
    ]
    return choices[slot % len(choices)]


def build_gram_radial(rng, tiny: bool) -> list[Task]:
    """Rotation-invariant kernels (symbols c z^k) on radial grids, n = 160 to 1600."""
    plan = (
        [("psd", n) for n in (160, 160, 160, 160, 160, 320, 320, 480, 1600)]
        + [("psd-refute", n) for n in (160, 320, 480)]
        + [("oracle", 0)] * 4
        + [("oracle-refute", 0)] * 2
        + [("dominance", n) for n in (160, 160, 160, 160, 160, 160, 320, 320, 320, 480)]
        + [("verify-sub", n) for n in (160, 160, 160, 160, 320, 480)]
        + [("verify-sub2", n) for n in (160, 160, 160, 320, 320, 480)]
    )
    tasks = []
    for slot, (kind, n) in enumerate(plan):
        n = _size(n, tiny)
        if kind in ("psd", "psd-refute"):
            refute = kind == "psd-refute"
            grid, _ = radial_grid(rng, n, _radii_count(n, tiny))
            kernel = _radial_psd_kernel(rng, slot, refute)
            tasks.append(Task("psd", {"kernel": kernel, "grid": grid}, {"is_psd": not refute}))
        elif kind.startswith("oracle"):
            refute = kind == "oracle-refute"
            kernel = _radial_psd_kernel(rng, slot, refute)
            order = 64 if tiny else 2048
            tasks.append(Task("oracle", {"kernel": kernel, "order": order}, {"nonnegative": not refute}))
        elif kind == "dominance":
            grid, _ = radial_grid(rng, n, _radii_count(n, tiny))
            k1, k2 = _radial_pair(rng, slot)
            tasks.append(Task("dominance", {"k1": k1, "k2": k2, "grid": grid}, {"bound": "oracle"}))
        elif kind == "verify-sub":
            grid, _ = radial_grid(rng, n, _radii_count(n, tiny))
            sym = monomial(rng, 1 + slot % 3, unimodular=True)
            alpha = _pick((0.0, 0.5, 1.0), slot)
            tasks.append(Task("verify-sub", {"b": sym_spec(sym), "alpha": alpha, "grid": grid},
                              {"verdict": "pass", "analytic": inclusion_constant(sym)}))
        else:
            grid, _ = radial_grid(rng, n, _radii_count(n, tiny))
            sym = monomial(rng, 1 + slot % 3, unimodular=True)
            alpha = _pick((0.0, 1.0), slot)
            tasks.append(Task("verify-sub2", {"b": sym_spec(sym), "alpha": alpha, "grid": grid},
                              {"verdict": "pass"}))
    return tasks


def _generic_symbol(rng, slot: int) -> dict:
    degree = 2 + (slot // 3) % 3
    pick = slot % 3
    if pick == 0:
        return blaschke(rng, degree)
    if pick == 1:
        return atomic(rng)
    return poly(rng, degree)


def build_gram_generic(rng, tiny: bool) -> list[Task]:
    """No rotation symmetry: seeded random grids and generic symbols, n = 160 to 1600."""
    plan = (
        [("psd", n) for n in (160, 160, 320, 160, 480, 1600)]
        + [("psd-refute", n) for n in (160, 320, 160, 480)]
        + [("verify-sub", n) for n in (160, 320, 160, 320)]
        + [("dominance", n) for n in (160, 320, 160)]
        + [("membership", n) for n in (160, 320, 160, 480)]
        + [("membership-refute", n) for n in (160, 320, 160, 480)]
        + [("multiplier", n) for n in (160, 320, 160, 480)]
        + [("multiplier-refute", n) for n in (160, 320, 160, 480)]
        + [("scan", 0)]
        + [("scan-refute", 0)] * 6
    )
    tasks = []
    for slot, (kind, n) in enumerate(plan):
        n = _size(n, tiny)
        sym = _generic_symbol(rng, slot)
        b = sym_spec(sym)
        if kind == "psd":
            grid, _ = random_grid(rng, n)
            a = _r(_pick((0.0, 1.0), slot // 6))
            s = _r(round(rng.uniform(0.5, 2.0), 6))
            kernels = [
                "dbr[b=%s]" % b,
                "subbergman[b=%s,alpha=%s]" % (b, a),
                "sum(szego,dbr[b=%s])" % b,
                "scale(%s,subbergman[b=%s,alpha=%s])" % (s, b, a),
                "schur(dbr[b=%s],szego)" % b,
                "cscale(%s,szego)" % b,
            ]
            tasks.append(Task("psd", {"kernel": kernels[slot % len(kernels)], "grid": grid},
                              {"is_psd": True}))
        elif kind == "psd-refute":
            # szego - t dbr[b] has diagonal (1 - t (1 - |b|^2))/(1 - |z|^2), negative
            # at the grid point where |b| is smallest once t (1 - |b|^2) = 1.5.
            grid, pts = random_grid(rng, n)
            smallest = float(np.min(np.abs(sym_eval(sym, pts)) ** 2))
            t = 1.5 / (1.0 - smallest)
            tasks.append(Task("psd", {"kernel": "diff(szego,scale(%s,dbr[b=%s]))" % (_r(t), b),
                                      "grid": grid}, {"is_psd": False}))
        elif kind == "verify-sub":
            grid, _ = random_grid(rng, n)
            alpha = _pick((0.0, 0.5, 1.0), slot)
            tasks.append(Task("verify-sub", {"b": b, "alpha": alpha, "grid": grid},
                              {"verdict": "pass", "analytic": inclusion_constant(sym)}))
        elif kind == "dominance":
            # dbr[b] <= szego for every Schur b, so delta_min <= 1.
            grid, _ = random_grid(rng, n)
            tasks.append(Task("dominance", {"k1": "dbr[b=%s]" % b, "k2": "szego", "grid": grid},
                              {"bound": 1.0}))
        elif kind.startswith("membership"):
            grid, pts = random_grid(rng, n)
            f = poly(rng, 2 + slot % 3)
            alpha = _pick((-1.0, 0.0, 1.0), slot)
            coeffs = np.asarray(f["coeffs"], dtype=complex)
            norm = math.sqrt(float(np.sum(np.abs(coeffs) ** 2 / bergman_diag(alpha, len(coeffs)))))
            if kind == "membership":
                c, ok = norm * rng.uniform(1.02, 1.3), True
            else:
                # c^2 K(z, z) < |f(z)|^2 at the best grid point
                ratio = np.abs(sym_eval(f, pts)) / np.sqrt(kernel_diag(alpha, pts))
                c, ok = float(np.max(ratio)) * rng.uniform(0.5, 0.9), False
            tasks.append(Task("membership", {"f": sym_spec(f), "kernel": bergman_spec(alpha),
                                             "c": c, "grid": grid}, {"is_psd": ok}))
        elif kind.startswith("multiplier"):
            grid, pts = random_grid(rng, n)
            alpha = _pick((-1.0, 0.0, 1.0), slot)
            if kind == "multiplier":
                delta, ok = rng.uniform(1.0, 1.1), True
            else:
                # (delta^2 - |phi(z)|^2) K(z, z) < 0 at the grid point where |phi| peaks
                delta, ok = float(np.max(np.abs(sym_eval(sym, pts)))) * rng.uniform(0.5, 0.95), False
            tasks.append(Task("multiplier", {"phi": b, "kernel": bergman_spec(alpha), "delta": delta,
                                             "grid": grid}, {"is_psd": ok}))
        else:
            alpha = _pick((-1.0, 0.0), slot)
            if kind == "scan":
                delta, rung = rng.uniform(1.0, 1.1), None
            else:
                first = 0.5 * np.exp(2j * np.pi * np.arange(128) / 128)
                delta = float(np.max(np.abs(sym_eval(sym, first)))) * rng.uniform(0.5, 0.95)
                rung = SCAN_FIRST_RUNG
            tasks.append(Task("scan", {"phi": b, "kernel": bergman_spec(alpha), "delta": delta},
                              {"refuted_on": rung}))
    return tasks


def build_operators(rng, tiny: bool) -> list[Task]:
    """Degree sweep N in {128, 512, 1024} plus Takenaka-Malmquist bases of degree 8-32."""
    plan = (
        [("defect", N) for N in (128, 128, 128, 128, 128, 128, 128, 512, 512, 1024)]
        + [("toeplitz", N) for N in (128, 128, 512, 1024, 128, 128, 512, 1024)]
        + [("coanalytic", N) for N in (128, 512)]
        + [("eigcheck", N) for N in (128, 512, 1024, 128)]
        + [("taylor", N) for N in (128, 512, 1024, 1024)]
        + [("tm-defect", d) for d in (16, 32, 32, 32)]
        + [("tm-tail", d) for d in (16, 32, 32, 32)]
        + [("onb-sum", d) for d in (8, 16, 24, 32)]
    )
    tasks = []
    for slot, (kind, N) in enumerate(plan):
        if kind in ("defect", "toeplitz", "coanalytic", "eigcheck"):
            N = _degree(N, tiny)
            if slot % 2 == 0:
                sym = blaschke(rng, 0, moduli=np.linspace(0.3, 0.7, 2 + slot % 3))
            else:
                sym = atomic(rng, sigma=_pick((0.5, 1.0, 2.0), slot // 2))
            b = sym_spec(sym)
            if kind == "defect":
                ws = [m * _unimodular(rng) for m in (0.2, 0.4, 0.6)]
                exact = [math.sqrt((1.0 - abs(complex(sym_eval(sym, w))) ** 2) / (1.0 - abs(w) ** 2))
                         for w in ws]
                tasks.append(Task("defect", {"b": b, "degree": N, "w": [[w.real, w.imag] for w in ws]},
                                  {"range_norms": exact}))
            elif kind in ("toeplitz", "coanalytic"):
                alpha = _pick((-1.0, 0.0, 1.0), slot)
                ref = ref_toeplitz_column(sym, alpha, N)
                tasks.append(Task("toeplitz", {"b": b, "alpha": alpha, "degree": N,
                                               "kind": "coanalytic" if kind == "coanalytic" else "analytic"},
                                  {"column": ref}))
            else:
                alpha = _pick((-1.0, 0.0, 1.0), slot)
                w = _pick((0.3, 0.5, 0.7), slot) * _unimodular(rng)
                tasks.append(Task("eigcheck", {"b": b, "alpha": alpha, "degree": N, "w": [w.real, w.imag]},
                                  {"max_residual": EIGVEC_TOL}))
        elif kind == "taylor":
            N = _degree(N, tiny)
            sym = atomic(rng, sigma=_pick((0.5, 1.0, 2.0), slot))
            w = 0.5 * _unimodular(rng)
            tasks.append(Task("taylor", {"b": sym_spec(sym), "degree": N},
                              {"w": w, "value": complex(sym_eval(sym, w))}))
        else:
            degree = 4 if tiny else N
            sym = blaschke(rng, degree, moduli=np.linspace(0.1, 0.7, degree))
            inputs = {"b": sym_spec(sym)}
            if kind == "onb-sum":
                inputs["grid"] = radial_grid(rng, _size(160, tiny), _radii_count(160, tiny))[0]
            tasks.append(Task(kind, inputs, {"max_value": TM_TOL}))
    return tasks


def ref_taylor(sym: dict, N: int) -> np.ndarray:
    """Taylor coefficients 0..N from an FFT of the symbol on the circle |z| = 0.995."""
    M, r = 16384, 0.995
    z = r * np.exp(2j * np.pi * np.arange(M) / M)
    coeffs = np.fft.fft(sym_eval(sym, z)) / M
    return coeffs[: N + 1] / r ** np.arange(N + 1)


def ref_toeplitz_column(sym: dict, alpha: float, N: int) -> list:
    """First column of the analytic Toeplitz matrix: bhat_n ||z^n|| / ||1||."""
    col = ref_taylor(sym, N) / np.sqrt(bergman_diag(alpha, N + 1))
    return [[float(v.real), float(v.imag)] for v in col]


# ---------------------------------------------------------------- cli-small


def build_cli_small(rng, tiny: bool) -> list[Task]:
    """Sequential CLI calls at test sizes: grids of 80-160 points, degree 128."""
    tasks = []
    for cycle in range(1 if tiny else CLI_CYCLES):
        n = 16 if tiny else (80, 160, 120)[cycle]
        degree = 16 if tiny else 128
        grid, pts = radial_grid(rng, n, 2 if tiny else 4)
        bl = blaschke(rng, 2 + cycle % 2)
        at = atomic(rng)
        mono = monomial(rng, 1 + cycle % 3, unimodular=True)
        refute = cycle % 2 == 1

        kernel = _radial_psd_kernel(rng, cycle, refute)
        tasks.append(_cli("psd", ["psd", "--kernel", kernel, "--grid", grid],
                          {"is_psd": not refute}, exit_code=2 if refute else 0))
        k1, k2 = _radial_pair(rng, cycle)
        tasks.append(_cli("dominance", ["dominance", "--k1", k1, "--k2", k2, "--grid", grid], {}))
        tasks.append(_cli("verify-sub", ["verify", "sub", "--b", sym_spec(bl), "--grid", grid],
                          {"verdict": "pass", "theorem": "sub"},
                          floats={"analytic_constant": inclusion_constant(bl)}))
        if cycle % 2 == 0:
            tasks.append(_cli("verify-sub2", ["verify", "sub2", "--b", sym_spec(mono), "--grid", grid],
                              {"verdict": "pass", "theorem": "sub2-forward"}))
        else:
            tasks.append(_cli("verify-sub2", ["verify", "sub2", "--b", sym_spec(at),
                                              "--radii", "0.9,0.99,0.999"],
                              {"verdict": "divergent", "theorem": "sub2-converse"}))
        m1_sym = bl if cycle % 2 == 0 else at
        tasks.append(_cli("verify-m1", ["verify", "m1", "--b", sym_spec(m1_sym), "--grid", grid],
                          {"verdict": "pass", "theorem": "m1-special-case"},
                          floats={"analytic_constant": inclusion_constant(m1_sym)}))
        tasks.append(_cli("onb", ["onb", "--b", sym_spec(bl), "--grid", grid], {},
                          floats={"basis.%d.normalization" % i: math.sqrt(1.0 - abs(a) ** 2)
                                  for i, a in enumerate(bl["zeros"])}))
        ratio_sym = at if cycle % 2 == 0 else bl
        radii = (0.9, 0.99, 0.999)
        circle = np.exp(2j * np.pi * np.arange(64) / 64)
        values = [float(np.max((1.0 - np.abs(sym_eval(ratio_sym, r * circle)) ** 2) / (1.0 - r * r)))
                  for r in radii]
        tasks.append(_cli("ratio", ["ratio", "--b", sym_spec(ratio_sym), "--radii", "0.9,0.99,0.999"],
                          {}, floats={"values.%d" % i: v for i, v in enumerate(values)} | {"sup": max(values)}))
        t_sym = bl if cycle % 2 == 0 else at
        alpha = (-1.0, 0.0)[cycle % 2]
        task = _cli("toeplitz", ["toeplitz", "--b", sym_spec(t_sym), "--alpha", _r(alpha),
                                 "--degree", str(degree)], {})
        task.expect["column"] = ref_toeplitz_column(t_sym, alpha, degree)
        tasks.append(task)
        f = poly(rng, 2)
        coeffs = np.asarray(f["coeffs"], dtype=complex)
        if refute:
            ratio = np.abs(sym_eval(f, pts)) / np.sqrt(kernel_diag(-1.0, pts))
            c = float(np.max(ratio)) * rng.uniform(0.5, 0.9)
        else:
            c = math.sqrt(float(np.sum(np.abs(coeffs) ** 2))) * rng.uniform(1.02, 1.3)
        tasks.append(_cli("membership", ["membership", "--f", sym_spec(f), "--kernel", "szego",
                                         "--c", _r(c), "--grid", grid],
                          {"is_psd": not refute}, exit_code=2 if refute else 0))
        if refute:
            delta = float(np.max(np.abs(sym_eval(bl, pts)))) * rng.uniform(0.5, 0.95)
        else:
            delta = rng.uniform(1.0, 1.1)
        tasks.append(_cli("multiplier", ["multiplier", "--phi", sym_spec(bl), "--kernel", "szego",
                                         "--delta", _r(delta), "--grid", grid],
                          {"is_psd": not refute}, exit_code=2 if refute else 0))
    return tasks[:CLI_CALLS]


def _cli(kind, argv, fields, exit_code=0, floats=None) -> Task:
    return Task("cli", {"command": kind, "argv": argv},
                {"exit": exit_code, "fields": dict(fields), "floats": dict(floats or {})})


BUILDERS = {
    "cli-small": build_cli_small,
    "gram-radial": build_gram_radial,
    "gram-generic": build_gram_generic,
    "operators": build_operators,
}


def build(workload: str, seed: int, tiny: bool = False) -> list[Task]:
    """The workload's task list; the first task is a small one, used for warm-up."""
    rng = np.random.default_rng(seed % 2**64)
    return BUILDERS[workload](rng, tiny)


# ---------------------------------------------------------------- running


class Runner:
    """Runs tasks against the diskkernels package found under ``root/src``.

    CLI tasks run ``python -m diskkernels`` in a child with the pinned
    environment; ``traced`` switches them to perfbench/traced_cli.py, which
    reports the child's spans on its last stderr line.
    """

    def __init__(self, dk, root: Path, env: dict):
        self.dk = dk
        self.root = root
        self.env = env
        self.traced = False
        self.child_spans: list = []

    def run(self, task: Task):
        dk = self.dk
        i = task.inputs
        kind = task.kind
        if kind == "cli":
            return self._run_cli(i["argv"])
        if kind == "psd":
            v = dk.is_psd(dk.gram(self._kernel(i["kernel"]), self._points(i["grid"])))
            return {"is_psd": v.is_psd}
        if kind == "oracle":
            return {"nonnegative": dk.diagonal_positivity_oracle(self._kernel(i["kernel"]), i["order"]).nonnegative}
        if kind == "dominance":
            r = dk.dominance_delta_min(self._kernel(i["k1"]), self._kernel(i["k2"]), self._points(i["grid"]))
            return {"delta_min": r.delta_min}
        if kind in ("verify-sub", "verify-sub2"):
            check = dk.verify_inclusion if kind == "verify-sub" else dk.verify_equality_forward
            r = check(self._function(i["b"]), i["alpha"], self._points(i["grid"]))
            return {"verdict": r.verdict, "measured": r.measured, "analytic": r.analytic_constant}
        if kind == "membership":
            v = dk.membership_check(self._function(i["f"]), self._kernel(i["kernel"]), i["c"],
                                    self._points(i["grid"]))
            return {"is_psd": v.is_psd}
        if kind == "multiplier":
            v = dk.multiplier_check(self._function(i["phi"]), self._kernel(i["kernel"]), i["delta"],
                                    self._points(i["grid"]))
            return {"is_psd": v.is_psd}
        if kind == "scan":
            phi = self._function(i["phi"])
            kernel = self._kernel(i["kernel"])
            found = dk.refutation_scan(lambda pts: dk.multiplier_check(phi, kernel, i["delta"], pts))
            return {"refuted_on": None if found is None else found[0].provenance}
        if kind == "defect":
            b = self._function(i["b"])
            N = i["degree"]
            op = dk.defect(b, dk.SpaceWeight.for_degree(-1.0, N), N)
            ws = [complex(*w) for w in i["w"]]
            return {"range_norms": [op.range_norm(dk.kernel_section_taylor(b, -1.0, w, N)) for w in ws]}
        if kind == "toeplitz":
            build_op = dk.toeplitz_analytic if i["kind"] == "analytic" else dk.toeplitz_coanalytic
            N = i["degree"]
            m = build_op(self._function(i["b"]), dk.SpaceWeight.for_degree(i["alpha"], N), N).matrix
            return {"column": (m[:, 0] if i["kind"] == "analytic" else m[0, :].conj()).copy()}
        if kind == "eigcheck":
            N = i["degree"]
            w = complex(*i["w"])
            return {"value": dk.eigenvector_check(self._function(i["b"]),
                                                  dk.SpaceWeight.for_degree(i["alpha"], N), N, w)}
        if kind == "taylor":
            return {"coefficients": self._function(i["b"]).taylor(i["degree"])}
        if kind == "tm-defect":
            return {"value": dk.takenaka_malmquist(self._function(i["b"])).orthonormality_defect()}
        if kind == "tm-tail":
            return {"value": dk.takenaka_malmquist(self._function(i["b"])).pairing_tail_estimate()}
        if kind == "onb-sum":
            return {"value": dk.onb_sum_check(self._function(i["b"]), self._points(i["grid"]))}
        raise ValueError("unknown task kind %r" % kind)

    def _kernel(self, text):
        return self.dk.specs.parse_kernel(text)

    def _function(self, text):
        return self.dk.specs.parse_function(text)

    def _points(self, text):
        return self.dk.sample_grid(self.dk.specs.parse_grid(text))

    def _run_cli(self, argv):
        if self.traced:
            cmd = [sys.executable, str(self.root / "perfbench" / "traced_cli.py")] + argv
        else:
            cmd = [sys.executable, "-m", "diskkernels"] + argv
        proc = subprocess.run(cmd, env=self.env, cwd=self.root, capture_output=True,
                              text=True, timeout=CLI_TIMEOUT_S)
        stderr = proc.stderr
        if self.traced:
            head, _, tail = stderr.rpartition("\nPERFBENCH_SPANS ")
            if tail:
                self.child_spans.append(json.loads(tail))
                stderr = head
        return {"exit": proc.returncode, "stdout": proc.stdout, "stderr": stderr}


# ---------------------------------------------------------------- references


def prepare(dk, tasks) -> None:
    """Fill library-derived references for CLI tasks (untimed, before measuring)."""
    specs = dk.specs
    for task in tasks:
        if task.kind != "cli":
            continue
        argv = task.inputs["argv"]
        opts = dict(zip(argv[1::2], argv[2::2])) if argv[0] != "verify" else dict(zip(argv[2::2], argv[3::2]))
        floats = task.expect["floats"]
        cmd = task.inputs["command"]
        grid = opts.get("--grid")
        pts = dk.sample_grid(specs.parse_grid(grid)) if grid else None
        if grid:
            if cmd in ("psd", "membership", "multiplier", "dominance"):
                task.expect["fields"]["grid.size"] = len(pts)
                task.expect["fields"]["grid.spec"] = pts.provenance
        if cmd == "psd":
            v = dk.is_psd(dk.gram(specs.parse_kernel(opts["--kernel"]), pts))
            floats.update(min_eig=v.min_eigenvalue, spectral_norm=v.spectral_norm)
            task.expect["fields"]["kernel"] = specs.format_kernel(specs.parse_kernel(opts["--kernel"]))
        elif cmd == "dominance":
            k1, k2 = specs.parse_kernel(opts["--k1"]), specs.parse_kernel(opts["--k2"])
            r = dk.dominance_delta_min(k1, k2, pts)
            floats.update(delta_min=r.delta_min, jitter=r.regularization_jitter)
            task.expect["delta_bound"] = oracle_sup(dk, k1, k2)
        elif cmd in ("verify-sub", "verify-m1"):
            b = specs.parse_function(opts["--b"])
            if cmd == "verify-sub":
                floats["measured"] = dk.verify_inclusion(b, 0.0, pts).measured
            else:
                floats["measured"] = dk.verify_m1(b, pts).measured
        elif cmd == "verify-sub2":
            b = specs.parse_function(opts["--b"])
            if pts is not None:
                floats["measured"] = dk.verify_equality_forward(b, 0.0, pts).measured
            else:
                floats["measured"] = dk.verify_equality_converse(b, (0.9, 0.99, 0.999)).measured
        elif cmd in ("membership", "multiplier"):
            if cmd == "membership":
                v = dk.membership_check(specs.parse_function(opts["--f"]), specs.parse_kernel(opts["--kernel"]),
                                        float(opts["--c"]), pts)
            else:
                v = dk.multiplier_check(specs.parse_function(opts["--phi"]), specs.parse_kernel(opts["--kernel"]),
                                        float(opts["--delta"]), pts)
            floats.update(min_eig=v.min_eigenvalue, spectral_norm=v.spectral_norm)


def oracle_sup(dk, k1, k2, order: int = 1024) -> float:
    """Exact sup_n c1_n/c2_n from the diagonal-series oracle of two radial kernels."""
    c1 = dk.diagonal_positivity_oracle(k1, order).coefficients
    c2 = dk.diagonal_positivity_oracle(k2, order).coefficients
    return float(np.max(c1 / c2))


def _flatten(obj, prefix=""):
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _flatten(v, prefix + k + ".")
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _flatten(v, "%s%d." % (prefix, i))
    else:
        yield prefix[:-1], obj


def _close(x, ref, scale) -> bool:
    return abs(x - ref) <= REL_TOL * abs(ref) + ABS_TOL * scale


def check_outcome(dk, task: Task, out: dict):
    """None when the outcome matches the task's reference, else a message."""
    e = task.expect
    kind = task.kind
    if kind == "cli":
        return _check_cli(task, out)
    if kind in ("psd", "membership", "multiplier"):
        if out["is_psd"] != e["is_psd"]:
            return "is_psd %s, expected %s" % (out["is_psd"], e["is_psd"])
        return None
    if kind == "oracle":
        if out["nonnegative"] != e["nonnegative"]:
            return "oracle verdict %s, expected %s" % (out["nonnegative"], e["nonnegative"])
        return None
    if kind == "dominance":
        if e["bound"] == "oracle":
            i = task.inputs
            e["bound"] = oracle_sup(dk, dk.specs.parse_kernel(i["k1"]), dk.specs.parse_kernel(i["k2"]))
        delta = out["delta_min"]
        if not 0.0 < delta <= e["bound"] * (1.0 + REPORT_TOL):
            return "delta_min %.17g outside (0, %.17g]" % (delta, e["bound"])
        return None
    if kind in ("verify-sub", "verify-sub2"):
        if out["verdict"] != e["verdict"]:
            return "verdict %s, expected %s" % (out["verdict"], e["verdict"])
        if "analytic" in e and abs(out["analytic"] - e["analytic"]) > 1e-12 * e["analytic"]:
            return "analytic constant %.17g, expected %.17g" % (out["analytic"], e["analytic"])
        if not out["measured"] <= out["analytic"] * (1.0 + REPORT_TOL):
            return "measured %.17g above %.17g" % (out["measured"], out["analytic"])
        return None
    if kind == "scan":
        if out["refuted_on"] != e["refuted_on"]:
            return "refuted on %s, expected %s" % (out["refuted_on"], e["refuted_on"])
        return None
    if kind == "defect":
        for got, exact in zip(out["range_norms"], e["range_norms"]):
            if not abs(got - exact) <= RANGE_NORM_TOL * exact:
                return "range norm %.17g, exact %.17g" % (got, exact)
        return None
    if kind == "toeplitz":
        ref = np.array([complex(*v) for v in e["column"]])
        err = float(np.max(np.abs(out["column"] - ref)))
        if not err <= TOEPLITZ_TOL * max(1.0, float(np.max(np.abs(ref)))):
            return "Toeplitz column off by %.3g" % err
        return None
    if kind == "taylor":
        coeffs = out["coefficients"]
        value = np.polyval(coeffs[::-1], e["w"])
        if not abs(value - e["value"]) <= TAYLOR_TOL * max(1.0, abs(e["value"])):
            return "Taylor polynomial %r, closed form %r" % (value, e["value"])
        return None
    if kind in ("eigcheck", "tm-defect", "tm-tail", "onb-sum"):
        limit = e.get("max_residual", e.get("max_value"))
        if not 0.0 <= out["value"] <= limit:
            return "%s %.3g above %.3g" % (kind, out["value"], limit)
        return None
    return "unknown task kind %r" % kind


def _check_cli(task: Task, out: dict):
    e = task.expect
    if out["exit"] != e["exit"]:
        return "exit %d, expected %d: %s" % (out["exit"], e["exit"], out["stderr"].strip()[-200:])
    if task.inputs["command"] == "toeplitz":
        rows = list(csv.reader(io.StringIO(out["stdout"])))
        ref = np.array([complex(*v) for v in e["column"]])
        if len(rows) != len(ref) or any(len(row) != len(ref) for row in rows):
            return "Toeplitz CSV has shape %d x %d" % (len(rows), len(rows[0]) if rows else 0)
        col = np.array([complex(*(float(x) for x in row[0].split(","))) for row in rows])
        err = float(np.max(np.abs(col - ref)))
        if not err <= TOEPLITZ_TOL * max(1.0, float(np.max(np.abs(ref)))):
            return "Toeplitz column off by %.3g" % err
        return None
    try:
        report = dict(_flatten(json.loads(out["stdout"])))
    except ValueError as exc:
        return "report is not JSON: %s" % exc
    for key, want in e["fields"].items():
        if report.get(key) != want:
            return "%s = %r, expected %r" % (key, report.get(key), want)
    floats = e["floats"]
    scale = max([1.0] + [abs(v) for v in floats.values()])
    for key, want in floats.items():
        got = report.get(key)
        if not isinstance(got, (int, float)) or not _close(got, want, scale):
            return "%s = %r, reference %.17g" % (key, got, want)
    if "delta_bound" in e and not report["delta_min"] <= e["delta_bound"] * (1.0 + REPORT_TOL):
        return "delta_min %.17g above the oracle bound %.17g" % (report["delta_min"], e["delta_bound"])
    if task.inputs["command"] == "onb":
        for key in ("residual", "orthonormality_defect"):
            if not report[key] <= TM_TOL:
                return "%s %.3g above %.3g" % (key, report[key], TM_TOL)
    return None
