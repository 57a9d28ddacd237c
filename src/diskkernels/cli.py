"""Command-line front end with deterministic JSON/CSV reports.

Exit codes: 0 for a pass (or a measurement that completed), 2 for a
refuted/failed check, 1 for usage or spec errors. Identical invocations
produce byte-identical output: keys are sorted and floats carry 17
significant digits.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import sys

import numpy as np

from .formatting import canonical_json, flatten_report
from .functions import ratio_table
from .kernels import gram, sample_grid
from .modelspace import PAIRING_DEGREE, onb_sum_check, takenaka_malmquist
from .operators import (
    SpaceWeight,
    toeplitz_analytic,
    toeplitz_coanalytic,
    write_matrix_cells,
    write_matrix_csv,
)
from .psd import dominance_delta_min, is_psd, membership_check, multiplier_check
from .specs import (
    SpecParseError,
    format_function,
    format_kernel,
    parse_function,
    parse_grid,
    parse_kernel,
    point_set_obj,
)
from .verify import CONVERSE_RADII, verify_equality, verify_inclusion, verify_m1


class UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_radii(text: str) -> tuple:
    try:
        radii = tuple(float(part) for part in text.split(","))
    except ValueError as exc:
        raise UsageError("could not parse radii list %r" % text) from exc
    if not radii:
        raise UsageError("radii list is empty")
    return radii


def _tolerance(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError("must be a finite number >= 0, got %r" % text)
    return value


def _angle_count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError("must be an integer >= 1, got %r" % text)
    return value


# Flags accepted on either side of the subcommand: (flag, add_argument keywords).
GLOBAL_FLAGS = (
    ("--tol", dict(type=_tolerance, default=1e-9, help="PSD tolerance")),
    ("--degree", dict(type=int, default=128, help="truncation degree for operators")),
    ("--format", dict(choices=("json", "csv"), default="json", dest="fmt",
                      help="report format")),
    ("--seed", dict(type=int, default=0,
                    help="seed used when a random grid spec omits one")),
)


def build_parser() -> _ArgumentParser:
    top = _ArgumentParser(
        prog="diskkernels",
        description="Reproducing-kernel positivity, dominance, and operator checks "
        "on the unit disk.",
    )
    for flag, options in GLOBAL_FLAGS:
        top.add_argument(flag, **options)
    sub = top.add_subparsers(dest="command", required=True)

    def command(name, run, help):
        p = sub.add_parser(name, help=help)
        # Each subparser declares its own copy of the global flags: SUPPRESS
        # keeps them from overriding values parsed before the subcommand,
        # which a shared ``parents=`` parser would do.
        for flag, options in GLOBAL_FLAGS:
            p.add_argument(flag, **{**options, "default": argparse.SUPPRESS,
                                    "help": argparse.SUPPRESS})
        p.set_defaults(run=run)
        return p

    p = command("psd", _run_psd, "PSD test of a kernel Gram matrix")
    p.add_argument("--kernel", required=True)
    p.add_argument("--grid", required=True)

    p = command(
        "dominance", _run_dominance, "least delta with K1 <= delta K2 on a grid"
    )
    p.add_argument("--k1", required=True)
    p.add_argument("--k2", required=True)
    p.add_argument("--grid", required=True)

    p = command("ratio", _run_ratio, "boundary growth ratio table of a symbol")
    p.add_argument("--b", required=True)
    p.add_argument("--radii", required=True)
    p.add_argument("--angles", type=_angle_count, default=64)

    p = command("onb", _run_onb, "model-space basis residual against the kernel")
    p.add_argument("--b", required=True)
    p.add_argument("--grid", required=True)

    p = command("toeplitz", _run_toeplitz, "dump a truncated Toeplitz matrix as CSV")
    p.add_argument("--b", required=True)
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--kind", choices=("analytic", "coanalytic"), default="analytic")
    p.add_argument("--out", default=None, help="CSV path (sidecar JSON added)")

    p = command("membership", _run_membership, "norm-bound membership test on a grid")
    p.add_argument("--f", required=True)
    p.add_argument("--kernel", required=True)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--grid", required=True)

    p = command("multiplier", _run_multiplier, "multiplier-norm bound test on a grid")
    p.add_argument("--phi", required=True)
    p.add_argument("--kernel", required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--grid", required=True)

    p = command("verify", _run_verify, "theorem-level checks")
    p.add_argument("statement", choices=("sub", "sub2", "m1"))
    p.add_argument("--b", required=True)
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--grid", default=None)
    p.add_argument("--radii", default=None)
    p.add_argument("--angles", type=_angle_count, default=64)

    return top


def _emit(report: dict, fmt: str, stream) -> None:
    if fmt == "json":
        stream.write(canonical_json(report))
        stream.write("\n")
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        for key, value in flatten_report(report):
            writer.writerow([key, value])
        stream.write(buf.getvalue())


def _points_for(args):
    return sample_grid(parse_grid(args.grid, default_seed=args.seed))


def _verdict_report(verdict, kernel, points, **fields) -> tuple[int, dict]:
    report = {
        "is_psd": verdict.is_psd,
        "min_eig": verdict.min_eigenvalue,
        "tol": verdict.tolerance_used,
        "spectral_norm": verdict.spectral_norm,
        "kernel": format_kernel(kernel),
        "grid": point_set_obj(points),
        **fields,
    }
    return (0 if verdict.is_psd else 2), report


def _run_psd(args) -> tuple[int, dict]:
    kernel = parse_kernel(args.kernel)
    points = _points_for(args)
    return _verdict_report(is_psd(gram(kernel, points), args.tol), kernel, points)


def _run_dominance(args) -> tuple[int, dict]:
    k1 = parse_kernel(args.k1)
    k2 = parse_kernel(args.k2)
    points = _points_for(args)
    return 0, dominance_delta_min(k1, k2, points, args.tol).report_dict()


def _run_ratio(args) -> tuple[int, dict]:
    b = parse_function(args.b)
    radii = _parse_radii(args.radii)
    values = ratio_table(b, radii, args.angles)
    report = {
        "b": format_function(b),
        "radii": list(radii),
        "angles": args.angles,
        "values": values,
        "sup": max(values),
    }
    return 0, report


def _run_onb(args) -> tuple[int, dict]:
    b = parse_function(args.b)
    basis = takenaka_malmquist(b)
    points = _points_for(args)
    residual = onb_sum_check(b, points)
    report = {
        "b": format_function(b),
        "grid": point_set_obj(points),
        "residual": residual,
        "orthonormality_defect": basis.orthonormality_defect(),
        "pairing_degree": PAIRING_DEGREE,
        "pairing_tail_estimate": basis.pairing_tail_estimate(),
        "basis": basis.to_json_obj(),
    }
    return (0 if residual <= args.tol else 2), report


def _run_toeplitz(args) -> tuple[int, dict | None]:
    b = parse_function(args.b)
    weight = SpaceWeight.for_degree(args.alpha, args.degree)
    build = toeplitz_analytic if args.kind == "analytic" else toeplitz_coanalytic
    op = build(b, weight, args.degree)
    if args.out:
        write_matrix_csv(op, args.out)
        report = {
            "b": format_function(b),
            "alpha": float(args.alpha),
            "degree": int(args.degree),
            "kind": args.kind,
            "csv": args.out,
            "sidecar": args.out + ".json",
        }
        return 0, report
    write_matrix_cells(op, sys.stdout, lineterminator="\n")
    return 0, None


def _run_membership(args) -> tuple[int, dict]:
    f = parse_function(args.f, schur=False)
    kernel = parse_kernel(args.kernel)
    points = _points_for(args)
    verdict = membership_check(f, kernel, args.c, points, args.tol)
    return _verdict_report(
        verdict, kernel, points, f=format_function(f), c=float(args.c)
    )


def _run_multiplier(args) -> tuple[int, dict]:
    phi = parse_function(args.phi, schur=False)
    kernel = parse_kernel(args.kernel)
    points = _points_for(args)
    verdict = multiplier_check(phi, kernel, args.delta, points, args.tol)
    return _verdict_report(
        verdict, kernel, points, phi=format_function(phi), delta=float(args.delta)
    )


def _run_verify(args) -> tuple[int, dict]:
    b = parse_function(args.b)
    radii = _parse_radii(args.radii) if args.radii else CONVERSE_RADII
    if args.grid is None and args.statement != "sub2":
        raise UsageError("verify %s needs --grid" % args.statement)
    points = None if args.grid is None else _points_for(args)
    if args.statement == "sub":
        report = verify_inclusion(b, args.alpha, points, args.tol)
    elif args.statement == "sub2":
        report = verify_equality(b, args.alpha, points, radii, args.angles, args.tol)
    else:
        report = verify_m1(b, points, radii, args.tol, args.angles)
    return (0 if report.holds else 2), report.report_dict()


def main(argv=None) -> int:
    stderr = sys.stderr
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        stderr.write("error: %s\n" % exc)
        return 1
    try:
        code, report = args.run(args)
        if report is not None:
            _emit(report, args.fmt, sys.stdout)
    except SpecParseError as exc:
        stderr.write(exc.diagnostic() + "\n")
        return 1
    except UsageError as exc:
        stderr.write("error: %s\n" % exc)
        return 1
    except (ValueError, TypeError, OSError, np.linalg.LinAlgError) as exc:
        stderr.write("error: %s\n" % exc)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
