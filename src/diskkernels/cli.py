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

from .formatting import canonical_json, flatten_report, fmt_real
from .functions import BlaschkeProduct, ratio_table
from .kernels import gram, sample_grid
from .modelspace import PAIRING_DEGREE, onb_sum_check, takenaka_malmquist
from .operators import SpaceWeight, toeplitz_analytic, toeplitz_coanalytic, write_matrix_csv
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
from .verify import (
    CONVERSE_RADII,
    verify_equality_converse,
    verify_equality_forward,
    verify_inclusion,
    verify_m1,
)


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


def build_parser() -> _ArgumentParser:
    top = _ArgumentParser(
        prog="diskkernels",
        description="Reproducing-kernel positivity, dominance, and operator checks "
        "on the unit disk.",
    )
    top.add_argument("--tol", type=_tolerance, default=1e-9, help="PSD tolerance")
    top.add_argument(
        "--degree", type=int, default=128, help="truncation degree for operators"
    )
    top.add_argument(
        "--format", choices=("json", "csv"), default="json", dest="fmt",
        help="report format",
    )
    top.add_argument(
        "--seed", type=int, default=0,
        help="seed used when a random grid spec omits one",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def accept_globals(p):
        # Same flags as the top parser, so they work on either side of the
        # subcommand; SUPPRESS keeps them from overriding values parsed earlier.
        p.add_argument("--tol", type=_tolerance, default=argparse.SUPPRESS,
                       help=argparse.SUPPRESS)
        p.add_argument("--degree", type=int, default=argparse.SUPPRESS,
                       help=argparse.SUPPRESS)
        p.add_argument("--format", choices=("json", "csv"), dest="fmt",
                       default=argparse.SUPPRESS, help=argparse.SUPPRESS)
        p.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                       help=argparse.SUPPRESS)

    p = sub.add_parser("psd", help="PSD test of a kernel Gram matrix")
    accept_globals(p)
    p.set_defaults(run=_run_psd)
    p.add_argument("--kernel", required=True)
    p.add_argument("--grid", required=True)

    p = sub.add_parser("dominance", help="least delta with K1 <= delta K2 on a grid")
    accept_globals(p)
    p.set_defaults(run=_run_dominance)
    p.add_argument("--k1", required=True)
    p.add_argument("--k2", required=True)
    p.add_argument("--grid", required=True)

    p = sub.add_parser("ratio", help="boundary growth ratio table of a symbol")
    accept_globals(p)
    p.set_defaults(run=_run_ratio)
    p.add_argument("--b", required=True)
    p.add_argument("--radii", required=True)
    p.add_argument("--angles", type=_angle_count, default=64)

    p = sub.add_parser("onb", help="model-space basis residual against the kernel")
    accept_globals(p)
    p.set_defaults(run=_run_onb)
    p.add_argument("--b", required=True)
    p.add_argument("--grid", required=True)

    p = sub.add_parser("toeplitz", help="dump a truncated Toeplitz matrix as CSV")
    accept_globals(p)
    p.set_defaults(run=_run_toeplitz)
    p.add_argument("--b", required=True)
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--kind", choices=("analytic", "coanalytic"), default="analytic")
    p.add_argument("--out", default=None, help="CSV path (sidecar JSON added)")

    p = sub.add_parser("membership", help="norm-bound membership test on a grid")
    accept_globals(p)
    p.set_defaults(run=_run_membership)
    p.add_argument("--f", required=True)
    p.add_argument("--kernel", required=True)
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--grid", required=True)

    p = sub.add_parser("multiplier", help="multiplier-norm bound test on a grid")
    accept_globals(p)
    p.set_defaults(run=_run_multiplier)
    p.add_argument("--phi", required=True)
    p.add_argument("--kernel", required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--grid", required=True)

    p = sub.add_parser("verify", help="theorem-level checks")
    accept_globals(p)
    p.set_defaults(run=_run_verify)
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
    if not isinstance(b, BlaschkeProduct):
        raise UsageError("onb needs a finite Blaschke product symbol")
    points = _points_for(args)
    basis = takenaka_malmquist(b)
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
    writer = csv.writer(sys.stdout, lineterminator="\n")
    for row in op.matrix:
        writer.writerow(["%s,%s" % (fmt_real(v.real), fmt_real(v.imag)) for v in row])
    return 0, None


def _run_membership(args) -> tuple[int, dict]:
    f = parse_function(args.f)
    kernel = parse_kernel(args.kernel)
    points = _points_for(args)
    verdict = membership_check(f, kernel, args.c, points, args.tol)
    return _verdict_report(
        verdict, kernel, points, f=format_function(f), c=float(args.c)
    )


def _run_multiplier(args) -> tuple[int, dict]:
    phi = parse_function(args.phi)
    kernel = parse_kernel(args.kernel)
    points = _points_for(args)
    verdict = multiplier_check(phi, kernel, args.delta, points, args.tol)
    return _verdict_report(
        verdict, kernel, points, phi=format_function(phi), delta=float(args.delta)
    )


def _run_verify(args) -> tuple[int, dict]:
    b = parse_function(args.b)
    radii = _parse_radii(args.radii) if args.radii else None
    if args.statement == "sub":
        if args.grid is None:
            raise UsageError("verify sub needs --grid")
        report = verify_inclusion(b, args.alpha, _points_for(args), args.tol)
        code = 0 if report.verdict == "pass" else 2
    elif args.statement == "sub2":
        if isinstance(b, BlaschkeProduct):
            if args.grid is None:
                raise UsageError("verify sub2 needs --grid for a Blaschke symbol")
            report = verify_equality_forward(b, args.alpha, _points_for(args), args.tol)
            code = 0 if report.verdict == "pass" else 2
        else:
            report = verify_equality_converse(b, radii or CONVERSE_RADII, args.angles)
            code = 0 if report.verdict == "divergent" else 2
    else:
        if args.grid is None:
            raise UsageError("verify m1 needs --grid")
        report = verify_m1(b, _points_for(args), radii or CONVERSE_RADII, args.tol)
        code = 0 if report.verdict == "pass" else 2
    return code, report.report_dict()


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
    except (ValueError, TypeError, np.linalg.LinAlgError) as exc:
        stderr.write("error: %s\n" % exc)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
