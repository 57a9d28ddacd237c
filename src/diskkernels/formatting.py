"""Deterministic text formatting shared by the spec grammar and the CLI."""

from __future__ import annotations

import json
import math


def fmt_real(x: float) -> str:
    """Format a real number with 17 significant digits (round-trip exact)."""
    return "%.17g" % float(x)


def fmt_int(n: int) -> str:
    return "%d" % int(n)


def _fmt_count(n: int) -> str:
    """A count in full below 10^15, else in scientific form such as ``1.00e+4000``.

    Sizes refused for their memory can have thousands of digits; this keeps
    the messages that name them short.
    """
    n = int(n)
    if abs(n) < 10**15:
        return "%d" % n
    import decimal  # only refused sizes get here; a float overflows beyond 1e308

    return "{:.3g}".format(decimal.Decimal(n))


def _fmt_gigabytes(nbytes: int) -> str:
    """A byte count in gigabytes as ``%.3g`` prints them: ``0.268``, ``1.6e+792``.

    Counts of 10^300 bytes and more are refused sizes beyond float
    division; they are rounded from the exact integer instead.
    """
    nbytes = int(nbytes)
    if nbytes < 10**300:
        return "%.3g" % (nbytes / 1e9)
    import decimal  # only refused sizes get here

    ctx = decimal.Context(prec=3)
    return "{:g}".format(ctx.scaleb(decimal.Decimal(nbytes), -9).normalize(ctx))


def fmt_complex(c: complex) -> str:
    """Canonical complex literal: ``x``, ``yi`` or ``x+yi`` / ``x-yi``."""
    c = complex(c)
    if c.imag == 0.0:
        return fmt_real(c.real)
    imag = fmt_real(c.imag) + "i"
    if c.real == 0.0:
        return imag
    sep = "+" if c.imag >= 0.0 else ""
    return fmt_real(c.real) + sep + imag


def canonical_json(obj) -> str:
    """Serialize to JSON with sorted keys and 17-significant-digit floats.

    Identical inputs produce byte-identical output. Complex values are
    emitted as canonical complex literals (strings). Non-finite floats have
    no JSON form and raise ValueError.
    """
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return fmt_int(obj)
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError("cannot serialize the non-finite float %r as JSON" % obj)
        return fmt_real(obj)
    if isinstance(obj, complex):
        return json.dumps(fmt_complex(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        keys = sorted(obj)
        if any(not isinstance(k, str) for k in keys):
            raise TypeError("JSON object keys must be strings")
        items = ("%s:%s" % (json.dumps(k), canonical_json(obj[k])) for k in keys)
        return "{" + ",".join(items) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(canonical_json(v) for v in obj) + "]"
    raise TypeError("cannot serialize %r" % type(obj))


def flatten_report(obj, prefix: str = "") -> list[tuple[str, str]]:
    """Flatten a nested report into sorted (dotted key, scalar text) rows."""
    rows: list[tuple[str, str]] = []
    if isinstance(obj, dict):
        for k in sorted(obj):
            rows.extend(flatten_report(obj[k], prefix + k + "."))
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            rows.extend(flatten_report(v, "%s%d." % (prefix, i)))
    else:
        key = prefix[:-1] if prefix.endswith(".") else prefix
        if obj is None:
            text = ""
        elif isinstance(obj, bool):
            text = "true" if obj else "false"
        elif isinstance(obj, int):
            text = fmt_int(obj)
        elif isinstance(obj, float):
            text = fmt_real(obj)
        elif isinstance(obj, complex):
            text = fmt_complex(obj)
        else:
            text = str(obj)
        rows.append((key, text))
    return rows
