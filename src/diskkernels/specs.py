"""Grammar for function/kernel/grid spec strings and canonical re-serialization.

Grammar (no whitespace):

  funcspec  := blaschke[a1,a2,...;c=<complex>] | atomic[sigma=<real>,xi=<complex>]
             | poly[c0,c1,...] | const[<complex>]
  kernelspec:= szego | bergman[alpha=<real>] | dbr[b=<funcspec>]
             | subbergman[b=<funcspec>,alpha=<real>]
             | sum(K,K) | schur(K,K) | scale(<real>,K) | diff(K,K)
             | cscale(<funcspec>,K)
  gridspec  := radial[r1,r2,...;angles=<int>] | random[n=<int>,rmax=<real>[,seed=<int>]]

Complex literals are x, yi, or x+yi / x-yi. Formatting uses 17 significant
digits, so canonical output re-parses to an equal structure.
"""

from __future__ import annotations

import math
import re

from . import functions as fn
from . import kernels as kx
from .formatting import fmt_complex, fmt_real

_NUM = re.compile(r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_DIGITS = re.compile(r"[+-]?\d+")
_NAME = re.compile(r"[a-z][a-z0-9_]*")
_BINARY = {"sum": kx.Sum, "schur": kx.SchurProduct, "diff": kx.Difference}


class SpecParseError(ValueError):
    """Spec-string parse failure carrying the offending position."""

    def __init__(self, message: str, text: str, pos: int):
        super().__init__(message)
        self.message = message
        self.text = text
        self.pos = pos

    def diagnostic(self) -> str:
        caret = " " * self.pos + "^"
        return "%s\n%s\n%s" % (self.text, caret, self.message)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def fail(self, message: str, pos: int | None = None):
        raise SpecParseError(message, self.text, self.pos if pos is None else pos)

    def at_end(self) -> bool:
        return self.pos >= len(self.text)

    def peek(self) -> str:
        return "" if self.at_end() else self.text[self.pos]

    def match(self, literal: str) -> bool:
        if self.text.startswith(literal, self.pos):
            self.pos += len(literal)
            return True
        return False

    def expect(self, literal: str):
        if not self.match(literal):
            self.fail("expected %r" % literal)

    def expect_end(self):
        if not self.at_end():
            self.fail("unexpected trailing characters")

    def parse_name(self) -> str:
        m = _NAME.match(self.text, self.pos)
        if m is None:
            self.fail("expected a name")
        self.pos = m.end()
        return m.group(0)

    def parse_number(self) -> str:
        m = _NUM.match(self.text, self.pos)
        if m is None:
            self.fail("expected a number")
        self.pos = m.end()
        return m.group(0)

    def parse_real(self) -> float:
        return float(self.parse_number())

    def parse_int(self) -> int:
        """An integer literal; ``1e2``-style literals count when integral.

        Digits alone are read exactly with ``int``, since ``float`` would
        round them above 2^53; a literal beyond the float range, or beyond
        Python's limit on integer digits, is refused here.
        """
        start = self.pos
        text = self.parse_number()
        if _DIGITS.fullmatch(text):
            try:
                return int(text)
            except ValueError:
                self.fail("integer out of range", start)
        value = float(text)
        if math.isinf(value):
            self.fail("integer out of range", start)
        if not value.is_integer():
            self.fail("expected an integer", start)
        return int(value)

    def parse_complex(self) -> complex:
        first = self.parse_real()
        if self.match("i"):
            return complex(0.0, first)
        if self.peek() in "+-":
            start = self.pos
            second = self.parse_real()
            if not self.match("i"):
                self.fail("expected 'i' after the imaginary part", start)
            return complex(first, second)
        return complex(first, 0.0)

    def _construct(self, start: int, builder, *args, **kwargs):
        try:
            return builder(*args, **kwargs)
        except ValueError as exc:
            self.fail(str(exc), start)

    def parse_function(self, schur: bool = True):
        start = self.pos
        name = self.parse_name()
        if name == "blaschke":
            self.expect("[")
            zeros = [self.parse_complex()]
            while self.match(","):
                zeros.append(self.parse_complex())
            constant = 1.0 + 0.0j
            if self.match(";"):
                self.expect("c=")
                constant = self.parse_complex()
            self.expect("]")
            return self._construct(
                start, fn.BlaschkeProduct, tuple(zeros), constant
            )
        if name == "atomic":
            self.expect("[")
            self.expect("sigma=")
            sigma = self.parse_real()
            self.expect(",")
            self.expect("xi=")
            xi = self.parse_complex()
            self.expect("]")
            return self._construct(start, fn.AtomicSingularInner, sigma, xi)
        if name == "poly":
            self.expect("[")
            coeffs = [self.parse_complex()]
            while self.match(","):
                coeffs.append(self.parse_complex())
            self.expect("]")
            return self._construct(start, fn.TaylorPolynomial, tuple(coeffs), schur)
        if name == "const":
            self.expect("[")
            value = self.parse_complex()
            self.expect("]")
            return self._construct(start, fn.ConstantFunction, value, schur)
        self.fail("unknown function %r" % name, start)

    def parse_kernel(self):
        start = self.pos
        name = self.parse_name()
        if name == "szego":
            return kx.Szego()
        if name == "bergman":
            self.expect("[")
            self.expect("alpha=")
            alpha = self.parse_real()
            self.expect("]")
            return self._construct(start, kx.WeightedBergman, alpha)
        if name == "dbr":
            self.expect("[")
            self.expect("b=")
            b = self.parse_function()
            self.expect("]")
            return kx.DBR(b)
        if name == "subbergman":
            self.expect("[")
            self.expect("b=")
            b = self.parse_function()
            self.expect(",")
            self.expect("alpha=")
            alpha = self.parse_real()
            self.expect("]")
            return self._construct(start, kx.SubBergman, b, alpha)
        if name in _BINARY:
            self.expect("(")
            left = self.parse_kernel()
            self.expect(",")
            right = self.parse_kernel()
            self.expect(")")
            return _BINARY[name](left, right)
        if name == "scale":
            self.expect("(")
            pos_factor = self.pos
            factor = self.parse_real()
            self.expect(",")
            operand = self.parse_kernel()
            self.expect(")")
            return self._construct(pos_factor, kx.Scale, factor, operand)
        if name == "cscale":
            self.expect("(")
            func = self.parse_function()
            self.expect(",")
            operand = self.parse_kernel()
            self.expect(")")
            return kx.ConjugateScale(func, operand)
        self.fail("unknown kernel %r" % name, start)

    def parse_grid(self, default_seed: int = 0):
        start = self.pos
        name = self.parse_name()
        if name == "radial":
            self.expect("[")
            radii = []
            while True:
                pos_r = self.pos
                r = self.parse_real()
                if not 0.0 < r < 1.0:
                    self.fail("grid radius must lie in (0, 1)", pos_r)
                radii.append(r)
                if not self.match(","):
                    break
            self.expect(";")
            self.expect("angles=")
            angles = self.parse_int()
            self.expect("]")
            return self._construct(start, kx.RadialGrid, tuple(radii), angles)
        if name == "random":
            self.expect("[")
            self.expect("n=")
            count = self.parse_int()
            self.expect(",")
            self.expect("rmax=")
            pos_r = self.pos
            rmax = self.parse_real()
            if not 0.0 < rmax < 1.0:
                self.fail("rmax must lie in (0, 1)", pos_r)
            seed = default_seed
            if self.match(","):
                self.expect("seed=")
                seed = self.parse_int()
            self.expect("]")
            return self._construct(start, kx.RandomGrid, count, rmax, seed)
        self.fail("unknown grid %r" % name, start)


def parse_function(text: str, schur: bool = True):
    """Parse a function spec; ``schur=False`` drops the unit-ball checks.

    Blaschke products and atomic inner functions are Schur functions either
    way; ``poly`` and ``const`` then admit any finite coefficients.
    """
    parser = _Parser(text)
    out = parser.parse_function(schur)
    parser.expect_end()
    return out


def parse_kernel(text: str):
    parser = _Parser(text)
    out = parser.parse_kernel()
    parser.expect_end()
    return out


def parse_grid(text: str, default_seed: int = 0):
    parser = _Parser(text)
    out = parser.parse_grid(default_seed=default_seed)
    parser.expect_end()
    return out


def format_function(f) -> str:
    if isinstance(f, fn.BlaschkeProduct):
        zeros = ",".join(fmt_complex(a) for a in f.zeros)
        return "blaschke[%s;c=%s]" % (zeros, fmt_complex(f.unimodular_constant))
    if isinstance(f, fn.AtomicSingularInner):
        return "atomic[sigma=%s,xi=%s]" % (
            fmt_real(f.mass),
            fmt_complex(f.boundary_atom),
        )
    if isinstance(f, fn.TaylorPolynomial):
        return "poly[%s]" % ",".join(fmt_complex(c) for c in f.coefficients)
    if isinstance(f, fn.ConstantFunction):
        return "const[%s]" % fmt_complex(f.value)
    raise TypeError("cannot format %r as a function spec" % (f,))


def format_kernel(kernel) -> str:
    if isinstance(kernel, kx.Szego):
        return "szego"
    if isinstance(kernel, kx.WeightedBergman):
        return "bergman[alpha=%s]" % fmt_real(kernel.alpha)
    if isinstance(kernel, kx.DBR):
        return "dbr[b=%s]" % format_function(kernel.b)
    if isinstance(kernel, kx.SubBergman):
        return "subbergman[b=%s,alpha=%s]" % (
            format_function(kernel.b),
            fmt_real(kernel.alpha),
        )
    for name, node in _BINARY.items():
        if isinstance(kernel, node):
            left, right = format_kernel(kernel.left), format_kernel(kernel.right)
            return "%s(%s,%s)" % (name, left, right)
    if isinstance(kernel, kx.Scale):
        return "scale(%s,%s)" % (fmt_real(kernel.factor), format_kernel(kernel.operand))
    if isinstance(kernel, kx.ConjugateScale):
        return "cscale(%s,%s)" % (
            format_function(kernel.func),
            format_kernel(kernel.operand),
        )
    raise TypeError("cannot format %r as a kernel spec" % (kernel,))


def format_grid(spec) -> str:
    if isinstance(spec, (kx.RadialGrid, kx.RandomGrid)):
        return spec.canonical()
    raise TypeError("cannot format %r as a grid spec" % (spec,))


def point_set_obj(points: kx.PointSet) -> dict:
    """Grid object embedded in JSON reports."""
    return {"spec": points.provenance, "size": len(points)}
