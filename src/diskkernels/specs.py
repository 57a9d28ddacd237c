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

Each form is declared once, as one row of ``_FUNCTIONS``, ``_KERNELS`` or
``_GRIDS``; one walker parses from those rows and one formats from them, so
a new form is one new row.
"""

from __future__ import annotations

import math
import re
from typing import Callable, NamedTuple

from . import functions as fn
from . import kernels as kx
from .formatting import fmt_complex, fmt_int, fmt_real

_NUM = re.compile(r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_DIGITS = re.compile(r"[+-]?\d+")
_NAME = re.compile(r"[a-z][a-z0-9_]*")


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
        if self.peek() in ("+", "-"):
            start = self.pos
            second = self.parse_real()
            if not self.match("i"):
                self.fail("expected 'i' after the imaginary part", start)
            return complex(first, second)
        return complex(first, 0.0)

    def parse_form(self, grammar: "_Grammar", **context):
        """One form of ``grammar``; ``context`` holds the caller's arguments."""
        start = self.pos
        name = self.parse_name()
        form = grammar.forms.get(name)
        if form is None:
            self.fail("unknown %s %r" % (grammar.what, name), start)
        args = {key: context[key] for key in form.caller}
        starts = {}
        self.expect(form.brackets[:1])
        for field in form.fields:
            if field.optional and not self.text.startswith(field.sep, self.pos):
                continue
            self.expect(field.sep)
            self.expect(field.key)
            starts[field.attr] = self.pos
            args[field.attr] = self.parse_value(field.kind)
        self.expect(form.brackets[1:])
        try:
            return form.cls(**args)
        except ValueError as exc:
            self.fail(str(exc), starts.get(form.caret, start))

    def parse_value(self, kind: "_Kind"):
        values = [self.parse_item(kind)]
        while kind.many and self.match(","):
            values.append(self.parse_item(kind))
        return tuple(values) if kind.many else values[0]

    def parse_item(self, kind: "_Kind"):
        start = self.pos
        value = kind.read(self)
        if kind.unit and not 0.0 < value < 1.0:
            self.fail(kind.unit, start)
        return value


class _Kind(NamedTuple):
    """How one field value reads and prints.

    ``many`` values form a comma-separated list. A ``unit`` value must lie
    in (0, 1); otherwise ``unit`` is the message, with the caret at the number.
    """

    read: Callable
    show: Callable
    many: bool = False
    unit: str = ""


class _Field(NamedTuple):
    """``sep`` and ``key`` precede a value that becomes argument ``attr``.

    An ``optional`` field may be left out along with its separator; the
    caller's value or the class default then applies.
    """

    sep: str
    key: str
    kind: _Kind
    attr: str
    optional: bool = False


class _Form(NamedTuple):
    """A spec form: ``name``, then ``fields`` inside ``brackets`` (or none).

    ``caller`` names constructor arguments taken from the caller, not the
    text. A construction error points at field ``caret``, else at the name.
    """

    name: str
    cls: type
    brackets: str
    fields: tuple
    caller: tuple = ()
    caret: str = ""


class _Grammar:
    """The forms of one spec kind, by name for parsing and by class for text."""

    def __init__(self, what: str, *forms: _Form):
        self.what = what
        self.forms = {form.name: form for form in forms}
        self.by_class = {form.cls: form for form in forms}


_REAL = _Kind(_Parser.parse_real, fmt_real)
_INT = _Kind(_Parser.parse_int, fmt_int)
_COMPLEX = _Kind(_Parser.parse_complex, fmt_complex)
_COMPLEXES = _COMPLEX._replace(many=True)
_RADII = _REAL._replace(many=True, unit="grid radius must lie in (0, 1)")
_RMAX = _REAL._replace(unit="rmax must lie in (0, 1)")
# A symbol inside a kernel is always checked to be a Schur function.
_FUNCTION = _Kind(
    lambda p: p.parse_form(_FUNCTIONS, unit_ball_check=True),
    lambda f: format_function(f),
)
_KERNEL = _Kind(lambda p: p.parse_form(_KERNELS), lambda k: format_kernel(k))
_OPERANDS = (_Field("", "", _KERNEL, "left"), _Field(",", "", _KERNEL, "right"))

_FUNCTIONS = _Grammar(
    "function",
    _Form("blaschke", fn.BlaschkeProduct, "[]", (
        _Field("", "", _COMPLEXES, "zeros"),
        _Field(";", "c=", _COMPLEX, "unimodular_constant", optional=True))),
    _Form("atomic", fn.AtomicSingularInner, "[]", (
        _Field("", "sigma=", _REAL, "mass"),
        _Field(",", "xi=", _COMPLEX, "boundary_atom"))),
    _Form("poly", fn.TaylorPolynomial, "[]", (
        _Field("", "", _COMPLEXES, "coefficients"),), caller=("unit_ball_check",)),
    _Form("const", fn.ConstantFunction, "[]", (
        _Field("", "", _COMPLEX, "value"),), caller=("unit_ball_check",)),
)

_KERNELS = _Grammar(
    "kernel",
    _Form("szego", kx.Szego, "", ()),
    _Form("bergman", kx.WeightedBergman, "[]", (_Field("", "alpha=", _REAL, "alpha"),)),
    _Form("dbr", kx.DBR, "[]", (_Field("", "b=", _FUNCTION, "b"),)),
    _Form("subbergman", kx.SubBergman, "[]", (
        _Field("", "b=", _FUNCTION, "b"), _Field(",", "alpha=", _REAL, "alpha"))),
    _Form("sum", kx.Sum, "()", _OPERANDS),
    _Form("schur", kx.SchurProduct, "()", _OPERANDS),
    _Form("scale", kx.Scale, "()", (
        _Field("", "", _REAL, "factor"), _Field(",", "", _KERNEL, "operand")),
        caret="factor"),
    _Form("diff", kx.Difference, "()", _OPERANDS),
    _Form("cscale", kx.ConjugateScale, "()", (
        _Field("", "", _FUNCTION, "func"), _Field(",", "", _KERNEL, "operand"))),
)

_GRIDS = _Grammar(
    "grid",
    _Form("radial", kx.RadialGrid, "[]", (
        _Field("", "", _RADII, "radii"), _Field(";", "angles=", _INT, "angles"))),
    _Form("random", kx.RandomGrid, "[]", (
        _Field("", "n=", _INT, "count"),
        _Field(",", "rmax=", _RMAX, "rmax"),
        _Field(",", "seed=", _INT, "seed", optional=True)), caller=("seed",)),
)


def _parse(text: str, grammar: _Grammar, **context):
    parser = _Parser(text)
    out = parser.parse_form(grammar, **context)
    parser.expect_end()
    return out


def _format(grammar: _Grammar, obj) -> str:
    form = grammar.by_class.get(type(obj))
    if form is None:
        raise TypeError("cannot format %r as a %s spec" % (obj, grammar.what))
    parts = [form.name, form.brackets[:1]]
    for field in form.fields:
        value = getattr(obj, field.attr)
        values = value if field.kind.many else (value,)
        parts += [field.sep, field.key, ",".join(map(field.kind.show, values))]
    return "".join(parts) + form.brackets[1:]


def parse_function(text: str, schur: bool = True):
    """Parse a function spec; ``schur=False`` drops the unit-ball checks.

    Blaschke products and atomic inner functions are Schur functions either
    way; ``poly`` and ``const`` then admit any finite coefficients.
    """
    return _parse(text, _FUNCTIONS, unit_ball_check=schur)


def parse_kernel(text: str):
    return _parse(text, _KERNELS)


def parse_grid(text: str, default_seed: int = 0):
    return _parse(text, _GRIDS, seed=default_seed)


def format_function(f) -> str:
    return _format(_FUNCTIONS, f)


def format_kernel(kernel) -> str:
    return _format(_KERNELS, kernel)


def format_grid(spec) -> str:
    return _format(_GRIDS, spec)


def point_set_obj(points: kx.PointSet) -> dict:
    """Grid object embedded in JSON reports."""
    return {"spec": points.provenance, "size": len(points)}
