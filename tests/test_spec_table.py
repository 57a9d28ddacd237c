"""Each spec form is one row of a grammar table in ``specs``.

One walker parses from the rows and one formats from them. The parser and
formatters below are the per-form branches and ``isinstance`` ladders that
``specs`` used before, kept verbatim as the reference; the grid ladder
inlines the ``canonical()`` methods the grid classes had then. One edit is
mended in both: ``parse_complex`` reads a sign only when one is there, since
``peek()`` returns "" at the end of the text and ``"" in "+-"`` holds. On a
seeded corpus of valid specs and of character edits to them, both sides must
give an equal object with equal canonical text, the same caret diagnostic,
or the same exception type and message."""

import math
import random
import re
import typing

import pytest

from diskkernels import functions as fn
from diskkernels import kernels as kx
from diskkernels import specs
from diskkernels.formatting import fmt_complex, fmt_int, fmt_real
from diskkernels.specs import SpecParseError

_NUM = re.compile(r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_DIGITS = re.compile(r"[+-]?\d+")
_NAME = re.compile(r"[a-z][a-z0-9_]*")
_BINARY = {"sum": kx.Sum, "schur": kx.SchurProduct, "diff": kx.Difference}


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
    if isinstance(spec, kx.RadialGrid):
        radii = ",".join(fmt_real(r) for r in spec.radii)
        return "radial[%s;angles=%s]" % (radii, fmt_int(spec.angles))
    if isinstance(spec, kx.RandomGrid):
        return "random[n=%s,rmax=%s,seed=%s]" % (
            fmt_int(spec.count),
            fmt_real(spec.rmax),
            fmt_int(spec.seed),
        )
    raise TypeError("cannot format %r as a grid spec" % (spec,))


# Every form once, with parameters its class refuses as well as valid ones.
FORMS = [
    "blaschke[0.5]", "blaschke[0,0;c=1]", "blaschke[0.3,0.5i;c=-1i]",
    "blaschke[0.3-0.2i;c=0.6+0.8i]", "blaschke[1.5]", "blaschke[0.5;c=2]",
    "atomic[sigma=1,xi=1]", "atomic[sigma=0.5,xi=-1i]", "atomic[sigma=-1,xi=1]",
    "atomic[sigma=1,xi=2]",
    "poly[0,0.5]", "poly[0.5,0.3]", "poly[1,1]", "poly[1e308,1e308]", "poly[-0,0.25i]",
    "const[0.25]", "const[-0.5i]", "const[2]", "const[1e400]",
    "szego", "bergman[alpha=0]", "bergman[alpha=-1]", "bergman[alpha=-2]",
    "dbr[b=blaschke[0.5;c=1]]", "dbr[b=poly[2]]",
    "subbergman[b=blaschke[0,0;c=1],alpha=0]", "subbergman[b=const[0.5],alpha=-1]",
    "sum(szego,bergman[alpha=1])", "schur(szego,szego)",
    "diff(scale(2,szego),subbergman[b=atomic[sigma=1,xi=1],alpha=1])",
    "scale(-1,szego)", "scale(1e400,szego)", "scale(0.5,bergman[alpha=-3])",
    "cscale(poly[0.5,0.5],szego)", "cscale(const[3],szego)",
    "radial[0.5;angles=8]", "radial[0.2,0.4,0.9;angles=16]", "radial[1.5;angles=4]",
    "radial[0.5,0.5;angles=4]", "radial[0.5;angles=0]", "radial[0.5;angles=2.5]",
    "radial[0.5;angles=100000]", "radial[0.5;angles=1e400]",
    "random[n=10,rmax=0.5]", "random[n=10,rmax=0.5,seed=7]", "random[n=0,rmax=0.5]",
    "random[n=4,rmax=1]", "random[n=4,rmax=0.5,seed=-1]",
    "random[n=4,rmax=0.5,seed=9007199254740993]", "random[n=1000000000,rmax=0.5]",
    "", "nope", "szego(", "sum(szego)", "poly[]", "radial[;angles=4]",
]
ALPHABET = "[](),;=.+-ie0123456789abcdgilmnoprstxyz"
EDITS = 10_500


def _corpus():
    """FORMS and EDITS seeded one-character insertions, deletions and replacements."""
    rng = random.Random(20180)
    texts = list(FORMS)
    for _ in range(EDITS):
        text = rng.choice(FORMS) or "szego"
        i = rng.randrange(len(text) + 1)
        op = rng.randrange(3)
        if op == 0:
            text = text[:i] + rng.choice(ALPHABET) + text[i:]
        elif op == 1:
            text = text[:i] + text[i + 1:]
        else:
            text = text[:i] + rng.choice(ALPHABET) + text[i + 1:]
        texts.append(text)
    return texts


CORPUS = _corpus()

# (name, table parser, reference parser, table formatter, reference formatter, options)
READINGS = [
    ("function", specs.parse_function, parse_function,
     specs.format_function, format_function, {}),
    ("function, no Schur check", specs.parse_function, parse_function,
     specs.format_function, format_function, {"schur": False}),
    ("kernel", specs.parse_kernel, parse_kernel, specs.format_kernel, format_kernel, {}),
    ("grid", specs.parse_grid, parse_grid, specs.format_grid, format_grid, {}),
    ("grid, seed 7", specs.parse_grid, parse_grid, specs.format_grid, format_grid,
     {"default_seed": 7}),
]


def _outcome(parse, fmt, text, options):
    try:
        value = parse(text, **options)
    except SpecParseError as exc:
        return "diagnostic", exc.diagnostic()
    except Exception as exc:  # any other error must match in type and message
        return "error", type(exc), str(exc)
    return "value", value, fmt(value)


@pytest.mark.parametrize("reading", READINGS, ids=[r[0] for r in READINGS])
def test_table_matches_reference_on_the_corpus(reading):
    _, parse, ref_parse, fmt, ref_fmt, options = reading
    parsed = 0
    for text in CORPUS:
        ours = _outcome(parse, fmt, text, options)
        assert ours == _outcome(ref_parse, ref_fmt, text, options), text
        parsed += ours[0] == "value"
    assert parsed >= 50


def test_corpus_is_large_and_reaches_every_form():
    assert len(CORPUS) >= len(FORMS) + 10_000
    names = {_NAME.match(text).group(0) for text in FORMS if text}
    for grammar in (specs._FUNCTIONS, specs._KERNELS, specs._GRIDS):
        assert set(grammar.forms) <= names


def _formatted(fmt, obj):
    try:
        return "text", fmt(obj)
    except TypeError as exc:
        return "error", str(exc)


@pytest.mark.parametrize(
    "obj",
    [kx.Szego(), fn.ConstantFunction(0.5), kx.RadialGrid((0.5,), 4), object(), 1.5],
    ids=["kernel", "function", "grid", "object", "float"],
)
def test_formatting_another_kind_gives_the_same_text_or_error(obj):
    for fmt, ref_fmt in [
        (specs.format_function, format_function),
        (specs.format_kernel, format_kernel),
        (specs.format_grid, format_grid),
    ]:
        assert _formatted(fmt, obj) == _formatted(ref_fmt, obj)


@pytest.mark.parametrize(
    "grammar, union",
    [
        (specs._FUNCTIONS, fn.SchurFunction),
        (specs._KERNELS, kx.KernelExpr),
        (specs._GRIDS, kx.GridSpec),
    ],
)
def test_every_class_has_exactly_one_form(grammar, union):
    classes = [form.cls for form in grammar.forms.values()]
    assert sorted(classes, key=repr) == sorted(typing.get_args(union), key=repr)


def test_module_docstring_names_the_table_forms():
    doc = specs.__doc__
    sections = re.split(r"\n\s*(funcspec|kernelspec|gridspec)\s*:=", doc)
    named = {
        label: re.findall(r"(?:^|\|)\s*([a-z]+)", body.split("\n\n")[0], re.M)
        for label, body in zip(sections[1::2], sections[2::2])
    }
    assert named["funcspec"] == list(specs._FUNCTIONS.forms)
    assert named["kernelspec"] == list(specs._KERNELS.forms)
    assert named["gridspec"] == list(specs._GRIDS.forms)
