"""Fuzz the spec grammar with strings built from its own tokens.

Numbers include huge, tiny, negative, non-integral and non-finite spellings,
so range checks, integer reads and constructor checks are all reached. Each
parser either returns or raises SpecParseError, with no other exception and
no warning, and whatever it returns formats to text that parses back to an
equal value. A parsed grid of at most 64 points is also sampled.
"""

import warnings

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from diskkernels.kernels import sample_grid
from diskkernels.specs import (
    SpecParseError,
    format_function,
    format_grid,
    format_kernel,
    parse_function,
    parse_grid,
    parse_kernel,
)

NUMBER_TOKENS = [
    "0", "-0", "0.5", "-0.5", ".3", "1.", "1", "-1", "2", "8", "0.99", "1e-3",
    "1e2", "2.5", "1e308", "-1e308", "1e400", "-1e400", "1e-400", "5e-324",
    "9007199254740993", "-9007199254740993", "1" + "0" * 400,
    "nan", "inf", "-inf", "1e", "--1", "+1",
]

numbers = st.one_of(
    st.sampled_from(NUMBER_TOKENS),
    st.integers(min_value=-(10**20), max_value=10**20).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
)

complexes = st.one_of(
    numbers,
    numbers.map(lambda x: x + "i"),
    st.tuples(numbers, st.sampled_from("+-"), numbers).map(lambda t: "".join(t) + "i"),
)


def slot(valid, invalid=numbers):
    """A value the constructor accepts, or any number, with equal odds."""
    return st.one_of(valid, invalid)


def reals(lo, hi):
    return st.floats(min_value=lo, max_value=hi, exclude_min=True, exclude_max=True).map(repr)


def listed(items, max_size=3):
    return st.lists(items, min_size=1, max_size=max_size).map(",".join)


UNIMODULAR = st.sampled_from(["1", "-1", "1i", "-1i", "0.6+0.8i", "-0.8-0.6i"])
IN_DISK = st.one_of(
    reals(-0.9, 0.9),
    reals(-0.9, 0.9).map(lambda x: x + "i"),
    st.tuples(reals(-0.6, 0.6), reals(0.0, 0.6)).map(lambda t: "%s+%si" % t),
)

functions = st.one_of(
    st.tuples(
        listed(slot(IN_DISK, complexes)),
        st.one_of(st.just(""), slot(UNIMODULAR, complexes).map(";c=".__add__)),
    ).map(lambda t: "blaschke[%s%s]" % t),
    st.tuples(slot(reals(0.0, 5.0)), slot(UNIMODULAR, complexes)).map(
        lambda t: "atomic[sigma=%s,xi=%s]" % t
    ),
    listed(slot(reals(-0.3, 0.3), complexes)).map("poly[%s]".__mod__),
    slot(reals(-1.0, 1.0), complexes).map("const[%s]".__mod__),
)

kernels = st.recursive(
    st.one_of(
        st.just("szego"),
        slot(reals(-1.0, 3.0)).map("bergman[alpha=%s]".__mod__),
        functions.map("dbr[b=%s]".__mod__),
        st.tuples(functions, slot(reals(0.0, 3.0))).map(
            lambda t: "subbergman[b=%s,alpha=%s]" % t
        ),
    ),
    lambda inner: st.one_of(
        st.tuples(st.sampled_from(["sum", "schur", "diff"]), inner, inner).map(
            lambda t: "%s(%s,%s)" % t
        ),
        st.tuples(slot(reals(0.0, 4.0)), inner).map(lambda t: "scale(%s,%s)" % t),
        st.tuples(functions, inner).map(lambda t: "cscale(%s,%s)" % t),
    ),
    max_leaves=4,
)

# Python refuses to read an integer of more than 4300 digits.
counts = slot(
    st.integers(min_value=1, max_value=4096).map(str),
    st.one_of(numbers, st.just("9" * 4301)),
)

grids = st.one_of(
    st.tuples(listed(slot(reals(0.0, 1.0))), counts).map(
        lambda t: "radial[%s;angles=%s]" % t
    ),
    st.tuples(
        counts, slot(reals(0.0, 1.0)), st.one_of(st.just(""), counts.map(",seed=".__add__))
    ).map(lambda t: "random[n=%s,rmax=%s%s]" % t),
)

# One spec in four is cut short or has a stray token spliced in, so
# truncated and malformed text reaches the parsers as well.
STRAY = st.sampled_from(["", "[", "]", "(", ")", ",", ";", "=", "i", "x", "1e400", "-"])


@st.composite
def mangled(draw, specs):
    text = draw(specs)
    if draw(st.integers(min_value=0, max_value=3)):
        return text
    cut = draw(st.integers(min_value=0, max_value=len(text)))
    return text[:cut] + draw(STRAY) + text[cut + draw(st.integers(0, 2)):]


FUZZ = settings(
    max_examples=150,
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def parse_or_none(parser, text, **kwargs):
    """The parsed value, or None on SpecParseError; warnings are errors."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return parser(text, **kwargs)
        except SpecParseError:
            return None


@FUZZ
@given(mangled(kernels))
def test_kernel_specs_parse_or_diagnose_and_round_trip(text):
    kernel = parse_or_none(parse_kernel, text)
    if kernel is not None:
        assert parse_kernel(format_kernel(kernel)) == kernel


@FUZZ
@given(mangled(functions), st.booleans())
def test_function_specs_parse_or_diagnose_and_round_trip(text, schur):
    f = parse_or_none(parse_function, text, schur=schur)
    if f is not None:
        assert parse_function(format_function(f), schur=schur) == f


@FUZZ
@given(mangled(grids))
def test_grid_specs_parse_or_diagnose_and_round_trip(text):
    grid = parse_or_none(parse_grid, text)
    if grid is not None:
        assert parse_grid(format_grid(grid)) == grid
        # Small grids are sampled too, so a tiny rmax or radius reaches the
        # sampler: it returns, or refuses points too close to keep apart.
        if grid.size <= 64:
            try:
                points = sample_grid(grid)
            except ValueError as exc:
                assert "coincident" in str(exc) or "draws were refused" in str(exc)
            else:
                assert len(points) == grid.size
