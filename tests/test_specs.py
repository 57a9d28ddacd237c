"""Round-trip and diagnostic tests for the text spec grammars."""

import pytest

from diskkernels import (
    AtomicSingularInner,
    BlaschkeProduct,
    ConstantFunction,
    Difference,
    RadialGrid,
    RandomGrid,
    Scale,
    SubBergman,
    Szego,
    TaylorPolynomial,
    WeightedBergman,
)
from diskkernels.specs import (
    SpecParseError,
    format_function,
    format_grid,
    format_kernel,
    parse_function,
    parse_grid,
    parse_kernel,
)

FUNCTION_SPECS = [
    "blaschke[0.5;c=1]",
    "blaschke[0,0;c=1]",
    "atomic[sigma=1,xi=1]",
    "atomic[sigma=0.5,xi=-1i]",
    "poly[0,0.5]",
    "const[0.25]",
]

KERNEL_SPECS = [
    "szego",
    "bergman[alpha=0]",
    "dbr[b=blaschke[0.5;c=1]]",
    "subbergman[b=blaschke[0,0;c=1],alpha=0]",
    "sum(szego,bergman[alpha=1])",
    "schur(szego,szego)",
    "diff(scale(2,szego),subbergman[b=blaschke[0,0;c=1],alpha=0])",
    "cscale(blaschke[0.5;c=1],szego)",
]

GRID_SPECS = [
    "radial[0.5;angles=8]",
    "random[n=10,rmax=0.5,seed=7]",
]


@pytest.mark.parametrize("text", FUNCTION_SPECS)
def test_function_specs_round_trip(text):
    f = parse_function(text)
    canon = format_function(f)
    assert parse_function(canon) == f
    assert format_function(parse_function(canon)) == canon


@pytest.mark.parametrize("text", KERNEL_SPECS)
def test_kernel_specs_round_trip(text):
    k = parse_kernel(text)
    canon = format_kernel(k)
    assert parse_kernel(canon) == k
    assert format_kernel(parse_kernel(canon)) == canon


@pytest.mark.parametrize("text", GRID_SPECS)
def test_grid_specs_round_trip(text):
    g = parse_grid(text)
    canon = format_grid(g)
    assert parse_grid(canon) == g
    assert format_grid(parse_grid(canon)) == canon


def test_parse_function_variants():
    assert parse_function("blaschke[0.5;c=1]") == BlaschkeProduct((0.5,), 1.0)
    assert parse_function("atomic[sigma=2,xi=1]") == AtomicSingularInner(2.0, 1.0)
    assert parse_function("poly[0,0.5]") == TaylorPolynomial((0.0, 0.5))
    assert parse_function("const[0.25]") == ConstantFunction(0.25)


def test_parse_complex_literal_forms():
    f = parse_function("blaschke[0.3+0.4i,-0.5i,0.1;c=-1]")
    assert f.zeros == (0.3 + 0.4j, -0.5j, 0.1)
    assert f.unimodular_constant == -1.0


def test_parse_kernel_tree():
    k = parse_kernel("diff(scale(2,szego),subbergman[b=blaschke[0,0;c=1],alpha=0])")
    assert k == Difference(
        Scale(2.0, Szego()), SubBergman(BlaschkeProduct((0.0, 0.0)), 0.0)
    )
    assert parse_kernel("bergman[alpha=-1]") == WeightedBergman(-1.0)


def test_parse_grid_seed_defaulting():
    # A random grid without an explicit seed picks up the caller's default.
    g = parse_grid("random[n=10,rmax=0.9]", default_seed=3)
    assert g == RandomGrid(10, 0.9, 3)
    explicit = parse_grid("random[n=10,rmax=0.9,seed=7]", default_seed=3)
    assert explicit.seed == 7
    assert parse_grid("radial[0.5;angles=8]") == RadialGrid((0.5,), 8)


def diagnostic_for(fn, text):
    with pytest.raises(SpecParseError) as info:
        fn(text)
    return info.value.diagnostic()


def test_unknown_kernel_name_points_at_token():
    diag = diagnostic_for(parse_kernel, "szegoo")
    lines = diag.splitlines()
    assert lines[0] == "szegoo"
    assert lines[1] == "^"
    assert "unknown kernel" in lines[2]


def test_bad_radius_points_at_offending_number():
    diag = diagnostic_for(parse_grid, "radial[1.5;angles=4]")
    lines = diag.splitlines()
    assert lines[1].index("^") == lines[0].index("1.5")
    assert "(0, 1)" in lines[2]


def test_bad_rmax_points_at_offending_number():
    diag = diagnostic_for(parse_grid, "random[n=10,rmax=1.5,seed=0]")
    lines = diag.splitlines()
    assert lines[1].index("^") == lines[0].index("1.5")


def test_unterminated_bracket_reports_expected_number():
    diag = diagnostic_for(parse_function, "blaschke[0.5")
    assert "expected" in diag


@pytest.mark.parametrize(
    "text", ["const[0.5", "blaschke[0.5", "atomic[sigma=1,xi=1", "blaschke[0.3,0.5i"]
)
def test_spec_cut_short_after_a_number_asks_for_the_bracket(text):
    # At the end of the text there is no sign, so no imaginary part is read.
    diag = diagnostic_for(parse_function, text)
    assert diag == "%s\n%s^\nexpected ']'" % (text, " " * len(text))


def test_trailing_garbage_rejected():
    diag = diagnostic_for(parse_kernel, "szego extra")
    assert "trailing" in diag


def test_construction_errors_surface_as_parse_errors():
    with pytest.raises(SpecParseError):
        parse_function("blaschke[2;c=1]")  # zero outside the disk
    with pytest.raises(SpecParseError):
        parse_function("poly[0,2]")  # fails unit-ball certification
    with pytest.raises(SpecParseError):
        parse_function("atomic[sigma=-1,xi=1]")
    with pytest.raises(SpecParseError):
        parse_kernel("bergman[alpha=-2]")
