from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from supercot.coeff import Scalar
from supercot.parse import MAX_DEPTH, MAX_PRODUCT_TERMS, ParseError, sp_parse
from supercot.superpoly import SuperPolynomial


def test_simple_terms():
    delta = sp_parse("p1*xi1 + p2*xi2", 2)
    expect = SuperPolynomial.monomial(2, pexp=(1, 0), xi=(1,)) + SuperPolynomial.monomial(
        2, pexp=(0, 1), xi=(2,)
    )
    assert delta == expect


def test_reordering_sign():
    assert sp_parse("xi2*xi1", 2) == -SuperPolynomial.monomial(2, xi=(1, 2))


def test_scalar_factors():
    F = sp_parse("h/2 * xi1*xi2", 2)
    assert F == SuperPolynomial.monomial(2, xi=(1, 2), coeff=Scalar.h(1, Fraction(1, 2)))
    assert sp_parse("i*s", 1) == SuperPolynomial.constant(1, Scalar.i() * Scalar.sqrt2())
    assert sp_parse("h^-2", 1) == SuperPolynomial.constant(1, Scalar.h(-2))
    assert sp_parse("3/4", 1) == SuperPolynomial.constant(1, Fraction(3, 4))


def test_powers_and_parens():
    assert sp_parse("x1^2", 2) == sp_parse("x1*x1", 2)
    assert sp_parse("(1 + h)*(1 - h)", 1) == sp_parse("1 - h^2", 1)
    assert sp_parse("xi1^2", 2).is_zero()


def test_unary_minus():
    assert sp_parse("-x1 + x1", 2).is_zero()
    assert sp_parse("-(x1 - x2)", 2) == sp_parse("x2 - x1", 2)


def test_errors_carry_position():
    with pytest.raises(ParseError) as err:
        sp_parse("p1 + + p2", 2)
    assert err.value.position == 5
    with pytest.raises(ParseError):
        sp_parse("p1*", 2)
    with pytest.raises(ParseError):
        sp_parse("(p1", 2)
    with pytest.raises(ParseError):
        sp_parse("q1", 2)
    with pytest.raises(ParseError):
        sp_parse("1/0", 2)


def test_index_range_checked():
    with pytest.raises(ParseError) as err:
        sp_parse("xi3", 2)
    assert "exceeds dimension" in str(err.value)
    sp_parse("xi3", 3)


@pytest.mark.parametrize("expr", ["x0", "p0", "xi0"])
def test_index_zero_is_below_one(expr):
    with pytest.raises(ParseError) as err:
        sp_parse(expr, 2)
    assert "variable index 0 is below 1" in str(err.value)
    assert "exceeds dimension" not in str(err.value)


def test_division_restricted_to_constants():
    assert sp_parse("xi1/2", 2) == SuperPolynomial.monomial(2, xi=(1,), coeff=Fraction(1, 2))
    assert sp_parse("x1/(2*s)", 2) == sp_parse("1/4*s*x1", 2)
    with pytest.raises(ParseError):
        sp_parse("x1/p1", 2)
    with pytest.raises(ParseError):
        sp_parse("x1/(1+h)", 2)


@pytest.mark.parametrize(
    "text,value",
    [
        ("2/h", Scalar.h(-1, 2)),
        ("2/s", Scalar.sqrt2()),
        ("2/(3)", Fraction(2, 3)),
        ("2 / h", Scalar.h(-1, 2)),
        ("3/4/h", Scalar.h(-1, Fraction(3, 4))),
        ("1/2/3", Fraction(1, 6)),
    ],
)
def test_a_number_divides_like_any_factor(text, value):
    assert sp_parse(text, 2) == SuperPolynomial.constant(2, value)


def test_division_is_left_associative():
    assert sp_parse("x1/2/3", 2) == SuperPolynomial.monomial(2, xexp=(1, 0), coeff=Fraction(1, 6))


def test_division_by_zero_is_refused():
    with pytest.raises(ParseError) as err:
        sp_parse("1/0", 2)
    assert "divisor must be an invertible constant" in str(err.value)


def test_sums_cancel_and_negate_term_by_term():
    assert sp_parse("x1 - x1 + x2 - (x2 - x1)", 2) == sp_parse("x1", 2)
    assert sp_parse("-x1 - x2 + 2*x2", 2) == sp_parse("x2 - x1", 2)


def _distinct_sum(var: str, count: int) -> str:
    """A sum of count distinct quadratic monomials in var1..var20."""
    words = [f"{var}{i}*{var}{j}" for i in range(1, 21) for j in range(i, 21)]
    assert count <= len(words)
    return "(" + "+".join(words[:count]) + ")"


def test_product_size_is_bounded():
    rows = 150
    cols = MAX_PRODUCT_TERMS // rows
    assert len(sp_parse(f"{_distinct_sum('x', rows)}*{_distinct_sum('p', cols)}", 20)) == rows * cols
    text = f"{_distinct_sum('x', rows)}*{_distinct_sum('p', cols + 1)}"
    with pytest.raises(ParseError) as err:
        sp_parse(text, 20)
    assert f"exceeds the maximum {MAX_PRODUCT_TERMS}" in str(err.value)
    assert err.value.position == text.index("*(") + 1


@pytest.mark.parametrize(
    "nest,value,offending",
    [
        (lambda d: "(" * d + "x1" + ")" * d, lambda d: "x1", lambda d: d - 1),
        (lambda d: "x1*(" * d + "x1" + ")" * d, lambda d: f"x1^{d + 1}", lambda d: 4 * d - 1),
    ],
    ids=["parens", "product-chain"],
)
def test_nesting_depth_is_bounded(nest, value, offending):
    assert sp_parse(nest(MAX_DEPTH), 2) == sp_parse(value(MAX_DEPTH), 2)
    with pytest.raises(ParseError) as err:
        sp_parse(nest(MAX_DEPTH + 1), 2)
    assert f"nested deeper than the maximum {MAX_DEPTH}" in str(err.value)
    assert err.value.position == offending(MAX_DEPTH + 1)


_TOKENS = st.one_of(
    st.sampled_from(
        [f"{name}{k}" for name in ("x", "p", "xi") for k in (1, 2, 3, 4)]
        + ["y", "h", "i", "s", "+", "-", "*", "/", "^", "(", ")", "^-1", " "]
    ),
    st.integers(0, 12).map(str),
    st.tuples(st.integers(0, 12), st.integers(0, 12)).map(lambda ab: f"{ab[0]}/{ab[1]}"),
)


@settings(derandomize=True, max_examples=500, deadline=None)
@given(st.integers(1, 3), st.lists(_TOKENS, max_size=12))
def test_token_strings_are_refused_or_round_trip(n, tokens):
    """Any string of grammar tokens either raises ParseError alone or parses to F with parse(str(F)) == F."""
    text = "".join(tokens)
    try:
        F = sp_parse(text, n)
    except ParseError:
        return
    assert sp_parse(str(F), n) == F
