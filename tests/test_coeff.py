import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from supercot.coeff import Scalar


def rand_scalar(rng, h_min=0, h_max=2):
    terms = {}
    for _ in range(rng.randint(0, 4)):
        key = (rng.randint(h_min, h_max), rng.randint(0, 3))
        terms[key] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    return Scalar(terms)


def test_defining_relations():
    s, i = Scalar.sqrt2(), Scalar.i()
    assert s * s == Scalar.rational(2)
    assert i * i == Scalar.rational(-1)


def test_product_expansion():
    one, i, h = Scalar.one(), Scalar.i(), Scalar.h()
    assert (one + i * h) * (one - i * h) == one + h * h


def test_ring_axioms_randomised():
    rng = random.Random(0)
    for _ in range(1000):
        a, b, c = (rand_scalar(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a + b == b + a
        assert a * (b + c) == a * b + a * c


def test_specialize_h():
    h = Scalar.h()
    assert (h * h).specialize_h(1) == Scalar.one()
    assert (Scalar.one() + h * 3).specialize_h(0) == Scalar.one()
    assert (h * Scalar.i()).specialize_h(2) == Scalar.i() * 2
    with pytest.raises(ZeroDivisionError):
        Scalar.h(-1).specialize_h(0)
    assert Scalar.h(-1).specialize_h(Fraction(1, 2)) == Scalar.rational(2)


def test_canonical_form_idempotent():
    # building the same value along different routes gives identical terms
    v1 = Scalar.sqrt2() * Scalar.sqrt2() * Scalar.i()
    v2 = Scalar.i() + Scalar.i()
    assert v1 == v2
    assert hash(v1) == hash(v2)
    assert (v1 - v2).is_zero()


def test_inverse():
    rng = random.Random(2)
    for _ in range(100):
        v = rand_scalar(rng)
        # force a single h-power so the inverse exists
        parts = {(1, part): coeff for (_h, part), coeff in v.components().items()}
        v = Scalar(parts)
        if v.is_zero():
            continue
        assert v * v.inv() == Scalar.one()
    with pytest.raises(ZeroDivisionError):
        Scalar.zero().inv()
    with pytest.raises(ValueError):
        (Scalar.one() + Scalar.h()).inv()


def test_json_round_trip():
    rng = random.Random(3)
    for _ in range(100):
        v = rand_scalar(rng, h_min=-2)
        data = v.to_json()
        assert Scalar.from_json(data) == v
        for record in data:
            assert record["den"] > 0
            assert record["part"] in ("1", "i", "s", "is")
    assert Scalar.zero().to_json() == []


def test_str_forms():
    assert str(Scalar.zero()) == "0"
    assert str(Scalar.h(2, Fraction(1, 2)) * Scalar.i() * Scalar.sqrt2()) == "1/2*h^2*i*s"
    assert str(-Scalar.h()) == "-h"


def test_rational_scalars_hash_like_their_value():
    assert len({Scalar.rational(5), 5, Fraction(5)}) == 1
    assert len({Scalar.zero(), 0, Fraction(0)}) == 1
    assert len({Scalar.rational(Fraction(-3, 4)), Fraction(-3, 4)}) == 1
    assert hash(Scalar.h(0, 7)) == hash(7)
    table = {Scalar.rational(2): "two"}
    assert table[2] == "two" and table[Fraction(4, 2)] == "two"


# -- exactness of the int / Fraction coefficient paths ---------------------------

_BASIS = (sympy.Integer(1), sympy.I, sympy.sqrt(2), sympy.I * sympy.sqrt(2))
_H = sympy.Symbol("h")


def _to_sympy(x: Scalar):
    return sum(
        (sympy.Rational(c.numerator, c.denominator) * _H**hpow * _BASIS[part]
         for (hpow, part), c in x.components().items()),
        sympy.Integer(0),
    )


def _assert_canonical(x: Scalar):
    """Every stored value is an int, or a Fraction that is not integral; never a float."""
    for c in x._terms.values():
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), repr(c)
    for c in x.components().values():
        assert type(c) is Fraction
    for record in x.to_json():
        assert type(record["num"]) is int and type(record["den"]) is int


_coeffs = st.one_of(
    st.integers(-12, 12),
    st.fractions(min_value=-6, max_value=6, max_denominator=7),
)
_scalars = st.dictionaries(
    st.tuples(st.integers(-2, 2), st.integers(0, 3)), _coeffs, max_size=4
).map(Scalar)
_units = st.tuples(
    st.integers(-2, 2),
    st.dictionaries(st.integers(0, 3), _coeffs.filter(bool), min_size=1, max_size=4),
).map(lambda hc: Scalar({(hc[0], part): c for part, c in hc[1].items()}))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_scalars, _scalars, _scalars, st.integers(-5, 5), _coeffs)
def test_mixed_coefficients_ring_property(a, b, c, k, r):
    for x in (a, b, c, a + b, a * b, a - c, a * k, k * a, a * r, -a):
        _assert_canonical(x)
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a and a + b == b + a
    assert a * (b + c) == a * b + a * c
    assert a + Scalar.zero() == a and a * Scalar.one() == a and (a - a).is_zero()
    # the rational fast paths agree with the general product
    assert a * k == a * Scalar.rational(k) and a * r == a * Scalar.rational(r)
    # and every product agrees with an independent expansion in sympy
    assert sympy.expand(_to_sympy(a) * _to_sympy(b) - _to_sympy(a * b)) == 0
    assert sympy.expand(_to_sympy(a) + _to_sympy(b) - _to_sympy(a + b)) == 0


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_units, _scalars, st.one_of(st.integers(-3, 3).filter(bool), _coeffs.filter(bool)))
def test_mixed_coefficients_inverse_and_specialisation(u, b, value):
    inverse = u.inv()
    _assert_canonical(inverse)
    assert u * inverse == 1
    assert (b / u) * u == b
    # h := value is a ring morphism onto Q(i, sqrt2), exact for poles in h too
    for x in (u.specialize_h(value), b.specialize_h(value), (u * b).specialize_h(value)):
        _assert_canonical(x)
    assert (u * b).specialize_h(value) == u.specialize_h(value) * b.specialize_h(value)
    assert (u + b).specialize_h(value) == u.specialize_h(value) + b.specialize_h(value)
    want = _to_sympy(b).subs(_H, _to_sympy(Scalar.rational(value)))
    assert sympy.expand(want - _to_sympy(b.specialize_h(value))) == 0
