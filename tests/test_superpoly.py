import random
from fractions import Fraction

import pytest

from supercot.coeff import Scalar
from supercot.parse import sp_parse
from supercot.randgen import random_parity_homogeneous, random_superpoly
from supercot.superpoly import SuperPolynomial


P2 = lambda text: sp_parse(text, 2)


def test_grassmann_product_signs():
    xi1, xi2 = SuperPolynomial.var_xi(2, 1), SuperPolynomial.var_xi(2, 2)
    assert xi1 * xi2 == SuperPolynomial.monomial(2, xi=(1, 2))
    assert xi2 * xi1 == -SuperPolynomial.monomial(2, xi=(1, 2))
    assert (xi1 * xi1).is_zero()


def test_even_factors_central():
    F = P2("x1*p1")
    G = P2("xi1*xi2")
    assert F * G == P2("x1*p1*xi1*xi2")
    assert G * F == P2("x1*p1*xi1*xi2")


def test_left_derivative():
    F = P2("xi1*xi2")
    assert F.derive("xi", 1) == P2("xi2")
    assert F.derive("xi", 2) == -P2("xi1")
    assert sp_parse("p1^2*xi3", 3).derive("p", 1) == sp_parse("2*p1*xi3", 3)
    assert sp_parse("x1^3*x2*p2 - x2", 3).derive("x", 1) == sp_parse("3*x1^2*x2*p2", 3)
    with pytest.raises(IndexError):
        F.derive("xi", 3)
    with pytest.raises(ValueError):
        F.derive("y", 1)


def test_graded_commutativity_randomised():
    rng = random.Random(4)
    for _ in range(500):
        F = random_parity_homogeneous(rng, 3, rng.randint(0, 1), terms=3)
        G = random_parity_homogeneous(rng, 3, rng.randint(0, 1), terms=3)
        sign = -1 if (F.parity() and G.parity()) else 1
        assert F * G == (G * F).scale(sign)


def test_graded_leibniz_randomised():
    rng = random.Random(5)
    for _ in range(200):
        F = random_parity_homogeneous(rng, 3, rng.randint(0, 1), terms=3)
        G = random_superpoly(rng, 3, terms=3)
        i = rng.randint(1, 3)
        sign = -1 if F.parity() else 1
        lhs = (F * G).derive("xi", i)
        rhs = F.derive("xi", i) * G + (F * G.derive("xi", i)).scale(sign)
        assert lhs == rhs


def test_xi_derivatives_anticommute():
    rng = random.Random(6)
    for _ in range(100):
        F = random_superpoly(rng, 3, terms=4, max_xi=3)
        i, j = rng.randint(1, 3), rng.randint(1, 3)
        assert F.derive("xi", i).derive("xi", j) == -F.derive("xi", j).derive("xi", i)
        assert F.derive("xi", i).derive("xi", i).is_zero()


def test_bidegrees():
    assert P2("p1*xi1 + p1*p2").bidegrees() == {(1, 1), (2, 0)}
    mixed = P2("p1*xi1 + p1*p2")
    assert mixed.bidegree_component(1, 1) == P2("p1*xi1")
    assert mixed.hamiltonian_components() == {3: P2("p1*xi1"), 4: P2("p1*p2")}


def test_parity():
    assert P2("xi1*xi2").parity() == 0
    assert P2("xi1").parity() == 1
    with pytest.raises(ValueError):
        P2("xi1 + xi1*xi2").parity()


def test_json_round_trip():
    rng = random.Random(8)
    for _ in range(100):
        F = random_superpoly(rng, 3, terms=5, h_max=2)
        assert SuperPolynomial.from_json(F.to_json()) == F


def test_print_parse_round_trip():
    rng = random.Random(9)
    for _ in range(200):
        F = random_superpoly(rng, 3, terms=5, h_max=2)
        assert sp_parse(str(F), 3) == F
    assert str(SuperPolynomial.zero(2)) == "0"
    assert sp_parse("0", 2).is_zero()


@pytest.mark.parametrize(
    "key",
    [
        ((1,), (0, 0), (2, 1)),  # short exponent tuple and unsorted xi word
        ((1, 0, 0), (0, 0), ()),  # long exponent tuple
        ((1, 0), (0, -1), ()),  # negative exponent
        ((1.0, 0), (0, 0), ()),  # float exponent
        ((Fraction(1), 0), (0, 0), ()),  # Fraction exponent
        ((True, 0), (0, 0), ()),  # bool exponent
        ((1, 0), (0, 0), (2, 1)),  # unsorted xi word
        ((1, 0), (0, 0), (1, 1)),  # repeated xi index
        ((1, 0), (0, 0), (0,)),  # xi index below 1
        ((1, 0), (0, 0), (3,)),  # xi index above n
        ((1, 0), (0, 0)),  # not a triple
    ],
)
def test_constructor_rejects_malformed_keys(key):
    with pytest.raises(ValueError):
        SuperPolynomial(2, {key: Scalar.one()})


def test_constructor_accepts_canonical_keys_and_monomial_skips_the_check():
    F = SuperPolynomial(2, {((1, 0), (0, 2), (1, 2)): Scalar.one(), ((0, 0), (0, 0), ()): Scalar.zero()})
    assert len(F) == 1 and F == sp_parse("x1*p2^2*xi1*xi2", 2)
    assert SuperPolynomial.monomial(2, (1, 0), (0, 2), (2, 1)) == -F
    assert SuperPolynomial.monomial(2, coeff=0).is_zero()
    # monomial's own check rejects what the constructor would
    for xexp in ((1.5, 0), (-1, 0), (1,)):
        with pytest.raises(ValueError):
            SuperPolynomial.monomial(2, xexp=xexp)
