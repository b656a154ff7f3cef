"""Moyal star product on Grassmann variables, and the standard-ordered product.

The star product deforms the wedge product by single metric contractions:
left multiplication by a generator is xi^i * (-) = xi^i ^ (-)
- (1/2) eta^ij d_{xi^j} (-), extended associatively to wedge monomials.
Even variables (x, p) and the scalar ring act as central coefficients.
The generators then obey xi^i * xi^j + xi^j * xi^i = -eta^ij, i.e. the
star algebra is the Clifford algebra in the c-normalisation c^i = xi^i,
with the conventional gamma matrices gamma^i = sqrt2 * c^i.

The standard-ordered product F o G = sum_gamma h^|gamma|/gamma!
(d_p^gamma F) * (d_x^gamma G) composes spinor differential operators
written as normal-order symbols, where x^a p^b xi^I stands for
x^a c^I (h d_x)^b.  Both products read the Clifford product of each pair
of xi-words from one cached table, in one shared loop.  The caches live
for the whole process; n and the degrees met bound their keys.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb, perm, prod
from operator import add, sub

from .coeff import Scalar
from .superpoly import Signature, SuperPolynomial


def star_left_generator(index: int, G: SuperPolynomial, sig: Signature) -> SuperPolynomial:
    """xi^index * G by one wedge plus one contraction."""
    wedge = SuperPolynomial.var_xi(G.n, index) * G
    contraction = G.derive("xi", index).scale(Fraction(-1, 2) * sig.eta(index))
    return wedge + contraction


@lru_cache(maxsize=None)
def _word_product(
    left: tuple[int, ...], right: tuple[int, ...], sig: Signature
) -> tuple[tuple[tuple[int, ...], Scalar], ...]:
    """xi^left * xi^right as (word, coefficient) pairs, by star_left_generator."""
    value = SuperPolynomial.monomial(sig.n, xi=right)
    for index in reversed(left):
        value = star_left_generator(index, value, sig)
    return tuple((word, coeff) for (_x, _p, word), coeff in value._terms.items())


@lru_cache(maxsize=None)
def _contractions(pexp: tuple[int, ...], xexp: tuple[int, ...]):
    """(pexp - g, xexp - g, |g|, h^|g| C(pexp, g) xexp!/(xexp - g)!) for g <= pexp, xexp.

    g = 0 comes first.  A larger g differentiates x^xexp past its degree.
    """
    box = product(*(range(min(a, b) + 1) for a, b in zip(pexp, xexp)))
    return tuple(
        (tuple(map(sub, pexp, g)), tuple(map(sub, xexp, g)), sum(g),
         Scalar.h(sum(g), prod(map(comb, pexp, g)) * prod(map(perm, xexp, g))))
        for g in box
    )


def star_mul(F: SuperPolynomial, G: SuperPolynomial, sig: Signature) -> SuperPolynomial:
    """Star product F * G; even variables and scalars of both factors are central."""
    return _product(F, G, sig, contract=False)


def standard_mul(F: SuperPolynomial, G: SuperPolynomial, sig: Signature) -> SuperPolynomial:
    """Standard-ordered product: the symbol of the composition of the two operators."""
    return _product(F, G, sig, contract=True)


def _product(F: SuperPolynomial, G: SuperPolynomial, sig: Signature, contract: bool):
    """Sum over the term pairs of F and G, and over their contractions if contract."""
    if F.n != G.n or F.n != sig.n:
        raise ValueError("dimension mismatch")
    terms: dict = {}
    right_items = G._terms.items()
    for (x1, p1, xi1), c1 in F._terms.items():
        for (x2, p2, xi2), c2 in right_items:
            words = _word_product(xi1, xi2, sig)
            if not words:
                continue
            base = c1 * c2
            table = _contractions(p1, x2) if contract else ((p1, x2, 0, None),)
            for p_rest, x_rest, order, factor in table:
                xexp, pexp = tuple(map(add, x1, x_rest)), tuple(map(add, p_rest, p2))
                coeff = base * factor if order else base
                for word, scalar in words:
                    key = (xexp, pexp, word)
                    contribution = coeff * scalar
                    acc = terms.get(key)
                    if acc is None:
                        terms[key] = contribution
                        continue
                    acc = acc + contribution
                    if acc:
                        terms[key] = acc
                    else:
                        del terms[key]
    return SuperPolynomial._wrap(F.n, terms)
