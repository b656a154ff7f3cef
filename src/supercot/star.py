"""Moyal star product on Grassmann variables.

The product deforms the wedge product by single metric contractions:
left multiplication by a generator is xi^i * (-) = xi^i ^ (-)
- (1/2) eta^ij d_{xi^j} (-), extended associatively to wedge monomials.
Even variables (x, p) and the scalar ring act as central coefficients.
The generators then obey xi^i * xi^j + xi^j * xi^i = -eta^ij, i.e. the
star algebra is the Clifford algebra in the c-normalisation c^i = xi^i,
with the conventional gamma matrices gamma^i = sqrt2 * c^i.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import add

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


def star_mul(F: SuperPolynomial, G: SuperPolynomial, sig: Signature) -> SuperPolynomial:
    """Star product F * G; even variables and scalars of both factors are central.

    Each pair of xi-words is multiplied through the cached Clifford table
    of _word_product; the even parts and the coefficients multiply outside it.
    """
    if F.n != G.n or F.n != sig.n:
        raise ValueError("dimension mismatch")
    terms: dict = {}
    for (x1, p1, xi1), c1 in F._terms.items():
        for (x2, p2, xi2), c2 in G._terms.items():
            product = _word_product(xi1, xi2, sig)
            if not product:
                continue
            xexp, pexp = tuple(map(add, x1, x2)), tuple(map(add, p1, p2))
            coeff = c1 * c2
            for word, factor in product:
                key = (xexp, pexp, word)
                contribution = coeff * factor
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
