"""Moyal star product on Grassmann variables, and the standard-ordered product.

The star product deforms the wedge product by single metric contractions:
left multiplication by a generator is xi^i * (-) = xi^i ^ (-)
- (1/2) eta^ij d_{xi^j} (-), extended associatively to wedge monomials.
Even variables (x, p) and the scalar ring act as central coefficients.
The generators then obey xi^i * xi^j + xi^j * xi^i = -eta^ij, i.e. the
star algebra is the Clifford algebra in the c-normalisation c^i = xi^i,
with the conventional gamma matrices gamma^i = sqrt2 * c^i.

Because eta is diagonal, the product of two xi words is one signed word:
xi^A * xi^B = (-1)^inv(A,B) prod_{i in A & B} (-eta^ii/2) xi^(A ^ B),
where inv(A, B) counts the pairs a in A, b in B with a > b.  On masks the
sign is the parity of popcount(B & _odd_above(A)) plus the number of
shared indices with eta^ii = +1, and the factor is 2^-popcount(A & B).

The standard-ordered product F o G = sum_gamma h^|gamma|/gamma!
(d_p^gamma F) * (d_x^gamma G) composes spinor differential operators
written as normal-order symbols, where x^a p^b xi^I stands for
x^a c^I (h d_x)^b.  Both products run one shared loop over the product
rows of F and the flat term table of G; the standard product also
reads, for each pair, the cached table of contractions of its packed
p- and x-exponents, built from the even Leibniz splits that
``SuperDiffOp.compose`` reads too.  That cache lives for the whole
process; n and the degrees met bound its keys.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .superpoly import Signature, SuperPolynomial, _overflow, _slot_leibniz, guard_mask, product_rows, slot_sum


@lru_cache(maxsize=None)
def _contractions(pexp: int, xexp: int):
    """(pexp - g, xexp - g, |g|, C(pexp, g) xexp!/(xexp - g)!) for g <= pexp, xexp.

    The exponents are packed, and the factor of each g is h^|g| times the
    integer in the last place.  g = 0 comes first.  A larger g
    differentiates x^xexp past its degree.  These are the Leibniz splits
    of d^pexp past x^xexp with gain pexp - g, listed in reverse.
    """
    order = slot_sum(pexp)
    return tuple(
        (gain, rest, order - slot_sum(gain), factor)
        for rest, gain, factor in reversed(_slot_leibniz(pexp, xexp))
    )


def star_mul(F: SuperPolynomial, G: SuperPolynomial, sig: Signature) -> SuperPolynomial:
    """Star product F * G; even variables and scalars of both factors are central."""
    return _product(F, G, sig, contract=False)


def standard_mul(F: SuperPolynomial, G: SuperPolynomial, sig: Signature) -> SuperPolynomial:
    """Standard-ordered product: the symbol of the composition of the two operators."""
    return _product(F, G, sig, contract=True)


def _product(F: SuperPolynomial, G: SuperPolynomial, sig: Signature, contract: bool):
    """Sum over the term pairs of F and G, and over their contractions if contract."""
    n = F.n
    if n != G.n or n != sig.n:
        raise ValueError("dimension mismatch")
    guard = guard_mask(n)
    positive = (1 << sig.p) - 1  # the xi^i with eta^ii = +1
    terms: dict = {}
    get = terms.get
    right_items = G._terms.items()
    for x1, p1, m1, odd1, h1, row, c1 in product_rows(F._terms):
        for (x2, p2, m2, h2, q2), c2 in right_items:
            f, part = row[q2]
            base = c1 * c2 if f == 1 else c1 * c2 * f
            shared = m1 & m2
            odd = ((m2 & odd1).bit_count() + (shared & positive).bit_count()) & 1
            if shared:
                scale = 1 << shared.bit_count()
                base = Fraction(base, -scale if odd else scale)
            elif odd:
                base = -base
            word = m1 ^ m2
            hbase = h1 + h2
            table = _contractions(p1, x2) if contract else ((p1, x2, 0, 1),)
            for p_rest, x_rest, order, factor in table:
                xp = x1 + x_rest
                pp = p_rest + p2
                if (xp | pp) & guard:
                    raise _overflow()
                key = (xp, pp, word, hbase + order, part)
                c = base * factor if factor != 1 else base
                acc = get(key)
                if acc is not None:
                    c = acc + c
                    if not c:
                        del terms[key]
                        continue
                if type(c) is not int and c.denominator == 1:
                    c = c.numerator
                terms[key] = c
    return SuperPolynomial._wrap(n, terms)
