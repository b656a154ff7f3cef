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
of xi-words from one cached table keyed by their xi masks, in one shared
loop over the flat term tables of superpoly; the standard product also
reads, for each pair, the cached table of contractions of its packed
p- and x-exponents, built from the even Leibniz splits that
``SuperDiffOp.compose`` reads too.  The caches live for the whole
process; n and the degrees met bound their keys.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .coeff import _PART_MUL
from .superpoly import Signature, SuperPolynomial, _overflow, _slot_leibniz, guard_mask, slot_sum, xi_word


def star_left_generator(index: int, G: SuperPolynomial, sig: Signature) -> SuperPolynomial:
    """xi^index * G by one wedge plus one contraction."""
    wedge = SuperPolynomial.var_xi(G.n, index) * G
    contraction = G.derive("xi", index).scale(Fraction(-1, 2) * sig.eta(index))
    return wedge + contraction


@lru_cache(maxsize=None)
def _word_product(left: int, right: int, sig: Signature) -> tuple[tuple[int, int, int, object], ...]:
    """xi^left * xi^right for two xi masks, as flat (mask, hpow, part, rational) entries."""
    value = SuperPolynomial.monomial(sig.n, xi=xi_word(right))
    for index in reversed(xi_word(left)):
        value = star_left_generator(index, value, sig)
    return tuple((m, h, q, c) for (_x, _p, m, h, q), c in value._terms.items())


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
    terms: dict = {}
    get = terms.get
    right_items = G._terms.items()
    for (x1, p1, m1, h1, q1), c1 in F._terms.items():
        row = _PART_MUL[q1]
        for (x2, p2, m2, h2, q2), c2 in right_items:
            words = _word_product(m1, m2, sig)
            if not words:
                continue
            f, part = row[q2]
            base = c1 * c2 if f == 1 else c1 * c2 * f
            hbase = h1 + h2
            wrow = _PART_MUL[part]
            table = _contractions(p1, x2) if contract else ((p1, x2, 0, 1),)
            for p_rest, x_rest, order, factor in table:
                xp = x1 + x_rest
                pp = p_rest + p2
                if (xp | pp) & guard:
                    raise _overflow()
                coeff = base * factor if factor != 1 else base
                hpow = hbase + order
                for word, wh, wq, wc in words:
                    f2, q = wrow[wq]
                    key = (xp, pp, word, hpow + wh, q)
                    c = coeff * wc if f2 == 1 else coeff * wc * f2
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
