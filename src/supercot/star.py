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
x^a c^I (h d_x)^b.  Both products run one shared loop over the term
pairs of F and G; the standard product also reads, for each pair, the
cached table of contractions of its packed p- and x-exponents, built
from the even Leibniz splits that ``SuperDiffOp.compose`` reads too.
That cache lives for the whole process; n and the degrees met bound its
keys.  A result key is the sum of the two term keys, less the shared
indices twice in the mask and with the product's part, plus the key
delta of the contraction.

``standard_commutator`` gives F o G - (-1)^(|F||G|) G o F from the same
loop.  Of a term pair, the juxtaposition split (gamma = 0) of G o F is
the one of F o G times (-1)^(|F||G|) (-1)^(number of shared indices),
as two xi words anticommute past each other except at shared indices.
So it survives only when the two words share an odd number of indices,
and then counts twice; the gamma >= 1 contractions run in both orders.
"""

from __future__ import annotations

from functools import lru_cache

from .superpoly import (
    _BIASED, _PART_ROWS, _SLOT_MASK, H_SHIFT, MASK_SHIFT, SLOT_BITS, Signature, SuperPolynomial, _odd_above,
    _overflow, _slot_leibniz, divided, guard_mask, integral, mask_field, slot_sum, x_shift,
)


@lru_cache(maxsize=None)
def _contractions(n: int, pexp: int, xexp: int):
    """(gamma, key delta, C(pexp, gamma) xexp!/(xexp - gamma)!) for gamma <= pexp, xexp.

    The exponents are packed, and the factor of each gamma is h^|gamma|
    times the integer in the last place: the key delta lowers the x and p
    slots by gamma and raises the h slot by |gamma|.  gamma = 0 comes
    first.  A larger gamma differentiates x^xexp past its degree.  These
    are the Leibniz splits of d^pexp past x^xexp with gain pexp - gamma,
    listed in reverse.
    """
    xs = x_shift(n)
    ps = xs + SLOT_BITS * n
    out = []
    for _rest, gain, factor in reversed(_slot_leibniz(pexp, xexp)):
        gamma = pexp - gain
        out.append((gamma, (slot_sum(gamma) << H_SHIFT) - (gamma << xs) - (gamma << ps), factor))
    return tuple(out)


_JUXTAPOSITION = ((0, 0, 1),)


def _support(packed: int) -> int:
    """All ones in each nonzero slot of a packed exponent vector."""
    out, slot = 0, _SLOT_MASK
    while packed:
        if packed & _SLOT_MASK:
            out |= slot
        packed >>= SLOT_BITS
        slot <<= SLOT_BITS
    return out


def star_mul(F: SuperPolynomial, G: SuperPolynomial, sig: Signature) -> SuperPolynomial:
    """Star product F * G; even variables and scalars of both factors are central."""
    return _products(F, G, sig, ((False, False, 1, 1),))


def standard_mul(F: SuperPolynomial, G: SuperPolynomial, sig: Signature) -> SuperPolynomial:
    """Standard-ordered product: the symbol of the composition of the two operators."""
    return _products(F, G, sig, ((False, True, 1, 1),))


def standard_commutator(F: SuperPolynomial, G: SuperPolynomial, sig: Signature) -> SuperPolynomial:
    """F o G - (-1)^(|F||G|) G o F for the standard-ordered product, in one result table.

    The sign reads F's parity, and G's only when F is odd; ValueError if
    one it reads is inhomogeneous.
    """
    sign = -1 if F.parity() and G.parity() else 1
    return _products(F, G, sig, ((False, True, 2, 1), (True, True, 0, -sign)))


def _products(F: SuperPolynomial, G: SuperPolynomial, sig: Signature, passes: tuple) -> SuperPolynomial:
    """The sum of ``_product`` over passes of (swap, contract, juxtaposition, sign).

    The sum runs in int arithmetic: each operand is scaled by the least
    common multiple of its denominators, and each product by 2^shift over
    2^(shared indices) instead of 1 over 2^(shared indices), shift bounding
    the shared indices; the result is divided back once.
    """
    n = F.n
    if n != G.n or n != sig.n:
        raise ValueError("dimension mismatch")
    left, dF = integral(F._terms)
    right, dG = integral(G._terms)
    field = mask_field(n)
    words_F = words_G = 0
    for key in left:
        words_F |= key
    for key in right:
        words_G |= key
    shift = (words_F & words_G & field).bit_count()
    terms: dict = {}
    for swap, contract, juxtaposition, sign in passes:
        first, second = (right, left) if swap else (left, right)
        _product(terms, first, second, sig, shift, contract, juxtaposition, sign)
    return SuperPolynomial._wrap(n, divided(terms, dF * dG << shift))


def _product(
    terms: dict, left: dict, right: dict, sig: Signature, shift: int, contract: bool, juxtaposition: int,
    sign: int,
) -> None:
    """Add sign * 2^shift times left * right, or left o right if contract, into terms.

    The operands are flat tables with int values; the loop runs over their
    term pairs.  juxtaposition weights the gamma = 0 split of each pair
    when contract: 1 keeps it, 0 drops it, and 2 keeps it twice if the two
    words share an odd number of indices and drops it otherwise.
    """
    n = sig.n
    guard = guard_mask(n)
    field = mask_field(n)
    positive = ((1 << sig.p) - 1) << MASK_SHIFT  # the xi^i with eta^ii = +1
    xs = x_shift(n)
    ps, slots = xs + SLOT_BITS * n, (1 << SLOT_BITS * n) - 1
    get = terms.get
    by_x: dict = {}  # the right terms by their x exponents, which alone pick the contractions
    for k2, c2 in right.items():
        by_x.setdefault(k2 >> xs & slots if contract else 0, []).append((k2, c2))
    groups = [(x2, _support(x2), items) for x2, items in by_x.items()]
    for k1, c1 in left.items():
        q1 = k1 & 3
        base1 = k1 - q1 - _BIASED
        m1 = k1 & field
        odd1 = _odd_above(m1) & field
        parts = _PART_ROWS[q1]
        p1 = k1 >> ps & slots
        if sign < 0:
            c1 = -c1
        for x2, support, items in groups:
            reach = p1 & support  # p1 where x2 is nonzero: a contraction needs both
            table = _contractions(n, reach, x2) if reach else _JUXTAPOSITION
            if juxtaposition != 1:
                table = table[1:]
                if not table and juxtaposition == 0:
                    continue
            for k2, c2 in items:
                shared = k2 & m1
                count = shared.bit_count()
                if juxtaposition == 2:  # only an odd number of shared indices keeps gamma = 0, twice
                    splits = ((0, 0, 2),) + table if count & 1 else table
                    if not splits:
                        continue
                else:
                    splits = table
                f, dq = parts[k2 & 3]
                base = c1 * c2 * f << (shift - count)  # 2^shift times the 1/2^count of the shared indices
                if ((k2 & odd1).bit_count() + (shared & positive).bit_count()) & 1:
                    base = -base
                key0 = base1 + k2 + dq - (shared << 1)  # the word m1 ^ m2
                for _gamma, delta, factor in splits:
                    key = key0 + delta
                    acc = get(key)
                    if acc is None:  # a key past a limit is never a stored one
                        if key & guard:
                            raise _overflow()
                        terms[key] = base * factor
                        continue
                    acc += base * factor
                    if acc:
                        terms[key] = acc
                    else:
                        del terms[key]
