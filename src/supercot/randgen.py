"""Seeded random elements for the property suites, each built as one flat term table.

The draws go through ``rng.getrandbits`` and replay, call for call, CPython's
``randint``, ``randrange``, ``choice`` and ``sample`` (3.10-3.13): a draw below m
is getrandbits(m.bit_length()) until the result is below m, and a xi word is
``sample``'s pool algorithm, which CPython takes whenever n <= 21.  So for n up
to 21, which covers ``verify.MAX_SUITE_DIM``, a seed gives the elements, and
leaves the generator in the state, that those methods would; a larger n still
draws a uniform seeded word, but not ``sample``'s.  An empty range raises
ValueError, as those methods do.
"""

from __future__ import annotations

import random

from .superpoly import _BIASED, MASK_SHIFT, SLOT_BITS, SuperPolynomial, _h_field, add_term, x_shift


def _below(bits, m: int) -> int:
    """A draw in 0..m-1 from the getrandbits method ``bits``."""
    if m <= 0:
        raise ValueError("empty range for a random draw")
    k = m.bit_length()
    r = bits(k)
    while r >= m:
        r = bits(k)
    return r


def _word(bits, n: int, k: int) -> int:
    """The mask of k distinct xi indices out of 1..n, as rng.sample(range(1, n + 1), k) draws it for n <= 21."""
    if not 0 <= k <= n:
        raise ValueError("sample larger than population or is negative")
    pool, mask = list(range(n)), 0
    for i in range(n - 1, n - 1 - k, -1):
        size = (i + 1).bit_length()
        j = bits(size)
        while j > i:  # _below(bits, i + 1), inlined
            j = bits(size)
        mask |= 1 << pool[j]
        pool[j] = pool[i]
    return mask


def _table(n: int, draws) -> SuperPolynomial:
    """The sum of the drawn (packed x, packed p, xi mask, h power, integer) terms."""
    table: dict = {}
    xs = x_shift(n)
    ps = xs + SLOT_BITS * n
    for xp, pp, xi, hpow, coeff in draws:
        if coeff:  # the packed key of the term, as superpoly.pack_key builds it
            add_term(table, xi << MASK_SHIFT | xp << xs | pp << ps | (_h_field(hpow) if hpow else _BIASED), coeff)
    return SuperPolynomial._wrap(n, table)


def _exponents(bits, n: int, top: int) -> int:
    """n exponents drawn in 0..top, packed; each is _below(bits, top + 1), inlined."""
    m, packed = top + 1, 0
    if m <= 0 and n:
        raise ValueError("empty range for a random draw")
    k = m.bit_length()
    for s in range(0, SLOT_BITS * n, SLOT_BITS):
        r = bits(k)
        while r >= m:
            r = bits(k)
        packed |= r << s
    return packed


def _scattered(bits, n: int, count: int) -> int:
    """count units dropped into random slots, packed."""
    packed = 0
    for _ in range(count):
        packed += 1 << SLOT_BITS * _below(bits, n)
    return packed


def _coeff(bits) -> int:
    """An integer coefficient drawn in -3..3."""
    return _below(bits, 7) - 3


def random_superpoly(
    rng: random.Random,
    n: int,
    terms: int = 5,
    max_x: int = 1,
    max_p: int = 2,
    max_xi: int | None = None,
    h_max: int = 0,
) -> SuperPolynomial:
    """Random sparse polynomial with small integer coefficients."""
    if max_xi is None:
        max_xi = min(2, n)
    bits = rng.getrandbits
    return _table(n, (
        (_exponents(bits, n, max_x), _scattered(bits, n, _below(bits, max_p + 1)),
         _word(bits, n, _below(bits, max_xi + 1)), _below(bits, h_max + 1) if h_max else 0, _coeff(bits))
        for _ in range(terms)
    ))


def random_parity_homogeneous(
    rng: random.Random, n: int, parity: int, terms: int = 4, max_p: int = 2
) -> SuperPolynomial:
    """Random polynomial whose every term has Grassmann parity `parity`."""
    sizes = range(parity, n + 1, 2)
    bits = rng.getrandbits
    return _table(n, (
        (_exponents(bits, n, 1), _scattered(bits, n, _below(bits, max_p + 1)),
         _word(bits, n, sizes[_below(bits, len(sizes))]), 0, _coeff(bits))
        for _ in range(terms)
    ))


def random_xi_poly(rng: random.Random, n: int, terms: int = 5) -> SuperPolynomial:
    """Random polynomial in the Grassmann variables only."""
    bits = rng.getrandbits
    return _table(n, ((0, 0, _word(bits, n, _below(bits, n + 1)), 0, _coeff(bits)) for _ in range(terms)))


def random_xi_homogeneous(rng: random.Random, n: int, degree: int, terms: int = 4) -> SuperPolynomial:
    bits = rng.getrandbits
    return _table(n, ((0, 0, _word(bits, n, degree), 0, _coeff(bits)) for _ in range(terms)))


def random_bidegree(
    rng: random.Random, n: int, k: int, kappa: int, terms: int = 4, max_x: int = 1
) -> SuperPolynomial:
    """Random polynomial homogeneous of bidegree (k in p, kappa in xi)."""
    bits = rng.getrandbits
    return _table(n, (
        (_exponents(bits, n, max_x), _scattered(bits, n, k), _word(bits, n, kappa), 0, _coeff(bits))
        for _ in range(terms)
    ))
