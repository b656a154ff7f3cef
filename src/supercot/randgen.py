"""Seeded random elements for the property suites, each built as one flat term table."""

from __future__ import annotations

import random

from .superpoly import SLOT_BITS, SuperPolynomial, add_term, xi_mask


def _table(n: int, draws) -> SuperPolynomial:
    """The sum of the drawn (packed x, packed p, xi word, h power, integer) terms."""
    table: dict = {}
    for xp, pp, xi, hpow, coeff in draws:
        if coeff:
            add_term(table, (xp, pp, xi_mask(xi), hpow, 0), coeff)
    return SuperPolynomial._wrap(n, table)


def _exponents(rng: random.Random, n: int, top: int) -> int:
    """n exponents drawn in 0..top, packed."""
    return sum(rng.randint(0, top) << (SLOT_BITS * k) for k in range(n))


def _scattered(rng: random.Random, n: int, count: int) -> int:
    """count units dropped into random slots, packed."""
    return sum(1 << (SLOT_BITS * rng.randrange(n)) for _ in range(count))


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
    return _table(n, (
        (_exponents(rng, n, max_x), _scattered(rng, n, rng.randint(0, max_p)),
         rng.sample(range(1, n + 1), rng.randint(0, max_xi)), rng.randint(0, h_max) if h_max else 0,
         rng.randint(-3, 3))
        for _ in range(terms)
    ))


def random_parity_homogeneous(
    rng: random.Random, n: int, parity: int, terms: int = 4, max_p: int = 2
) -> SuperPolynomial:
    """Random polynomial whose every term has Grassmann parity `parity`."""
    sizes = range(parity, n + 1, 2)
    return _table(n, (
        (_exponents(rng, n, 1), _scattered(rng, n, rng.randint(0, max_p)),
         rng.sample(range(1, n + 1), rng.choice(sizes)), 0, rng.randint(-3, 3))
        for _ in range(terms)
    ))


def random_xi_poly(rng: random.Random, n: int, terms: int = 5) -> SuperPolynomial:
    """Random polynomial in the Grassmann variables only."""
    return _table(n, (
        (0, 0, rng.sample(range(1, n + 1), rng.randint(0, n)), 0, rng.randint(-3, 3))
        for _ in range(terms)
    ))


def random_xi_homogeneous(rng: random.Random, n: int, degree: int, terms: int = 4) -> SuperPolynomial:
    return _table(n, ((0, 0, rng.sample(range(1, n + 1), degree), 0, rng.randint(-3, 3)) for _ in range(terms)))


def random_bidegree(
    rng: random.Random, n: int, k: int, kappa: int, terms: int = 4, max_x: int = 1
) -> SuperPolynomial:
    """Random polynomial homogeneous of bidegree (k in p, kappa in xi)."""
    return _table(n, (
        (_exponents(rng, n, max_x), _scattered(rng, n, k), rng.sample(range(1, n + 1), kappa), 0,
         rng.randint(-3, 3))
        for _ in range(terms)
    ))
