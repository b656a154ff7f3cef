"""The seeded generators of ``supercot.randgen`` as CPython's Random methods draw them.

Each generator calls ``randint``, ``randrange``, ``choice`` and ``sample``
in the order ``randgen`` replays through ``getrandbits``; the tests
compare the two draw for draw, and the state of the generator after them.
"""

import random

from supercot.superpoly import SLOT_BITS, SuperPolynomial, add_term, pack_key, xi_mask


def _table(n, draws):
    table = {}
    for xp, pp, xi, hpow, coeff in draws:
        if coeff:
            add_term(table, pack_key(n, xp, pp, xi_mask(xi), hpow), coeff)
    return SuperPolynomial._wrap(n, table)


def _exponents(rng, n, top):
    return sum(rng.randint(0, top) << (SLOT_BITS * k) for k in range(n))


def _scattered(rng, n, count):
    return sum(1 << (SLOT_BITS * rng.randrange(n)) for _ in range(count))


def random_superpoly(rng: random.Random, n, terms=5, max_x=1, max_p=2, max_xi=None, h_max=0):
    if max_xi is None:
        max_xi = min(2, n)
    return _table(n, (
        (_exponents(rng, n, max_x), _scattered(rng, n, rng.randint(0, max_p)),
         rng.sample(range(1, n + 1), rng.randint(0, max_xi)), rng.randint(0, h_max) if h_max else 0,
         rng.randint(-3, 3))
        for _ in range(terms)
    ))


def random_parity_homogeneous(rng: random.Random, n, parity, terms=4, max_p=2):
    sizes = range(parity, n + 1, 2)
    return _table(n, (
        (_exponents(rng, n, 1), _scattered(rng, n, rng.randint(0, max_p)),
         rng.sample(range(1, n + 1), rng.choice(sizes)), 0, rng.randint(-3, 3))
        for _ in range(terms)
    ))


def random_xi_poly(rng: random.Random, n, terms=5):
    return _table(n, (
        (0, 0, rng.sample(range(1, n + 1), rng.randint(0, n)), 0, rng.randint(-3, 3)) for _ in range(terms)
    ))


def random_xi_homogeneous(rng: random.Random, n, degree, terms=4):
    return _table(n, ((0, 0, rng.sample(range(1, n + 1), degree), 0, rng.randint(-3, 3)) for _ in range(terms)))


def random_bidegree(rng: random.Random, n, k, kappa, terms=4, max_x=1):
    return _table(n, (
        (_exponents(rng, n, max_x), _scattered(rng, n, k), rng.sample(range(1, n + 1), kappa), 0,
         rng.randint(-3, 3))
        for _ in range(terms)
    ))
