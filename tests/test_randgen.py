"""The seeded random inputs of the verify suites, pinned.

A passing verify row prints only its name, ``ok`` and its case count, so
the pinned CLI digests do not see the polynomials the suites draw.  This
digest covers them: the printed form of a seeded stream from every
generator, with the h-graded coefficients of ``random_superpoly``, draws
whose coefficients cancel to zero and empty draws, followed by the next
output of the generator, so that a change in the number or order of
``rng`` calls shows too.
"""

import hashlib
import random

from supercot.randgen import (
    random_bidegree,
    random_parity_homogeneous,
    random_superpoly,
    random_xi_homogeneous,
    random_xi_poly,
)

# recorded before the generators built their tables in one pass
RANDOM_INPUT_DIGEST = "410a51eb2df38c4ef17d0303e792d1f2c9541c6ad1cbcd8ed6ee2ff49db3bdae"


def _stream(rng):
    for n in (1, 2, 3, 4, 6):
        yield random_superpoly(rng, n)
        yield random_superpoly(rng, n, terms=4, max_x=2, max_p=3, h_max=2)
        yield random_superpoly(rng, n, terms=0, h_max=2)
        for parity in (0, 1):
            yield random_parity_homogeneous(rng, n, parity, terms=3)
        yield random_xi_poly(rng, n)
        yield random_xi_poly(rng, n, terms=0)
        yield random_xi_homogeneous(rng, n, min(2, n))
        yield random_xi_homogeneous(rng, n, n, terms=2)  # one monomial, drawn twice: may cancel
        yield random_bidegree(rng, n, 2, min(1, n), terms=3, max_x=2)
        yield random_bidegree(rng, n, 1, 0, terms=0)


def test_random_inputs_match_pinned_digest():
    text = []
    for seed in range(4):
        rng = random.Random(seed)
        text.extend(str(F) for F in _stream(rng))
        text.append(str(rng.getrandbits(64)))
    assert hashlib.sha256("\n".join(text).encode()).hexdigest() == RANDOM_INPUT_DIGEST


def test_the_stream_holds_cancelled_draws():
    """Draws 7 and 8 of each dimension hold one or few monomials drawn several
    times; some of them cancel to zero, so the digest covers cancellation."""
    cancelled = [
        (seed, index)
        for seed in range(4)
        for index, F in enumerate(_stream(random.Random(seed)))
        if index % 11 in (7, 8) and F.is_zero()
    ]
    assert cancelled
