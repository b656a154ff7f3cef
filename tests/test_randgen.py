"""The seeded random inputs of the verify suites, pinned.

A passing verify row prints only its name, ``ok`` and its case count, so
the pinned CLI digests do not see the polynomials the suites draw.  This
digest covers them: the printed form of a seeded stream from every
generator, with the h-graded coefficients of ``random_superpoly``, draws
whose coefficients cancel to zero and empty draws, followed by the next
output of the generator, so that a change in the number or order of
``rng`` calls shows too.  The generators replay CPython's ``randint``,
``choice`` and ``sample`` through ``getrandbits``; ``ref_randgen`` calls
those methods, and the replay is compared with it draw for draw.
"""

import hashlib
import random

import pytest
import ref_randgen

from supercot import randgen
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


def _calls(n):
    """(name, args, kwargs) of every parameter range that verify and the tests draw with at dimension n."""
    small = min(2, n)
    calls = [
        ("random_superpoly", (), {}),
        ("random_superpoly", (), {"terms": 3}),
        ("random_superpoly", (), {"terms": 0, "h_max": 2}),
        ("random_superpoly", (), {"terms": 4, "max_x": 2, "max_p": 3, "h_max": 2}),
        ("random_superpoly", (), {"terms": 4, "max_x": 3, "h_max": 1}),
        ("random_superpoly", (), {"terms": 4, "max_xi": n}),
        ("random_xi_poly", (), {}),
        ("random_xi_poly", (), {"terms": 0}),
        ("random_xi_homogeneous", (n,), {"terms": 2}),
    ]
    for parity in (0, 1):
        for terms in (3, 4, 5):
            calls.append(("random_parity_homogeneous", (parity,), {"terms": terms}))
    for degree in range(small + 1):
        calls.append(("random_xi_homogeneous", (degree,), {}))
    for k in range(3):
        for kappa in range(small + 1):
            calls.append(("random_bidegree", (k, kappa), {"terms": 3}))
    calls.append(("random_bidegree", (2, min(1, n)), {"terms": 3, "max_x": 2}))
    calls.append(("random_bidegree", (1, 0), {"terms": 0}))
    return calls


@pytest.mark.parametrize("n", range(1, 11))
def test_draws_replay_cpython_random(n):
    """Equal elements and an equal next getrandbits(64) as randint, choice and sample give."""
    for seed in range(50):
        ours, theirs = random.Random(seed), random.Random(seed)
        for name, args, kwargs in _calls(n):
            got = getattr(randgen, name)(ours, n, *args, **kwargs)
            want = getattr(ref_randgen, name)(theirs, n, *args, **kwargs)
            assert got._terms == want._terms, (seed, name, args, kwargs)
        assert ours.getrandbits(64) == theirs.getrandbits(64), seed


@pytest.mark.parametrize("draw", [
    lambda rng: randgen.random_superpoly(rng, 2, max_p=-1),
    lambda rng: randgen.random_superpoly(rng, 2, max_x=-1),
    lambda rng: randgen.random_superpoly(rng, 2, h_max=-1),
    lambda rng: randgen.random_xi_homogeneous(rng, 2, 3),
    lambda rng: randgen.random_xi_homogeneous(rng, 2, -1),
    lambda rng: randgen.random_parity_homogeneous(rng, 1, 3),
], ids=["max_p", "max_x", "h_max", "degree-above-n", "negative-degree", "no-size-of-the-parity"])
def test_an_empty_range_is_refused(draw):
    # getrandbits(0) is 0, so a bare rejection loop below 0 would never end
    with pytest.raises(ValueError):
        draw(random.Random(0))
