"""The operator kernels against the loops they replaced.

``SuperPolynomial.partial`` and ``superpoly.add_product`` carry
``SuperDiffOp.apply``/``compose``, ``SpinorDiffOp.apply_spinor`` and
``poisson``; ``star.standard_mul`` carries ``SpinorDiffOp.compose``.  The
``ref_*`` functions below are earlier implementations, built from single
``derive`` calls, ``+``, and ``star_mul`` on monomials with the Leibniz
rule; every property compares the two routes exactly.  The operator sums
and differences are checked the same way.
"""

import random
from fractions import Fraction
from functools import partial
from itertools import product
from math import comb

from hypothesis import given, settings, strategies as st

from supercot import star
from supercot.clifford import build_spin_rep
from supercot.coeff import Scalar
from supercot.confmod import normal_order
from supercot.diffop import SuperDiffOp
from supercot.spinop import SpinorDiffOp
from supercot.star import star_mul
from supercot.superpoly import Signature, SuperPolynomial, add_product, sort_xi_word, unpack
from supercot.symplectic import poisson


# -- the pre-kernel loops -------------------------------------------------------------


def ref_derive_multi(poly, kind, exps):
    for index, count in enumerate(exps, start=1):
        for _ in range(count):
            poly = poly.derive(kind, index)
    return poly


def ref_partial(poly, dx, dp, dxi):
    value = ref_derive_multi(poly, "x", dx)
    value = ref_derive_multi(value, "p", dp)
    for index in reversed(dxi):
        value = value.derive("xi", index)
    return value


def ref_apply(op, poly):
    result = SuperPolynomial.zero(op.n)
    for (dxi, dx, dp), coeff in op.items():
        value = ref_partial(poly, dx, dp, dxi)
        if not value.is_zero():
            result = result + coeff * value
    return result


def ref_sub_multi_indices(alpha):
    for gamma in product(*[range(a + 1) for a in alpha]):
        factor = 1
        for a, g in zip(alpha, gamma):
            factor *= comb(a, g)
        yield gamma, factor


def ref_parity_involution(poly):
    terms = {}
    for key, coeff in poly.items():
        terms[key] = coeff * (-1 if len(key[2]) % 2 else 1)
    return SuperPolynomial(poly.n, terms)


def ref_compose(A, B):
    n = A.n
    result = {}
    for (dxiA, dxA, dpA), cA in A.items():
        for (dxiB, dxB, dpB), cB in B.items():
            moved = []
            for delta, fac_p in ref_sub_multi_indices(dpA):
                rest_p = tuple(a - d for a, d in zip(dpA, delta))
                poly_p = ref_derive_multi(cB, "p", rest_p)
                if poly_p.is_zero():
                    continue
                for gamma, fac_x in ref_sub_multi_indices(dxA):
                    rest_x = tuple(a - g for a, g in zip(dxA, gamma))
                    poly_x = ref_derive_multi(poly_p, "x", rest_x)
                    if poly_x.is_zero():
                        continue
                    moved.append((poly_x.scale(fac_p * fac_x), gamma, delta, ()))
            for index in reversed(dxiA):
                next_moved = []
                for poly, gamma, delta, word in moved:
                    derived = poly.derive("xi", index)
                    if not derived.is_zero():
                        next_moved.append((derived, gamma, delta, word))
                    next_moved.append((ref_parity_involution(poly), gamma, delta, (index,) + word))
                moved = next_moved
            for poly, gamma, delta, word in moved:
                sorted_word = sort_xi_word(word + dxiB)
                if sorted_word is None:
                    continue
                sign, merged = sorted_word
                key = (
                    merged,
                    tuple(a + b for a, b in zip(gamma, dxB)),
                    tuple(a + b for a, b in zip(delta, dpB)),
                )
                contribution = (cA * poly).scale(sign)
                result[key] = result.get(key, SuperPolynomial.zero(n)) + contribution
    return SuperDiffOp(n, result)


def ref_spin_compose(A, B):
    sig, n = A.sig, A.n
    result = {}
    for (cliffA, dxA), cA in A.items():
        monA = SuperPolynomial.monomial(n, xi=cliffA)
        for (cliffB, dxB), cB in B.items():
            cliff_product = star_mul(monA, SuperPolynomial.monomial(n, xi=cliffB), sig)
            for gamma, factor in ref_sub_multi_indices(dxA):
                rest = tuple(a - g for a, g in zip(dxA, gamma))
                base = (cA * ref_derive_multi(cB, "x", rest)).scale(factor)
                dx_out = tuple(a + b for a, b in zip(gamma, dxB))
                for (_x, _p, word), scalar in cliff_product.items():
                    key = (word, dx_out)
                    result[key] = result.get(key, SuperPolynomial.zero(n)) + base.scale(scalar)
    return SpinorDiffOp.from_items(sig, result.items())


def ref_poisson(F, G, sig):
    sign = -1 if F.parity() else 1
    result = SuperPolynomial.zero(sig.n)
    for i in range(1, sig.n + 1):
        result = result + F.derive("p", i) * G.derive("x", i)
        result = result - F.derive("x", i) * G.derive("p", i)
    for a in range(1, sig.n + 1):
        term = F.derive("xi", a) * G.derive("xi", a)
        result = result + term.scale(Scalar.h(-1, sign) * sig.eta(a))
    return result


def ref_normal_order(F, sig):
    op = SpinorDiffOp.zero(sig)
    for (xexp, pexp, word), coeff in F.items():
        xcoeff = SuperPolynomial.monomial(sig.n, xexp=xexp, coeff=coeff.mul_hpow(sum(pexp)))
        op = op + SpinorDiffOp.term(sig, xcoeff, cliff=word, dx=pexp)
    return op


# -- strategies ----------------------------------------------------------------------

_scalars = st.builds(
    lambda h, part, c: Scalar({(h, part): c}),
    st.integers(-1, 1),
    st.integers(0, 3),
    st.one_of(st.integers(-3, 3).filter(bool), st.sampled_from([Fraction(1, 2), Fraction(-2, 3)])),
)


def _exps(n, top):
    return st.tuples(*[st.integers(0, top)] * n)


def _words(n):
    return st.sets(st.integers(1, n), max_size=n).map(lambda s: tuple(sorted(s)))


@st.composite
def polys(draw, n, x_only=False, max_terms=4):
    keys = st.tuples(
        _exps(n, 3),
        st.just((0,) * n) if x_only else _exps(n, 2),
        st.just(()) if x_only else _words(n),
    )
    return SuperPolynomial(n, draw(st.dictionaries(keys, _scalars, max_size=max_terms)))


@st.composite
def diffops(draw, n):
    keys = st.tuples(_words(n), _exps(n, 2), _exps(n, 2))
    terms = draw(st.dictionaries(keys, polys(n, max_terms=3), max_size=3))
    return SuperDiffOp(n, terms)


SIGS = [Signature(2, 0), Signature(1, 1), Signature(2, 1), Signature(2, 2)]


@st.composite
def spinops(draw, sig):
    keys = st.tuples(_words(sig.n), _exps(sig.n, 2))
    terms = draw(st.dictionaries(keys, polys(sig.n, x_only=True, max_terms=3), max_size=3))
    return SpinorDiffOp.from_items(sig, terms.items())


_settings = settings(derandomize=True, max_examples=80, deadline=None)


# -- partial and add_product -----------------------------------------------------------


@_settings
@given(st.data())
def test_partial_equals_chain_of_single_derives(data):
    n = data.draw(st.integers(1, 4))
    F = data.draw(polys(n, max_terms=6))
    dx, dp, dxi = data.draw(_exps(n, 3)), data.draw(_exps(n, 2)), data.draw(_words(n))
    assert F.partial(dx, dp, dxi) == ref_partial(F, dx, dp, dxi)
    assert F.partial(dx) == ref_derive_multi(F, "x", dx)
    assert F.partial(dxi=dxi) == ref_partial(F, (0,) * n, (0,) * n, dxi)


def test_partial_grassmann_signs():
    F = SuperPolynomial.monomial(3, xi=(1, 2, 3), coeff=5)
    # d_xi2 removes the middle factor: xi1 xi2 xi3 -> -xi1 xi3
    assert F.partial(dxi=(2,)) == SuperPolynomial.monomial(3, xi=(1, 3), coeff=-5)
    # d_xi1 o d_xi3: slots 0 and 2, sign +1
    assert F.partial(dxi=(1, 3)) == SuperPolynomial.monomial(3, xi=(2,), coeff=5)
    # d_xi2 o d_xi3: slots 1 and 2, sign -1
    assert F.partial(dxi=(2, 3)) == SuperPolynomial.monomial(3, xi=(1,), coeff=-5)
    G = SuperPolynomial.monomial(2, xexp=(3, 1), pexp=(0, 2), coeff=2)
    assert G.partial((2, 1), (0, 2)) == SuperPolynomial.monomial(2, xexp=(1, 0), coeff=2 * 6 * 2)
    assert G.partial((0, 2)).is_zero()


@_settings
@given(st.data())
def test_add_product_accumulates_in_place(data):
    n = data.draw(st.integers(1, 3))
    F, G, H = (data.draw(polys(n)) for _ in range(3))
    factor = data.draw(st.one_of(st.integers(-3, 3), _scalars))
    terms = dict((H * G)._terms)
    add_product(terms, F, G, factor)
    assert SuperPolynomial._wrap(n, terms) == H * G + (F * G).scale(factor)
    assert all(terms.values())  # cancelled keys are removed, not left at zero
    add_product(terms, F, G, -factor)
    assert SuperPolynomial._wrap(n, terms) == H * G


def test_add_product_scales_by_the_factor():
    x1 = SuperPolynomial.var_x(2, 1)
    xi = SuperPolynomial.var_xi(2, 2)
    terms = {}
    add_product(terms, x1, xi, Scalar.h(1, 3))
    add_product(terms, xi, x1, 2)
    assert dict(SuperPolynomial._wrap(2, terms).items()) == {((1, 0), (0, 0), (2,)): Scalar.h(1, 3) + 2}


# -- SuperDiffOp ----------------------------------------------------------------------


@_settings
@given(st.data())
def test_apply_matches_reference(data):
    n = data.draw(st.integers(1, 3))
    D, F = data.draw(diffops(n)), data.draw(polys(n, max_terms=6))
    assert D.apply(F) == ref_apply(D, F)


@settings(derandomize=True, max_examples=50, deadline=None)
@given(st.data())
def test_compose_matches_reference_and_action(data):
    n = data.draw(st.integers(1, 3))
    A, B = data.draw(diffops(n)), data.draw(diffops(n))
    F = data.draw(polys(n))
    AB = A.compose(B)
    assert AB == ref_compose(A, B)
    assert AB.apply(F) == A.apply(B.apply(F))


def _count_partial_calls(monkeypatch, target):
    calls = []
    original = SuperPolynomial.partial

    def counted(self, *args, **kwargs):
        if self is target:
            calls.append(args)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(SuperPolynomial, "partial", counted)
    return calls


def test_compose_prunes_derivatives_past_the_x_degree(monkeypatch):
    n = 3
    # A = dx1^2 dx2 has order 3; cB = x1 xi1 + x2 has x-degree 1, so only the
    # Leibniz terms with |gamma| >= 2 (3 of the 6 gamma <= (2,1,0)) survive
    A = SuperDiffOp.term(SuperPolynomial.one(n), dx=(2, 1, 0))
    B = SuperDiffOp.term(
        SuperPolynomial.monomial(n, xexp=(1, 0, 0), xi=(1,)) + SuperPolynomial.var_x(n, 2),
        dx=(0, 0, 1),
    )
    ((_key, cB),) = B.items()
    assert cB.x_degree() < 3
    calls = _count_partial_calls(monkeypatch, cB)
    AB = A.compose(B)
    assert len(calls) == 3
    monkeypatch.undo()
    assert AB == ref_compose(A, B)
    F = SuperPolynomial.monomial(n, xexp=(3, 2, 2), xi=(2,))
    assert AB.apply(F) == A.apply(B.apply(F))


# -- SpinorDiffOp ---------------------------------------------------------------------


def _seeded_spinor(rng, n, size):
    comps = []
    for _ in range(size):
        comp = SuperPolynomial.zero(n)
        for _ in range(2):
            xexp = [0] * n
            for _ in range(rng.randint(2, 4)):
                xexp[rng.randrange(n)] += 1
            comp = comp + SuperPolynomial.monomial(n, xexp=xexp, coeff=rng.randint(-3, 3) or 1)
        comps.append(comp)
    return tuple(comps)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(st.data())
def test_spinor_compose_matches_star_reference_and_action(data):
    sig = data.draw(st.sampled_from(SIGS))
    A, B = data.draw(spinops(sig)), data.draw(spinops(sig))
    AB = A.compose(B)
    assert AB == ref_spin_compose(A, B)
    if sig.n % 2 == 0:
        rep = build_spin_rep(sig)
        psi = _seeded_spinor(random.Random(data.draw(st.integers(0, 99))), sig.n, rep.size)
        assert AB.apply_spinor(psi, rep) == A.apply_spinor(B.apply_spinor(psi, rep), rep)


def test_spinor_compose_prunes_derivatives_past_the_x_degree(monkeypatch):
    sig = Signature(2, 0)
    n = sig.n
    A = SpinorDiffOp.term(sig, SuperPolynomial.one(n), cliff=(1,), dx=(2, 1))
    B = SpinorDiffOp.term(sig, SuperPolynomial.monomial(n, xexp=(1, 1)), cliff=(1, 2))
    tables = []
    original = star._contractions

    def recorded(pexp, xexp, n):
        tables.append((unpack(pexp, n), unpack(xexp, n), original(pexp, xexp, n)))
        return tables[-1][2]

    monkeypatch.setattr(star, "_contractions", recorded)
    AB = A.compose(B)
    monkeypatch.undo()
    # d^(2,1) against x^(1,1): only the gamma <= (1,1), 4 of the 6 gamma <= (2,1),
    # are contracted, each with a nonzero factor C(p, gamma) x!/(x - gamma)!
    ((pexp, xexp, table),) = tables
    assert (pexp, xexp) == ((2, 1), (1, 1))
    assert [(unpack(p_rest, n), unpack(x_rest, n), order) for p_rest, x_rest, order, _f in table] == [
        ((2, 1), (1, 1), 0), ((2, 0), (1, 0), 1), ((1, 1), (0, 1), 1), ((1, 0), (0, 0), 2),
    ]
    # the factor of each gamma is h^order times its integer
    assert [Scalar.h(order, factor) for _p, _x, order, factor in table] == [
        Scalar.one(), Scalar.h(1, 1), Scalar.h(1, 2), Scalar.h(2, 2),
    ]
    assert AB == ref_spin_compose(A, B)


# -- poisson and normal ordering ------------------------------------------------------


@_settings
@given(st.data())
def test_poisson_and_normal_order_match_reference(data):
    sig = data.draw(st.sampled_from(SIGS))
    F, G = data.draw(polys(sig.n)), data.draw(polys(sig.n))
    parity = data.draw(st.integers(0, 1))
    F = SuperPolynomial(sig.n, {k: c for k, c in F.items() if len(k[2]) % 2 == parity})
    assert poisson(F, G, sig) == ref_poisson(F, G, sig)
    assert normal_order(G, sig) == ref_normal_order(G, sig)



# -- operator sums and differences ------------------------------------------------------


def ref_binop(make, A, B, negate):
    """The earlier operator sum: a zero polynomial per key, rebuilt through the constructor."""
    terms = dict(A.items())
    for key, coeff in B.items():
        terms[key] = terms.get(key, SuperPolynomial.zero(A.n)) + (-coeff if negate else coeff)
    return make(terms)


def stored(op):
    """The stored coefficient table: a SpinorDiffOp's symbol, a SuperDiffOp's own."""
    return op.symbol._terms if isinstance(op, SpinorDiffOp) else op._terms


@_settings
@given(st.data())
def test_operator_sum_and_difference(data):
    if data.draw(st.booleans()):
        sig = data.draw(st.sampled_from(SIGS))
        make = lambda terms: SpinorDiffOp.from_items(sig, terms.items())  # noqa: E731
        A, B = data.draw(spinops(sig)), data.draw(spinops(sig))
    else:
        n = data.draw(st.integers(1, 3))
        make = partial(SuperDiffOp, n)
        A, B = data.draw(diffops(n)), data.draw(diffops(n))
    # share some of A's terms with B, so that sums and differences cancel
    blocks = dict(A.items())
    shared = data.draw(st.lists(st.sampled_from(sorted(blocks)), unique=True)) if blocks else []
    B = B + make({key: blocks[key] for key in shared})
    for C in (A + B, A - B, B - A, A - A):
        assert all(stored(C).values())  # no stored coefficient is zero
    assert A + B == ref_binop(make, A, B, negate=False)
    assert A - B == ref_binop(make, A, B, negate=True)
    assert (A - B) + B == A
    assert stored(A - A) == {}
