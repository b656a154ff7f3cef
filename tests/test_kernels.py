"""The operator kernels against the loops they replaced.

``SuperPolynomial.partial`` and the product loop carry
``SuperDiffOp.apply`` and ``SpinorDiffOp.apply_spinor``, and ``poisson``
loops over the term pairs of its operands; ``SuperDiffOp.compose`` reads
the cached Leibniz tables of ``diffop``, and ``star.standard_mul`` carries
``SpinorDiffOp.compose``.  The ``ref_*`` functions below are earlier
implementations, built from single ``derive`` calls, ``+``, and
``star_mul`` on monomials with the Leibniz rule; every property compares
the two routes exactly, and the Leibniz tables are checked against
brute-force enumeration.  The operator sums and differences are checked
the same way.
"""

import random
from fractions import Fraction
from functools import partial
from itertools import permutations, product
from math import comb, perm

import pytest
from hypothesis import Phase, given, settings, strategies as st

from supercot import diffop, star
from supercot.clifford import build_spin_rep
from supercot.coeff import Scalar
from supercot.confmod import hamiltonian_operator, normal_order, operator_symbol_action, tensorial_operator
from supercot.diffop import SuperDiffOp
from supercot.randgen import random_parity_homogeneous, random_superpoly
from supercot.spinop import SpinorDiffOp
from supercot.star import star_mul
from supercot.superpoly import (
    H_SHIFT, SLOT_BITS, SLOT_LIMIT, Signature, SuperPolynomial, add_product, derivative_fields, pack, slot_sum,
    sort_xi_word, unpack, x_shift, xi_word,
)
from supercot.symplectic import conformal_generators, hamiltonian_lift, poisson


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
    op = SpinorDiffOp(sig)
    for (xexp, pexp, word), coeff in F.items():
        xcoeff = SuperPolynomial.monomial(sig.n, xexp=xexp, coeff=coeff.mul_hpow(sum(pexp)))
        op = op + SpinorDiffOp.from_items(sig, [((word, pexp), xcoeff)])
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
def diffops(draw, n, even=False):
    keys = st.tuples(_words(n), _exps(n, 2), _exps(n, 2))
    terms = draw(st.dictionaries(keys, polys(n, max_terms=3), min_size=int(even), max_size=3))
    if even:  # give each coefficient entry the parity of its word, toggling xi1 where it differs
        terms = {
            (word, dx, dp): SuperPolynomial(n, {
                (xe, pe, xi if (len(xi) + len(word)) % 2 == 0 else tuple(sorted(set(xi) ^ {1}))): c
                for (xe, pe, xi), c in coeff.items()
            })
            for (word, dx, dp), coeff in terms.items()
        }
    return SuperDiffOp(n, terms)


SIGS = [Signature(2, 0), Signature(1, 1), Signature(2, 1), Signature(2, 2)]


@st.composite
def spinops(draw, sig):
    keys = st.tuples(_words(sig.n), _exps(sig.n, 2))
    terms = draw(st.dictionaries(keys, polys(sig.n, x_only=True, max_terms=3), max_size=3))
    return SpinorDiffOp.from_items(sig, terms.items())


_settings = settings(derandomize=True, max_examples=80, deadline=None)
# a failing draw of ``diffops`` can shrink for minutes; its tests report the first failing example
_NO_SHRINK = tuple(phase for phase in Phase if phase is not Phase.shrink)


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


def test_partial_takes_an_xi_word_in_any_order():
    F = SuperPolynomial.monomial(2, xi=(1, 2))
    assert F.partial(dxi=(2, 1)) == F.derive("xi", 1).derive("xi", 2) == SuperPolynomial.one(2)
    assert F.partial(dxi=(1, 1)).is_zero()  # d_xi1 o d_xi1 = 0
    G = SuperPolynomial(3, {
        ((1, 0, 2), (0, 1, 0), (1, 2, 3)): Scalar.h(-1, 5),
        ((0, 0, 0), (0, 0, 0), (1, 3)): Scalar.sqrt2(),
        ((2, 0, 0), (1, 0, 0), (2, 3)): Scalar.i(),
    })
    for word in permutations((1, 2, 3)):
        assert G.partial(dxi=word) == ref_partial(G, (0, 0, 0), (0, 0, 0), word)
        assert G.partial(dxi=word[:2]) == ref_partial(G, (0, 0, 0), (0, 0, 0), word[:2])
        assert G.partial(dxi=word + word[:1]).is_zero()


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


@settings(_settings, phases=_NO_SHRINK)
@given(st.data())
def test_apply_matches_reference(data):
    n = data.draw(st.integers(1, 3))
    D, F = data.draw(diffops(n)), data.draw(polys(n, max_terms=6))
    assert D.apply(F) == ref_apply(D, F)


@settings(_settings, phases=_NO_SHRINK)
@given(st.data())
def test_apply_all_equals_one_apply_per_operator(data):
    n = data.draw(st.integers(1, 3))
    ops = data.draw(st.lists(diffops(n), max_size=4))
    F = data.draw(polys(n, max_terms=6))
    images = diffop.apply_all(ops, F)
    assert images == [op.apply(F) for op in ops] == [ref_apply(op, F) for op in ops]


def test_apply_all_edge_cases():
    n = 2
    x1, xi2 = SuperPolynomial.var_x(n, 1), SuperPolynomial.var_xi(n, 2)
    A = SuperDiffOp.term(x1 * xi2, dx=(1, 0)) + SuperDiffOp.term(x1, dxi=(2,))
    B = SuperDiffOp.term(xi2, dx=(1, 0))
    F = x1 * x1 * xi2 + x1
    # an operator listed twice gets two images, each the full action
    assert diffop.apply_all([A, B, A], F) == [ref_apply(A, F), ref_apply(B, F), ref_apply(A, F)]
    assert diffop.apply_all([], F) == []
    assert diffop.apply_all([A, B], SuperPolynomial.zero(n)) == [SuperPolynomial.zero(n)] * 2
    for ops in ([SuperDiffOp.term(SuperPolynomial.var_x(3, 1))], [A, SuperDiffOp(3)]):
        with pytest.raises(ValueError, match="dimension mismatch"):
            diffop.apply_all(ops, F)


@settings(derandomize=True, max_examples=50, deadline=None, phases=_NO_SHRINK)
@given(st.data())
def test_compose_matches_reference_and_action(data):
    n = data.draw(st.integers(1, 3))
    A, B = data.draw(diffops(n)), data.draw(diffops(n))
    F = data.draw(polys(n))
    AB = A.compose(B)
    assert AB == ref_compose(A, B)
    assert AB.apply(F) == A.apply(B.apply(F))


@settings(derandomize=True, max_examples=40, deadline=None, phases=_NO_SHRINK)
@given(st.data())
def test_commutator_is_the_difference_of_the_two_products(data):
    n = data.draw(st.integers(1, 3))
    A, B = data.draw(diffops(n, even=True)), data.draw(diffops(n, even=True))
    assert A.commutator(B) == A.compose(B) - B.compose(A)
    assert A.commutator(A).is_zero()


def _module_builders(sig):
    third, fifth = Fraction(1, 3), Fraction(1, 5)
    return {
        "lift": lambda X: hamiltonian_lift(X, sig),
        "tensorial": lambda X: tensorial_operator(X, third, sig),
        "hamiltonian": lambda X: hamiltonian_operator(X, third, sig),
        "operator": lambda X: operator_symbol_action(X, fifth, fifth + third, sig),
    }


@pytest.mark.parametrize("label", ["lift", "tensorial", "hamiltonian", "operator"])
@pytest.mark.parametrize("sig", [Signature(2, 0), Signature(1, 1), Signature(3, 1)], ids=str)
def test_commutator_of_every_generator_pair(sig, label):
    ops = [_module_builders(sig)[label](X) for X in conformal_generators(sig)]
    for i, A in enumerate(ops):
        for B in ops[i:]:
            ab, ba = A.compose(B), B.compose(A)
            assert A.commutator(B) == ab - ba
            assert B.commutator(A) == ba - ab


def test_commutator_refuses_an_odd_term():
    n = 2
    xi1 = SuperPolynomial.var_xi(n, 1)
    even = SuperDiffOp.term(SuperPolynomial.var_x(n, 1), dx=(1, 0))
    for odd in (
        SuperDiffOp.term(xi1),
        SuperDiffOp.term(SuperPolynomial.one(n), dxi=(2,)),
        SuperDiffOp.term(SuperPolynomial.one(n) + xi1 * SuperPolynomial.var_xi(n, 2), dxi=(1,)),
    ):
        for left, right in ((odd, even), (even, odd)):
            with pytest.raises(ValueError, match="even operators"):
                left.commutator(right)


def test_compose_prunes_derivatives_past_the_x_degree(monkeypatch):
    n = 3
    # A = dx1^2 dx2 has order 3; cB = x1 xi1 + x2 has x-degree 1, so of the 6
    # gamma <= (2,1,0) only those with (2,1,0) - gamma <= the entry's exponents survive
    A = SuperDiffOp.term(SuperPolynomial.one(n), dx=(2, 1, 0))
    B = SuperDiffOp.term(
        SuperPolynomial.monomial(n, xexp=(1, 0, 0), xi=(1,)) + SuperPolynomial.var_x(n, 2),
        dx=(0, 0, 1),
    )
    tables = []
    original = diffop._even_leibniz
    xs = x_shift(n)

    def recorded(shift, d, e):
        assert shift == xs
        tables.append((unpack(e, n), original(shift, d, e)))
        return tables[-1][1]

    monkeypatch.setattr(diffop, "_even_leibniz", recorded)
    AB = A.compose(B)
    monkeypatch.undo()
    # (x rest, gamma, factor): x1 needs gamma1 >= 1 and gamma2 = 1, x2 needs gamma1 = 2
    assert sorted(
        (entry, tuple(e - lost for e, lost in zip(entry, unpack(loss >> xs, n))), unpack(gain >> xs, n), factor)
        for entry, table in tables for loss, gain, factor in table
    ) == [
        ((0, 1, 0), (0, 0, 0), (2, 0, 0), 1), ((0, 1, 0), (0, 1, 0), (2, 1, 0), 1),
        ((1, 0, 0), (0, 0, 0), (1, 1, 0), 2), ((1, 0, 0), (1, 0, 0), (2, 1, 0), 1),
    ]
    assert AB == ref_compose(A, B)
    F = SuperPolynomial.monomial(n, xexp=(3, 2, 2), xi=(2,))
    assert AB.apply(F) == A.apply(B.apply(F))


# -- the packed operator table ----------------------------------------------------------


def test_constructor_sorts_the_word_and_absorbs_its_sign():
    n = 2
    one = SuperPolynomial.one(n)
    op = SuperDiffOp(n, {((2, 1), (0, 0), (0, 0)): one})
    # dxi^(2,1) = d_xi2 o d_xi1 = -d_xi1 o d_xi2
    assert op == SuperDiffOp.term(one, dxi=(2, 1)) == -SuperDiffOp.term(one, dxi=(1, 2))
    assert list(op.items()) == [(((1, 2), (0, 0), (0, 0)), -one)]
    F = SuperPolynomial.monomial(n, xi=(1, 2))
    assert op.apply(F) == F.derive("xi", 1).derive("xi", 2) == one
    # both orders of one word merge into one key, here cancelling
    assert SuperDiffOp(n, {((1, 2), (), ()): one, ((2, 1), (), ()): one}).is_zero()
    assert SuperDiffOp(n, {((1, 1), (), ()): one}).is_zero()  # d_xi1 o d_xi1 = 0


def test_constructor_sums_a_list_of_terms():
    n = 2
    one, x1, zero = SuperPolynomial.one(n), SuperPolynomial.var_x(n, 1), SuperPolynomial.zero(n)
    key = ((1,), (0, 1), ())
    # a repeated key adds up
    assert SuperDiffOp(n, [(key, one), (key, x1), (key, one)]) == SuperDiffOp(n, {key: x1 + one.scale(2)})
    assert SuperDiffOp(n, [(key, x1), (key, -x1)]).is_zero()
    # the words (1, 2) and (2, 1) with equal coefficients cancel
    assert SuperDiffOp(n, [(((1, 2), (), ()), x1), (((2, 1), (), ()), x1)]).is_zero()
    # a word with a repeated xi index is dropped
    assert SuperDiffOp(n, [(((2, 2), (), ()), one), (key, x1)]) == SuperDiffOp.term(x1, *key)
    # a zero coefficient is dropped before its key is read, even a key it would refuse
    assert SuperDiffOp(n, [(key, zero), (((), (0, SLOT_LIMIT), ()), zero)]) == SuperDiffOp(n)
    # a mapping and the same pairs, as a list or a one-pass iterator, give one operator
    pairs = [(key, x1), (((2, 1), (1, 0), ()), one), (((), (), (0, 2)), -x1)]
    op = SuperDiffOp(n, dict(pairs))
    assert op == SuperDiffOp(n, pairs) == SuperDiffOp(n, iter(pairs))
    assert list(op.items()) == [
        (((), (0, 0), (0, 2)), -x1), (((1,), (0, 1), (0, 0)), x1), (((1, 2), (1, 0), (0, 0)), -one),
    ]
    # the sum runs in list order, as one added term per pair: a key that cancels is dropped, and comes back last
    pairs += [(key, -x1), (((2, 1), (1, 0), ()), x1), (key, one)]
    added = SuperDiffOp(n)
    for (dxi, dx, dp), coeff in pairs:
        added = added + SuperDiffOp.term(coeff, dxi, dx, dp)
    summed = SuperDiffOp(n, pairs)
    assert list(summed._terms.items()) == list(added._terms.items())
    assert [word for (word, _dx, _dp), _c in summed.items()] == [(), (1,), (1, 2)]
    assert derivative_fields(list(summed._terms)[-1], n) == (1, pack((0, 1)), 0)


@pytest.mark.parametrize(
    "key,message",
    [(((), (1,), (0, 0)), "length n"), (((), (0, -1), (0, 0)), "exponent"),
     (((), (0, 0), (0, SLOT_LIMIT)), "exponent"), (((3,), (), ()), "within 1..2"),
     (((0, 1), (), ()), "within 1..2")],
    ids=["length", "negative-exponent", "exponent-at-slot-limit", "index-above-n", "index-0"],
)
def test_constructor_refuses_a_bad_key(key, message):
    with pytest.raises(ValueError, match=message):
        SuperDiffOp(2, {key: SuperPolynomial.one(2)})


def test_compose_refuses_a_derivative_order_at_the_slot_limit():
    one = SuperPolynomial.one(2)
    top = SuperDiffOp.term(one, dp=(0, SLOT_LIMIT - 1))
    assert top.compose(SuperDiffOp.term(one, dp=(0, 0))) == top
    with pytest.raises(ValueError, match="slot limit"):
        top.compose(SuperDiffOp.term(one, dp=(0, 1)))


def _box(alpha):
    return product(*(range(a + 1) for a in alpha))


def test_even_leibniz_table_lists_the_surviving_splits():
    """Against the whole box of gamma <= a, delta <= b, with the factors computed term by term."""
    n = 2
    for a, b, e, f in product(_box((2, 1)), _box((1, 2)), _box((2, 1)), _box((1, 1))):
        want = []
        for gamma, delta in product(_box(a), _box(b)):
            factor = 1
            for top, order, g in zip(e + f, a + b, gamma + delta):
                factor *= comb(order, g) * perm(top, order - g)  # perm is 0 past the degree
            if factor:
                rest_x = tuple(t - o + g for t, o, g in zip(e, a, gamma))
                rest_p = tuple(t - o + g for t, o, g in zip(f, b, delta))
                want.append((rest_x, rest_p, gamma, delta, factor))
        xs = x_shift(n)
        table = diffop._even_leibniz(xs, pack(a + b), pack(e + f))
        got = []
        for loss, gain, fac in table:
            rest = tuple(t - lost for t, lost in zip(e + f, unpack(loss >> xs, 2 * n)))
            gained = unpack(gain >> xs, 2 * n)
            got.append((rest[:n], rest[n:], gained[:n], gained[n:], fac))
        assert sorted(got) == sorted(want)


def test_grassmann_leibniz_table_moves_the_word_past_the_entry():
    """dxi^I o xi^M == sum sign xi^(M - S) dxi^P on every xi monomial, by single derives."""
    n = 4
    masks = range(1 << n)
    for dmask, mask, other in product(masks, masks, masks):
        entry = SuperPolynomial.monomial(n, xi=xi_word(mask))
        f = SuperPolynomial.monomial(n, xi=xi_word(other))
        want = entry * f
        for index in reversed(xi_word(dmask)):
            want = want.derive("xi", index)
        got = SuperPolynomial.zero(n)
        for rest, passed, sign in diffop._odd_leibniz(dmask, mask):
            moved = f
            for index in reversed(xi_word(passed)):
                moved = moved.derive("xi", index)
            got = got + (SuperPolynomial.monomial(n, xi=xi_word(rest)) * moved).scale(sign)
        assert got == want


def test_lift_compositions_match_reference_and_action():
    sig = Signature(3, 1)
    gens = conformal_generators(sig)
    lifts = [hamiltonian_lift(X, sig) for X in gens]
    rng = random.Random(5)
    F = random_superpoly(rng, sig.n, terms=4, max_x=3, h_max=1)
    for A, B in rng.sample([(A, B) for A in lifts for B in lifts], 12):
        AB = A.compose(B)
        assert AB == ref_compose(A, B)
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
    A = SpinorDiffOp.from_items(sig, [(((1,), (2, 1)), SuperPolynomial.one(n))])
    B = SpinorDiffOp.from_items(sig, [(((1, 2), ()), SuperPolynomial.monomial(n, xexp=(1, 1)))])
    tables = []
    original = star._contractions

    def recorded(dim, pexp, xexp):
        tables.append((unpack(pexp, n), unpack(xexp, n), original(dim, pexp, xexp)))
        return tables[-1][2]

    monkeypatch.setattr(star, "_contractions", recorded)
    AB = A.compose(B)
    monkeypatch.undo()
    # d^(2,1) against x^(1,1): only the gamma <= (1,1), 4 of the 6 gamma <= (2,1),
    # are contracted, each with a nonzero factor C(p, gamma) x!/(x - gamma)!
    ((pexp, xexp, table),) = tables
    assert (pexp, xexp) == ((2, 1), (1, 1))
    assert [(unpack(pack(pexp) - g, n), unpack(pack(xexp) - g, n), slot_sum(g)) for g, _d, _f in table] == [
        ((2, 1), (1, 1), 0), ((2, 0), (1, 0), 1), ((1, 1), (0, 1), 1), ((1, 0), (0, 0), 2),
    ]
    # the factor of each gamma is h^order times its integer, and its key delta lowers
    # the x and p slots by gamma and raises the h slot by |gamma|
    assert [Scalar.h(slot_sum(g), factor) for g, _d, factor in table] == [
        Scalar.one(), Scalar.h(1, 1), Scalar.h(1, 2), Scalar.h(2, 2),
    ]
    xs = x_shift(n)
    assert [delta for _g, delta, _f in table] == [
        (slot_sum(g) << H_SHIFT) - (g << xs) - (g << xs + SLOT_BITS * n) for g, _d, _f in table
    ]
    assert AB == ref_spin_compose(A, B)


def ref_spin_from_items(sig, items):
    """The symbol of the sum of xcoeff * c^cliff * dx^dx, term by term through tuple keys."""
    n = sig.n
    symbol = SuperPolynomial.zero(n)
    for (cliff, dx), xcoeff in items:
        sorted_word = sort_xi_word(cliff)
        if sorted_word is None:
            continue
        sign, word = sorted_word
        symbol = symbol + SuperPolynomial(n, {
            (xexp, dx, word): coeff.mul_hpow(-sum(dx)) * sign for (xexp, _p, _xi), coeff in xcoeff.items()
        })
    return SpinorDiffOp(sig, symbol)


def ref_spin_items(op):
    """items() from the symbol's tuple keys: one block per (word, dx), h^|dx| moved into the coefficient."""
    n = op.n
    blocks: dict = {}
    for (xexp, pexp, word), coeff in op.symbol.items():
        blocks.setdefault((word, pexp), {})[(xexp, (0,) * n, ())] = coeff.mul_hpow(sum(pexp))
    return sorted((key, SuperPolynomial(n, terms)) for key, terms in blocks.items())


# every part 1, i, s, is and h powers -2..2
_spin_scalars = st.builds(
    lambda h, part, c: Scalar({(h, part): c}),
    st.integers(-2, 2),
    st.integers(0, 3),
    st.one_of(st.integers(-3, 3).filter(bool), st.sampled_from([Fraction(1, 2), Fraction(-2, 3)])),
)


@st.composite
def spin_items(draw, n):
    """((cliff, dx), xcoeff) items: words in any order, repeated indices allowed, dx up to 3."""
    words = st.lists(st.integers(1, n), max_size=n + 1).map(tuple)
    xcoeffs = st.dictionaries(_exps(n, 2), _spin_scalars, min_size=1, max_size=3).map(
        lambda terms: SuperPolynomial(n, {(xexp, (0,) * n, ()): c for xexp, c in terms.items()})
    )
    return draw(st.lists(st.tuples(st.tuples(words, _exps(n, 3)), xcoeffs), max_size=5))


@_settings
@given(st.data())
def test_spinor_items_round_trip(data):
    n = data.draw(st.integers(1, 4))
    p = data.draw(st.integers(0, n))
    sig = Signature(p, n - p)
    items = data.draw(spin_items(n))
    A = SpinorDiffOp.from_items(sig, items)
    assert A == ref_spin_from_items(sig, items)
    assert SpinorDiffOp.from_items(sig, A.items()) == A
    assert SpinorDiffOp.from_json(A.to_json(), sig) == A
    assert list(A.items()) == ref_spin_items(A)


def test_spinor_from_items_refusals():
    sig = Signature(2, 0)
    one = SuperPolynomial.one(2)
    refused = [
        (((1,), (0, 0)), SuperPolynomial.one(3)),  # coefficient dimension
        (((1,), (0, 0)), SuperPolynomial.var_p(2, 1)),  # a coefficient with p
        (((1,), (0, 0)), SuperPolynomial.var_xi(2, 2)),  # a coefficient with xi
        (((0,), (0, 0)), one),  # Clifford index 0
        (((1, 3), (0, 0)), one),  # Clifford index n + 1
        (((1,), (1,)), one),  # dx of the wrong length
        (((), (1, 0, 0)), one),
        # h^-|dx| below the h slot, alone or times the coefficient's h power
        (((), (SLOT_LIMIT // 2 + 1, 0)), one),
        (((), (SLOT_LIMIT // 2, SLOT_LIMIT // 2)), one),
        (((1,), (SLOT_LIMIT // 2, 0)), SuperPolynomial.constant(2, Scalar.h(-1))),
    ]
    for item in refused:
        with pytest.raises(ValueError):
            SpinorDiffOp.from_items(sig, [item])


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


@pytest.mark.parametrize("p,q", [(5, 5), (6, 2)])
def test_poisson_matches_reference_in_high_dimension(p, q):
    """Seeded operands with exponents in slot n - 1 and xi words that reach index n."""
    sig = Signature(p, q)
    n = sig.n
    rng = random.Random(n)
    top = (0,) * (n - 1)
    for _ in range(6):
        parity = rng.randint(0, 1)
        F = random_parity_homogeneous(rng, n, parity, terms=3) + SuperPolynomial.monomial(
            n, xexp=top + (2,), pexp=top + (1,), xi=(1, n)[: 2 - parity], coeff=rng.randint(1, 3))
        G = random_superpoly(rng, n, terms=4, max_x=2, h_max=1) + SuperPolynomial.monomial(
            n, xexp=top + (1,), pexp=top + (3,), xi=(n,), coeff=-2)
        assert poisson(F, G, sig) == ref_poisson(F, G, sig)


@pytest.mark.parametrize("p,q", [(0, 2), (0, 3), (1, 0)])
def test_poisson_matches_reference_at_p_zero_and_n_one(p, q):
    """Every eta^ii = -1 at p = 0, and a single xi at n = 1; the coefficients carry i, s,
    h^-1 and Fraction parts, and every stored value of the bracket is canonical."""
    sig = Signature(p, q)
    n = sig.n
    rng = random.Random(10 * p + q)
    factors = [Scalar({(-1, 1): Fraction(1, 2), (0, 2): -3}), Scalar({(1, 3): Fraction(-2, 3)}), Scalar.h(-1, 2)]
    for _ in range(40):
        parity = rng.randint(0, 1)
        F = (random_parity_homogeneous(rng, n, parity, terms=3).scale(rng.choice(factors))
             + random_parity_homogeneous(rng, n, parity, terms=2))
        G = random_superpoly(rng, n, terms=4, max_x=2, max_xi=n, h_max=1).scale(rng.choice(factors))
        got = poisson(F, G, sig)
        assert got == ref_poisson(F, G, sig)
        assert poisson(G.bidegree_component(0, 0), F, sig) == ref_poisson(G.bidegree_component(0, 0), F, sig)
        for value in got._terms.values():
            assert value and (type(value) is int or (type(value) is Fraction and value.denominator != 1))


def test_poisson_refuses_a_bracket_that_would_reach_the_slot_limit():
    n, sig = 2, Signature(1, 1)
    half = SLOT_LIMIT // 2

    def mono(x1, p1=0, xi=()):
        return SuperPolynomial.monomial(n, xexp=(x1, 0), pexp=(p1, 0), xi=xi)

    # one below the limit the bracket stays exact
    assert poisson(mono(half, 1), mono(half), sig) == mono(SLOT_LIMIT - 1).scale(half)
    for F, G in (
        (mono(half, 1), mono(half + 1)),  # the even part reaches x1^SLOT_LIMIT
        (mono(half + 1, 1), mono(half + 1, 1)),  # even when its two products cancel
        (mono(half, xi=(1,)), mono(half, xi=(1,))),  # the odd part
    ):
        with pytest.raises(ValueError, match="slot limit"):
            poisson(F, G, sig)



# -- operator sums and differences ------------------------------------------------------


def ref_binop(make, A, B, negate):
    """The earlier operator sum: a zero polynomial per key, rebuilt through the constructor."""
    terms = dict(A.items())
    for key, coeff in B.items():
        terms[key] = terms.get(key, SuperPolynomial.zero(A.n)) + (-coeff if negate else coeff)
    return make(terms)


def stored(op):
    """The stored coefficients: a SpinorDiffOp's symbol table, a SuperDiffOp's items."""
    return op.symbol._terms if isinstance(op, SpinorDiffOp) else dict(op.items())


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
