"""The flat term table of SuperPolynomial and its boundary with tuple keys.

Inside, a term is one packed int key -> rational, the key holding
(xp, pp, mask, hpow, part) (see superpoly's module docstring); outside, the constructor,
``items()`` and JSON speak ``(xexp, pexp, xi) -> Scalar``.
These tests check that the two views agree, that the packed exponents
never carry between slots, and that the kernels skip empty operands.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from supercot import diffop, invariants, superpoly, symplectic
from supercot.coeff import Scalar
from supercot.diffop import SuperDiffOp
from supercot.invariants import MAX_DIRAC_TERMS, Weights, dirac_power
from supercot.parse import MAX_EXPONENT
from supercot.star import standard_mul, star_mul
from supercot.superpoly import (
    H_BIAS, SLOT_LIMIT, Signature, SuperPolynomial, add_product, guard_mask, pack, pack_key, term_sort_key,
    unpack, unpack_key, xi_mask,
)
from supercot.symplectic import poisson

_settings = settings(derandomize=True, max_examples=60, deadline=None)

_rationals = st.one_of(st.integers(-4, 4), st.sampled_from([Fraction(1, 2), Fraction(-3, 4)]))
_scalars = st.dictionaries(
    st.tuples(st.integers(-2, 2), st.integers(0, 3)), _rationals, max_size=3
).map(Scalar)


def _exps(n):
    return st.tuples(*[st.one_of(st.integers(0, 3), st.just(SLOT_LIMIT - 1))] * n)


def _keys(n):
    words = st.sets(st.integers(1, n), max_size=n).map(lambda s: tuple(sorted(s)))
    return st.tuples(_exps(n), _exps(n), words)


@_settings
@given(st.data())
def test_tuple_keys_round_trip_through_the_flat_table(data):
    n = data.draw(st.integers(1, 8))
    terms = data.draw(st.dictionaries(_keys(n), _scalars, max_size=5))
    want = sorted(((k, c) for k, c in terms.items() if c), key=lambda kv: term_sort_key(kv[0]))
    F = SuperPolynomial(n, terms)
    assert list(F.items()) == want
    assert len(F) == len(want)
    stored = dict(F.items())
    for key, coeff in terms.items():
        assert stored.get(key, Scalar.zero()) == coeff
    assert F.to_json() == {
        "n": n,
        "terms": [
            {"x": list(x), "p": list(p), "xi": list(xi), "coeff": c.to_json()}
            for (x, p, xi), c in want
        ],
    }
    assert SuperPolynomial.from_json(F.to_json()) == F
    # one flat entry per monomial and basis element, every value canonical
    assert len(F._terms) == sum(len(c._terms) for _k, c in want)
    assert all(type(v) is int or (type(v) is Fraction and v.denominator > 1) for v in F._terms.values())


@_settings
@given(st.data())
def test_equal_polynomials_built_in_different_orders_are_equal_and_hash_equal(data):
    n = data.draw(st.integers(1, 4))
    terms = list(data.draw(st.dictionaries(_keys(n), _scalars, min_size=1, max_size=6)).items())
    shuffled = data.draw(st.permutations(terms))
    F = SuperPolynomial(n, dict(terms))
    G = SuperPolynomial(n, dict(shuffled))
    H = SuperPolynomial.zero(n)
    for (xexp, pexp, xi), coeff in shuffled:
        # split each coefficient across two summands, so that H's table is built by accumulation
        for part in (coeff + 1, Scalar.rational(-1)):
            H = H + SuperPolynomial.monomial(n, xexp, pexp, xi, part)
    J = SuperPolynomial.from_json({"n": n, "terms": list(reversed(F.to_json()["terms"]))})
    for other in (G, H, J):
        assert other == F and hash(other) == hash(F)
        assert other.to_json() == F.to_json() and str(other) == str(F)


def test_from_json_builds_in_one_pass_and_accumulates_duplicates(monkeypatch):
    symbol = dirac_power(10, Signature(4, 0)).symbol
    data = symbol.to_json()

    def refuse(self, other):
        raise AssertionError("from_json must not rebuild the polynomial by repeated +")

    monkeypatch.setattr(SuperPolynomial, "__add__", refuse)
    assert SuperPolynomial.from_json(data) == symbol
    # duplicate records accumulate, and a record that cancels drops the term
    record = data["terms"][0]
    twice = SuperPolynomial.from_json({"n": 4, "terms": [record, record]})
    assert twice == SuperPolynomial(4, {tuple(map(tuple, (record["x"], record["p"], record["xi"]))):
                                        Scalar.from_json(record["coeff"]) * 2})
    negated = dict(record, coeff=(-Scalar.from_json(record["coeff"])).to_json())
    assert SuperPolynomial.from_json({"n": 4, "terms": [record, negated]}).is_zero()


# -- the carry guard ------------------------------------------------------------------------


def test_exponents_at_the_slot_limit_are_refused_at_the_boundary():
    with pytest.raises(ValueError):
        SuperPolynomial.monomial(2, xexp=(SLOT_LIMIT, 0))
    with pytest.raises(ValueError):
        SuperPolynomial(2, {((0, 0), (0, SLOT_LIMIT), ()): Scalar.one()})
    with pytest.raises(ValueError):
        SuperPolynomial.from_json({"n": 1, "terms": [
            {"x": [SLOT_LIMIT], "p": [0], "xi": [], "coeff": Scalar.one().to_json()}
        ]})


def test_partial_refuses_a_multi_index_that_would_reach_other_slots():
    F = SuperPolynomial.monomial(2, xexp=(1, 1), pexp=(1, 1), xi=(1, 2))
    # packed, a third x order would read p1, and xi3 would read x1
    with pytest.raises(ValueError, match="length n"):
        F.partial(dx=(0, 0, 1))
    with pytest.raises(ValueError, match="length n"):
        F.partial(dp=(1,))
    with pytest.raises(IndexError):
        F.partial(dxi=(3,))
    with pytest.raises(IndexError):
        F.partial(dxi=(0,))
    assert F.partial(dx=(0, 1), dp=(1, 0), dxi=(2,)) == -SuperPolynomial.monomial(2, xexp=(1, 0), pexp=(0, 1), xi=(1,))


def test_a_product_that_would_reach_the_slot_limit_raises():
    n, sig = 2, Signature(2, 0)
    half = SLOT_LIMIT // 2
    x_top = SuperPolynomial.monomial(n, xexp=(half, 0), xi=(1,))
    # just below the limit the slots stay exact and apart: no carry into slot 1
    below = x_top * SuperPolynomial.monomial(n, xexp=(half - 1, 1))
    ((key, _c),) = below.items()
    assert key == ((SLOT_LIMIT - 1, 1), (0, 0), (1,))
    assert unpack(unpack_key(next(iter(below._terms)), n)[0], n) == (SLOT_LIMIT - 1, 1)
    p_top = SuperPolynomial.monomial(n, pexp=(0, half))
    for product in (
        lambda: x_top * x_top.derive("xi", 1),
        lambda: p_top * p_top,
        lambda: add_product({}, p_top, p_top),
        lambda: star_mul(x_top, x_top, sig),
        lambda: standard_mul(p_top, p_top, sig),
    ):
        with pytest.raises(ValueError, match="slot limit"):
            product()


@pytest.mark.parametrize("n", [1, 4, 20])
def test_boundary_keys_round_trip_through_the_packed_int(n):
    """Exponents 0, 1 and SLOT_LIMIT - 1 in the first and last slots, h powers down to
    -MAX_EXPONENT and out to both ends of the h slot, every part and the full word."""
    rng = random.Random(n)
    exps = [(0,) * n, (SLOT_LIMIT - 1,) + (0,) * (n - 1), (0,) * (n - 1) + (SLOT_LIMIT - 1,),
            tuple(rng.choice((0, 1, SLOT_LIMIT - 1)) for _ in range(n))]
    words = [(), (1,), (n,), tuple(range(1, n + 1))]
    hpows = [-MAX_EXPONENT, -1, 0, MAX_EXPONENT, -H_BIAS, H_BIAS - 1]
    guard = guard_mask(n)
    for xexp in exps:
        for pexp in exps[::-1]:
            for word in words:
                for hpow in hpows:
                    for part in range(4):
                        key = pack_key(n, pack(xexp), pack(pexp), xi_mask(word), hpow, part)
                        assert not key & guard
                        assert unpack_key(key, n) == (pack(xexp), pack(pexp), xi_mask(word), hpow, part)
                        coeff = Scalar({(hpow, part): Fraction(-3, 2)})
                        F = SuperPolynomial(n, {(xexp, pexp, word): coeff})
                        assert list(F._terms.items()) == [(key, Fraction(-3, 2))]
                        assert list(F.items()) == [((xexp, pexp, word), coeff)]
                        assert SuperPolynomial.from_json(F.to_json()) == F


@pytest.mark.parametrize("n", [1, 4, 20])
def test_the_guard_refuses_an_x_p_or_h_slot_past_its_limit(n):
    half = SLOT_LIMIT // 2
    last = (0,) * (n - 1)
    x_top = SuperPolynomial.monomial(n, xexp=last + (half,))
    p_top = SuperPolynomial.monomial(n, pexp=last + (half,))
    h_top = SuperPolynomial.constant(n, Scalar.h(H_BIAS - 1))
    h_bottom = SuperPolynomial.constant(n, Scalar.h(-H_BIAS))
    assert (x_top * SuperPolynomial.monomial(n, xexp=last + (half - 1,))).x_degree() == SLOT_LIMIT - 1
    assert h_top * h_bottom == SuperPolynomial.constant(n, Scalar.h(-1))
    for F, G in ((x_top, x_top), (p_top, p_top), (h_top, SuperPolynomial.constant(n, Scalar.h(1))),
                 (h_bottom, SuperPolynomial.constant(n, Scalar.h(-1)))):
        with pytest.raises(ValueError, match="slot limit"):
            F * G
        with pytest.raises(ValueError, match="slot limit"):
            standard_mul(F, G, Signature(n, 0))
    for hpow in (H_BIAS, -H_BIAS - 1):
        with pytest.raises(ValueError, match="h power"):
            SuperPolynomial.constant(n, Scalar.h(hpow))
        with pytest.raises(ValueError, match="slot limit"):
            SuperPolynomial.one(n).scale(Scalar.h(hpow))


def test_search_column_tags_survive_at_the_largest_admitted_ansatz():
    """(14,0) D(2,2) with h-degree 1, 19,110 columns: the tag above the p slots reads back
    the column of every entry, as applying each operator to one monomial gives it."""
    sig = Signature(14, 0)
    weights = Weights.operator(Fraction(3, 7), Fraction(1, 2))
    monomials = invariants._ansatz_monomials(sig, 2, 2, 0, 1)
    assert len(monomials) == 19_110
    rows = invariants._linear_system(sig, "D", weights, monomials)
    by_column: dict = {}
    for row in rows:
        for col, value in row.items():
            by_column.setdefault(col, []).append(value)
    assert set(by_column) == set(range(len(monomials)))
    ops = [invariants._action_operator("D", gen, weights, sig) for gen in invariants.conformal_generating_set(sig)]
    for col in (0, 1, 9_554, len(monomials) - 2, len(monomials) - 1):
        want = [value for op in ops for value in op.apply(monomials[col])._terms.values()]
        assert sorted(by_column[col]) == sorted(want), col


def test_every_cli_input_stays_far_below_the_slot_limit():
    """No CLI input reaches the guard.

    The parser caps each exponent at MAX_EXPONENT and has no power of a
    parenthesised expression, so reaching SLOT_LIMIT takes over two
    million factors x1^1000 in one input; dirac-power admits s up to
    about 20,000 at n = 2, whose symbol has p-degree 2s + 1.
    """
    assert MAX_EXPONENT * 2_000 < SLOT_LIMIT
    largest_s = MAX_DIRAC_TERMS // 4  # n C(s+n-1, n-1) n = 4(s + 1) at n = 2
    assert 2 * largest_s + 1 < SLOT_LIMIT // 10_000


# -- the eliminator's input ------------------------------------------------------------------


def test_linear_system_values_are_fractions():
    # exact nonzero rationals in the table's canonical form: int when
    # integral, Fraction otherwise, never float
    sig = Signature(2, 0)
    monomials = invariants._ansatz_monomials(sig, 1, 1, 1, 1)
    for tag, weights in (("S", Weights.symbol(Fraction(1, 2))), ("D", Weights.operator(0, 1))):
        rows = invariants._linear_system(sig, tag, weights, monomials)
        assert rows
        assert all(
            v and (type(v) is int or type(v) is Fraction and v.denominator > 1)
            for row in rows for v in row.values()
        )


# -- empty operands ---------------------------------------------------------------------------


def _record_add_product(monkeypatch, module):
    calls = []
    original = superpoly.add_product

    def recorded(terms, left, right, factor=1):
        calls.append((left, right))
        return original(terms, left, right, factor)

    monkeypatch.setattr(module, "add_product", recorded)
    return calls


def _record_product_loop(monkeypatch, module):
    """Record the calls of the product loop that add_product and SuperDiffOp.apply share."""
    calls = []
    original = superpoly.accumulate

    def recorded(terms, rows, right_items, guard):
        calls.append((rows, dict(right_items)))
        return original(terms, rows, right_items, guard)

    monkeypatch.setattr(module, "accumulate", recorded)
    return calls


def test_apply_skips_the_blocks_that_do_not_reach_the_polynomial(monkeypatch):
    n = 2
    D = (SuperDiffOp.term(SuperPolynomial.var_p(n, 1), dx=(2, 0))
         + SuperDiffOp.term(SuperPolynomial.one(n), dxi=(2,))
         + SuperDiffOp.term(SuperPolynomial.var_x(n, 2), dp=(0, 1)))
    calls = _record_product_loop(monkeypatch, diffop)
    F = SuperPolynomial.monomial(n, xexp=(1, 3), pexp=(1, 0), xi=(1,))
    assert D.apply(F).is_zero()
    assert calls == []
    G = F + SuperPolynomial.var_xi(n, 2)
    assert D.apply(G) == SuperPolynomial.one(n)
    # only the dxi^2 block reaches G, and it multiplies its derivative 1
    assert len(calls) == 1 and calls[0][1] == SuperPolynomial.one(n)._terms


def test_poisson_and_mul_skip_empty_operands(monkeypatch):
    sig = Signature(2, 0)
    n = sig.n
    listed = []
    original = symplectic._bracket_terms

    def recorded(table, n):
        listed.append(table)
        return original(table, n)

    monkeypatch.setattr(symplectic, "_bracket_terms", recorded)
    # an empty operand returns before any per-term work
    assert poisson(SuperPolynomial.zero(n), SuperPolynomial.var_x(n, 1), sig).is_zero()
    assert poisson(SuperPolynomial.var_p(n, 1), SuperPolynomial.zero(n), sig).is_zero()
    assert listed == []
    assert poisson(SuperPolynomial.var_p(n, 1), SuperPolynomial.var_p(n, 2), sig).is_zero()
    assert poisson(SuperPolynomial.var_p(n, 1), SuperPolynomial.var_x(n, 1), sig) == SuperPolynomial.one(n)
    calls = _record_add_product(monkeypatch, superpoly)
    assert (SuperPolynomial.zero(n) * SuperPolynomial.var_x(n, 1)).is_zero()
    assert (SuperPolynomial.var_x(n, 1) * SuperPolynomial.zero(n)).is_zero()
    assert calls == []


def test_scale_by_a_scalar_expands_it_once():
    rng = random.Random(4)
    n = 3
    F = SuperPolynomial.zero(n)
    for _ in range(6):
        F = F + SuperPolynomial.monomial(
            n, xexp=[rng.randint(0, 2) for _ in range(n)], xi=rng.sample(range(1, n + 1), 2),
            coeff=Scalar({(rng.randint(-1, 1), rng.randint(0, 3)): rng.choice([1, -2, Fraction(1, 3)])}),
        )
    factor = Scalar({(1, 1): 1, (1, 2): Fraction(-1, 2)})  # h (i - s/2), invertible
    want = SuperPolynomial(n, {key: coeff * factor for key, coeff in F.items()})
    assert F.scale(factor) == want == F * factor
    assert F.scale(factor).scale(factor.inv()) == F
