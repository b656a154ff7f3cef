"""The fused action of SuperDiffOp and the weight-free confmod cores.

``SuperDiffOp.apply`` takes, per term, the packed derivative and the
coefficient's product rows, and accumulates every term in one table.
These tests compare the fused pass with the term-by-term sum
sum coeff * poly.partial(dx, dp, dxi), check that an operator applies the
same way before and after it is applied and that so do the operators
built from it, that the confmod builders and the spinor Lie derivative
differ across weights by exactly their weight terms, and that a search
looks each generator's operator up once.
"""

import random
from fractions import Fraction

import pytest

from supercot import confmod
from supercot.clifford import kosmann_lie
from supercot.coeff import Scalar
from supercot.diffop import SuperDiffOp
from supercot.invariants import Weights, _ansatz_monomials, search_invariants
from supercot.randgen import random_superpoly
from supercot.spinop import SpinorDiffOp
from supercot.superpoly import SLOT_LIMIT, Signature, SuperPolynomial
from supercot.symplectic import conformal_generators, divergence, hessian, vf_bracket

SIGS = [Signature(3, 1), Signature(2, 2)]
CACHES = ("tensorial_operator", "hamiltonian_operator", "operator_symbol_action")


def term_by_term(op, poly):
    """The reference action: one partial and one product per term."""
    out = SuperPolynomial.zero(op.n)
    for (dxi, dx, dp), coeff in op.items():
        out = out + coeff * poly.partial(dx, dp, dxi)
    return out


def _scalar(rng):
    """A nonzero scalar of one or two parts among 1, i, s, is, at h^-1, h^0 or h^1."""
    parts = {}
    for _ in range(rng.randint(1, 2)):
        value = rng.choice([1, -2, 3, Fraction(1, 2), Fraction(-2, 3)])
        parts[(rng.randint(-1, 1), rng.randint(0, 3))] = value
    return Scalar(parts)


def _seeded_poly(rng, n, terms=4):
    out = SuperPolynomial.zero(n)
    for _ in range(terms):
        out = out + SuperPolynomial.monomial(
            n,
            xexp=[rng.randint(0, 2) for _ in range(n)],
            pexp=[rng.randint(0, 2) for _ in range(n)],
            xi=sorted(rng.sample(range(1, n + 1), rng.randint(0, n))),
            coeff=_scalar(rng),
        )
    return out


def _seeded_op(rng, n):
    op = SuperDiffOp(n)
    for _ in range(rng.randint(1, 4)):
        op = op + SuperDiffOp.term(
            _seeded_poly(rng, n, terms=3),
            dxi=sorted(rng.sample(range(1, n + 1), rng.randint(0, min(2, n)))),
            dx=[rng.randint(0, 1) for _ in range(n)],
            dp=[rng.randint(0, 1) for _ in range(n)],
        )
    return op


def test_fused_apply_equals_the_term_by_term_sum_on_seeded_operators():
    rng = random.Random(10)
    for _ in range(60):
        n = rng.randint(1, 3)
        op = _seeded_op(rng, n)
        for _ in range(3):  # one operator applied to several polynomials in turn
            F = _seeded_poly(rng, n, terms=5)
            assert op.apply(F) == term_by_term(op, F)


def _confmod_operators(sig):
    """Every cached confmod operator of the generators at two weights each, and the cores."""
    third, seventh = Fraction(1, 3), Fraction(-2, 7)
    for X in conformal_generators(sig):
        yield confmod._tensorial_core(X, sig)
        yield confmod._symbol_core(X, sig)
        for delta in (third, Fraction(sig.n)):
            yield confmod.tensorial_operator(X, delta, sig)
            yield confmod.hamiltonian_operator(X, delta, sig)
        for lam, mu in ((Fraction(0), third), (seventh, third)):
            yield confmod.operator_symbol_action(X, lam, mu, sig)


@pytest.mark.parametrize("sig", SIGS, ids=str)
def test_fused_apply_equals_the_term_by_term_sum_on_confmod_operators(sig):
    rng = random.Random(sig.p)
    polys = [random_superpoly(rng, sig.n, terms=4, max_x=2, h_max=1) for _ in range(2)]
    for op in _confmod_operators(sig):
        for F in polys:
            assert op.apply(F) == term_by_term(op, F)


def test_a_product_that_reaches_the_slot_limit_raises_through_apply():
    n = 2
    top = SuperPolynomial.monomial(n, xexp=(SLOT_LIMIT - 1, 0))
    x1 = SuperPolynomial.var_x(n, 1)
    with pytest.raises(ValueError, match="slot limit"):
        SuperDiffOp.term(top).apply(x1)
    with pytest.raises(ValueError, match="slot limit"):
        SuperDiffOp.term(top, dp=(0, 1)).apply(x1 * SuperPolynomial.var_p(n, 2))


def test_operators_built_from_an_applied_one_apply_term_by_term():
    rng = random.Random(3)
    n = 3
    op, other = _seeded_op(rng, n), _seeded_op(rng, n)
    F = _seeded_poly(rng, n, terms=5)
    first = op.apply(F)
    for new in (op + other, op - other, -op, op.scale(Fraction(2, 3)), op.compose(other)):
        assert new.apply(F) == term_by_term(new, F)
    assert (op + other).apply(F) == first + other.apply(F)
    assert op.apply(F) == first


def _lookups():
    infos = [getattr(confmod, name).cache_info() for name in CACHES]
    return sum(info.hits + info.misses for info in infos)


@pytest.mark.parametrize(
    "tag,weights",
    [("T", Weights.symbol(Fraction(1, 4))), ("S", Weights.symbol(Fraction(1, 4))),
     ("D", Weights.operator(Fraction(3, 8), Fraction(5, 8)))],
)
def test_a_search_looks_each_generator_up_once(tag, weights):
    sig = Signature(3, 1)
    sizes = []
    for x_degree in (0, 1):
        before = _lookups()
        search_invariants(sig, 1, 1, tag, weights, x_degree=x_degree)
        assert _lookups() - before == sig.n + 1
        sizes.append(len(_ansatz_monomials(sig, 1, 1, x_degree, 0)))
    assert sizes[0] < sizes[1]


def _unit(n, j):
    return tuple(1 if k == j - 1 else 0 for k in range(n))


@pytest.mark.parametrize("sig", [Signature(2, 0)] + SIGS, ids=str)
def test_the_builders_differ_across_weights_by_their_weight_terms(sig):
    n = sig.n
    d1, d2 = Fraction(2, 3), Fraction(-1, 5)
    (l1, m1), (l2, m2) = (Fraction(1, 7), Fraction(1, 2)), (Fraction(-3, 4), Fraction(0))
    for X in conformal_generators(sig):
        div = divergence(X)
        density = SuperDiffOp.term(div.scale(d1 - d2))
        T = confmod.tensorial_operator
        S = confmod.hamiltonian_operator
        assert T(X, d1, sig) - T(X, d2, sig) == density
        assert S(X, d1, sig) - S(X, d2, sig) == density
        assert T(X, Fraction(0), sig) == confmod._tensorial_core(X, sig)
        # (mu - lam) div X - h lam d_j(div X) dp_j
        want = SuperDiffOp.term(div.scale((m1 - l1) - (m2 - l2)))
        for j in range(1, n + 1):
            want = want + SuperDiffOp.term(
                div.derive("x", j).scale(Scalar.h(1, -(l1 - l2))), dp=_unit(n, j)
            )
        D = confmod.operator_symbol_action
        assert D(X, l1, m1, sig) - D(X, l2, m2, sig) == want
        assert D(X, Fraction(0), Fraction(0), sig) == confmod._symbol_core(X, sig)


@pytest.mark.parametrize("sig", SIGS, ids=str)
def test_weighted_builders_are_the_weight_free_ones_plus_their_weight_terms(sig):
    n = sig.n
    gens = conformal_generators(sig)
    third, seventh = Fraction(1, 3), Fraction(-2, 7)
    for X in dict.fromkeys(gens + [vf_bracket(X, Y) for X in gens for Y in gens]):
        div = divergence(X)
        for w in (third, seventh):
            density = SpinorDiffOp.from_items(sig, [(((), ()), div.scale(w))])
            assert kosmann_lie(X, sig, w) == kosmann_lie(X, sig) + density
        hess = hessian(X)
        grads = [sum((hess[i, i, j] for i in range(1, n + 1) if (i, i, j) in hess), SuperPolynomial.zero(n))
                 for j in range(1, n + 1)]
        for lam, mu in ((third, seventh), (seventh, third)):
            # (mu - lam) div X - h lam d_j(div X) dp_j
            want = SuperDiffOp.term(div.scale(mu - lam))
            for j, grad in enumerate(grads, 1):
                want = want + SuperDiffOp.term(grad.scale(Scalar.h(1, -lam)), dp=_unit(n, j))
            D = confmod.operator_symbol_action
            assert D(X, lam, mu, sig) - D(X, Fraction(0), Fraction(0), sig) == want
