"""The one-table graded commutator of normal-order symbols, and the direct route built on it.

``star.standard_commutator`` (behind ``SpinorDiffOp.graded_commutator``)
computes A o B - (-1)^(|A||B|) B o A without either composition: of each
pair of terms it keeps the juxtaposition split twice when the two Clifford
words share an odd number of indices and drops it otherwise.  These tests
hold it to the difference of the two compositions, and ``act_D_direct``,
which brackets with the spinor Lie derivative at weight lambda, to the
two compositions sL^mu_X o A - A o sL^lambda_X.
"""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from supercot.clifford import kosmann_lie
from supercot.coeff import Scalar
from supercot.confmod import act_D_direct
from supercot.spinop import SpinorDiffOp
from supercot.star import standard_commutator
from supercot.superpoly import Signature, SuperPolynomial
from supercot.symplectic import conformal_generators, vf_bracket

_settings = settings(derandomize=True, max_examples=60, deadline=None)

SIGS = [
    Signature(1, 0), Signature(0, 1), Signature(2, 0), Signature(1, 1), Signature(2, 1), Signature(0, 3),
    Signature(3, 1), Signature(2, 2), Signature(4, 0),
]
EVEN_SIGS = [Signature(2, 0), Signature(1, 1), Signature(3, 1), Signature(2, 2)]

# every scalar part 1, i, s, is, h powers on both sides of 0, integral and not
_scalars = st.builds(
    lambda h, part, c: Scalar({(h, part): c}),
    st.integers(-2, 2),
    st.integers(0, 3),
    st.one_of(st.integers(-3, 3).filter(bool), st.sampled_from([Fraction(1, 2), Fraction(-2, 3)])),
)


def _words(n, parity=None):
    return [w for k in range(n + 1) for w in combinations(range(1, n + 1), k) if parity is None or k % 2 == parity]


@st.composite
def _xcoeffs(draw, n):
    exps = st.tuples(*[st.integers(0, 2)] * n)
    terms = draw(st.dictionaries(exps, _scalars, min_size=1, max_size=3))
    return SuperPolynomial(n, {(x, (0,) * n, ()): c for x, c in terms.items()})


@st.composite
def spinops(draw, sig, parity=None):
    """An operator whose Clifford words all have the given parity, or any words if None."""
    n = sig.n
    keys = st.tuples(st.sampled_from(_words(n, parity)), st.tuples(*[st.integers(0, 2)] * n))
    return SpinorDiffOp.from_items(sig, draw(st.dictionaries(keys, _xcoeffs(n), max_size=4)).items())


def _two_compositions(A, B, sign):
    return A.compose(B) - B.compose(A).scale(sign)


def _canonical(op):
    return all(v and (type(v) is int or v.denominator > 1) for v in op.symbol._terms.values())


@_settings
@given(st.data())
def test_graded_commutator_is_the_difference_of_two_compositions(data):
    sig = data.draw(st.sampled_from(SIGS))
    pa, pb = data.draw(st.integers(0, 1)), data.draw(st.integers(0, 1))
    A, B = data.draw(spinops(sig, pa)), data.draw(spinops(sig, pb))
    want = _two_compositions(A, B, -1 if pa and pb else 1)
    got = A.graded_commutator(B)
    assert got == want
    assert standard_commutator(A.symbol, B.symbol, sig) == want.symbol
    assert _canonical(got)


def test_every_pair_of_clifford_words_brackets_as_two_compositions():
    """Single-term operators on every pair of words at n = 3: the words share 0 to 3
    indices, so both parities of the shared count meet both term parities."""
    sig = Signature(2, 1)
    n = sig.n
    coeff = SuperPolynomial(n, {((1, 0, 2), (0,) * n, ()): Scalar({(1, 2): Fraction(1, 2), (-1, 1): 3})})
    other = SuperPolynomial(n, {((0, 2, 1), (0,) * n, ()): Scalar({(0, 3): -2, (2, 0): 1})})
    shared_counts = set()
    for u in _words(n):
        for w in _words(n):
            A = SpinorDiffOp.from_items(sig, [((u, (1, 0, 2)), coeff)])
            B = SpinorDiffOp.from_items(sig, [((w, (2, 1, 0)), other)])
            sign = -1 if len(u) % 2 and len(w) % 2 else 1
            assert A.graded_commutator(B) == _two_compositions(A, B, sign), (u, w)
            shared_counts.add(len(set(u) & set(w)))
    assert shared_counts == {0, 1, 2, 3}


def test_an_odd_operator_refuses_an_inhomogeneous_one():
    sig = Signature(2, 0)
    n = sig.n
    one = SuperPolynomial.one(n)
    odd = SpinorDiffOp.from_items(sig, [(((1,), (1, 0)), one)])
    even = SpinorDiffOp.from_items(sig, [(((1, 2), ()), SuperPolynomial.var_x(n, 1))])
    mixed = odd + even
    for left, right in ((odd, mixed), (mixed, odd), (mixed, even)):
        with pytest.raises(ValueError, match="not parity-homogeneous"):
            left.graded_commutator(right)
    # an even left operator reads no parity of the right one: the bracket is A B - B A
    assert even.graded_commutator(mixed) == _two_compositions(even, mixed, 1)


@_settings
@given(st.data())
def test_direct_route_equals_its_two_compositions(data):
    sig = data.draw(st.sampled_from(EVEN_SIGS))
    gens = conformal_generators(sig)
    X = data.draw(st.sampled_from(gens + [vf_bracket(gens[0], gens[-1]), vf_bracket(gens[-1], gens[sig.n])]))
    weights = st.fractions(min_value=-2, max_value=2, max_denominator=12)
    lam, mu = data.draw(weights), data.draw(weights)
    A = data.draw(spinops(sig))  # any words: the Lie derivative is even
    want = kosmann_lie(X, sig, mu).compose(A) - A.compose(kosmann_lie(X, sig, lam))
    got = act_D_direct(X, lam, mu, A, sig)
    assert got == want
    assert _canonical(got)
