from fractions import Fraction
from math import comb

import pytest

from supercot.coeff import Scalar
from supercot.confmod import normal_order
from supercot.invariants import (
    CanonicalSymbol,
    Weights,
    _action_operator,
    canonical_symbol,
    check_invariance,
    dirac_power,
    predicted_dimension,
    search_invariants,
)
from supercot.matutil import kernel
from supercot.parse import sp_parse
from supercot.star import star_mul
from supercot.superpoly import Signature, SuperPolynomial
from supercot.symplectic import conformal_generators, poisson

E2 = Signature(2, 0)
P2 = lambda text: sp_parse(text, 2)


def test_canonical_symbols():
    chi = canonical_symbol("chi", E2)
    assert chi.poly == P2("2*xi1*xi2") and chi.delta == 0
    delta = canonical_symbol("Delta", E2)
    assert delta.poly == P2("p1*xi1 + p2*xi2") and delta.delta == Fraction(1, 2)
    R = canonical_symbol("R", E2)
    assert R.poly == P2("p1^2 + p2^2") and R.delta == 1
    lor = Signature(1, 1)
    assert canonical_symbol("R", lor).poly == P2("p1^2 - p2^2")
    dsc = canonical_symbol("DeltaStarChi", E2)
    assert dsc.poly == star_mul(delta.poly, chi.poly, E2)
    assert dsc.poly == P2("p2*xi1 - p1*xi2") and dsc.delta == Fraction(1, 2)
    # the star of Delta and chi is h/2 times their Poisson bracket
    assert dsc.poly == poisson(delta.poly, chi.poly, E2).scale(Scalar.h(1, Fraction(1, 2)))
    with pytest.raises(KeyError):
        canonical_symbol("nope", E2)


def test_weights_consistency():
    w = Weights.operator(Fraction(1, 4), Fraction(3, 4))
    assert w.delta == Fraction(1, 2)
    with pytest.raises(ValueError):
        Weights(delta=Fraction(1, 3), lam=Fraction(1, 4), mu=Fraction(3, 4))
    with pytest.raises(ValueError):
        Weights()


@pytest.mark.parametrize("half", [{"lam": Fraction(0)}, {"mu": Fraction(1, 2)}])
def test_half_a_pair_of_operator_weights_is_refused(half):
    # module D would otherwise fail with a TypeError on the missing weight
    with pytest.raises(ValueError, match="both lambda and mu"):
        Weights(delta=Fraction(1, 2), **half)


def test_check_invariance_examples():
    delta = canonical_symbol("Delta", E2).poly
    assert check_invariance(delta, "S", Weights.symbol(Fraction(1, 2)), E2).invariant
    R = canonical_symbol("R", E2).poly
    report = check_invariance(R, "S", Weights.symbol(1), E2)
    assert not report.invariant
    residuals = {name: res for name, res in report.residuals if not res.is_zero()}
    expected = (P2("xi1") * delta).scale(Scalar.h(1, -4))
    assert residuals["K1"] == expected
    assert check_invariance(R, "T", Weights.symbol(1), E2).invariant


def test_weight_rigidity():
    delta = canonical_symbol("Delta", E2).poly
    for num in (0, 2, 3):
        w = Weights.symbol(Fraction(num, 4))
        if w.delta == Fraction(1, 2):
            continue
        report = check_invariance(delta, "S", w, E2)
        failing = {name: res for name, res in report.residuals if not res.is_zero()}
        assert "D" in failing
        # homothety residual is (n delta - 1) Delta
        scale = 2 * w.delta - 1
        assert failing["D"] == delta.scale(Fraction(scale))


def test_exact_kernel():
    one, zero = Fraction(1), Fraction(0)
    assert kernel([{0: one, 1: zero}, {0: zero, 1: one}], 2) == []
    assert len(kernel([dict.fromkeys(range(4), zero)] * 2, 4)) == 4
    assert kernel([{0: one, 1: one}], 2) == [{0: -one, 1: one}]
    basis = kernel([{0: one, 1: 2, 2: 3}, {0: zero, 1: zero, 2: zero}], 3)
    assert basis == [{0: Fraction(-2), 1: one}, {0: Fraction(-3), 2: one}]
    # kernel vectors are actual solutions
    for vec in basis:
        assert vec.get(0, 0) * 1 + vec.get(1, 0) * 2 + vec.get(2, 0) * 3 == 0


def test_search_examples():
    res = search_invariants(E2, 1, 1, "S", Weights.symbol(Fraction(1, 2)))
    assert res.dimension == 2
    span = {str(b) for b in res.basis}
    assert span == {"-p1*xi2 + p2*xi1", "p1*xi1 + p2*xi2"}
    assert search_invariants(E2, 1, 0, "S", Weights.symbol(Fraction(1, 2))).dimension == 0
    sig4 = Signature(4, 0)
    res = search_invariants(sig4, 0, 4, "D", Weights.operator(Fraction(1, 3), Fraction(1, 3)))
    assert res.dimension == 1
    assert res.basis[0] == SuperPolynomial.monomial(4, xi=(1, 2, 3, 4))


def test_search_with_x_and_h_ansatz():
    # translation invariance really does force x-independence
    res = search_invariants(E2, 1, 1, "S", Weights.symbol(Fraction(1, 2)), x_degree=1)
    assert res.dimension == 2
    assert all(b.x_degree() == 0 for b in res.basis)
    # h-powers only rescale: each h-level contributes one copy
    res = search_invariants(E2, 0, 2, "T", Weights.symbol(0), h_degree=1)
    assert res.dimension == 2


def test_search_json_round_trip():
    res = search_invariants(E2, 1, 1, "S", Weights.symbol(Fraction(1, 2)))
    data = res.to_json()
    assert data["signature"] == [2, 0]
    assert data["bidegree"] == [1, 1]
    assert data["module"] == "S"
    assert data["weights"] == {"delta": "1/2"}
    assert data["dimension"] == 2
    rebuilt = [SuperPolynomial.from_json(b) for b in data["basis"]]
    assert rebuilt == list(res.basis)


def test_dirac_power_values():
    dp = dirac_power(0, E2)
    assert dp.weights.lam == Fraction(1, 4) and dp.weights.mu == Fraction(3, 4)
    from supercot.spinop import SpinorDiffOp

    expect = SpinorDiffOp.from_items(E2, [(((1,), (1, 0)), P2("h")), (((2,), (0, 1)), P2("h"))])
    assert dp.operator == expect
    dp1 = dirac_power(1, E2)
    # N(Delta R) equals N(Delta) composed with N(R) up to no cross terms:
    # all coefficients constant, so composition is concatenation
    NR = normal_order(canonical_symbol("R", E2).poly, E2)
    assert dp1.operator == dp.operator.compose(NR)
    sig4 = Signature(4, 0)
    assert dirac_power(1, sig4).weights.lam == Fraction(1, 8)
    assert dirac_power(1, sig4).weights.mu == Fraction(7, 8)
    with pytest.raises(ValueError):
        dirac_power(0, Signature(2, 1))


@pytest.mark.parametrize("p,q", [(2, 0), (1, 1), (4, 0), (3, 1), (2, 2)])
def test_dirac_power_is_an_odd_power_of_the_dirac_operator(p, q):
    # N(Delta) o N(Delta) = -N(R)/2, so N(Delta R^s) = (-2)^s N(Delta)^(2s+1)
    sig = Signature(p, q)
    n = sig.n
    N_delta = normal_order(canonical_symbol("Delta", sig).poly, sig)
    N_R = normal_order(canonical_symbol("R", sig).poly, sig)
    assert N_delta.compose(N_delta) == N_R.scale(Fraction(-1, 2))
    power = N_delta
    for s in range(4):
        dp = dirac_power(s, sig)
        assert dp.operator == power.scale((-2) ** s)
        assert len(dp.symbol) == n * comb(s + n - 1, n - 1)
        power = power.compose(N_delta).compose(N_delta)


def test_dirac_powers_invariant():
    for sig in (E2, Signature(1, 1)):
        for s in (0, 1):
            dp = dirac_power(s, sig)
            assert check_invariance(dp.operator, "D", dp.weights, sig).invariant
            off = Weights.operator(
                dp.weights.lam + Fraction(1, 100), dp.weights.mu + Fraction(1, 100)
            )
            assert not check_invariance(dp.operator, "D", off, sig).invariant


@pytest.mark.parametrize("s", range(3))
def test_check_residuals_are_the_per_generator_actions(s):
    sig = Signature(3, 1)
    dp = dirac_power(s, sig)
    shift = Fraction(1, 7)
    for weights in (dp.weights, Weights.operator(dp.weights.lam + shift, dp.weights.mu + shift)):
        report = check_invariance(dp.symbol, "D", weights, sig)
        want = [(X.name, _action_operator("D", X, weights, sig).apply(dp.symbol)) for X in conformal_generators(sig)]
        assert list(report.residuals) == want
        assert report.invariant == (weights == dp.weights)


def test_twisted_powers_also_invariant():
    # chirality times a Dirac power is invariant at the same weights: the
    # twisted odd powers, present for every s (not only s = 0)
    for sig in (E2, Signature(1, 1)):
        dsc = canonical_symbol("DeltaStarChi", sig).poly
        R = canonical_symbol("R", sig).poly
        w = Weights.operator(Fraction(sig.n - 3, 2 * sig.n), Fraction(sig.n + 3, 2 * sig.n))
        assert check_invariance(dsc * R, "D", w, sig).invariant


def test_predicted_dimensions_match_search_n2():
    for sig in (E2, Signature(1, 1)):
        for k in (0, 1, 2):
            for kappa in (0, 1, 2):
                w = Weights.symbol(Fraction(k, 2))
                for tag in ("T", "S"):
                    got = search_invariants(sig, k, kappa, tag, w).dimension
                    assert got == predicted_dimension(sig, k, kappa, tag, w), (k, kappa, tag)
                lam = Fraction(2 - k, 4)
                wd = Weights.operator(lam, lam + Fraction(k, 2))
                got = search_invariants(sig, k, kappa, "D", wd).dimension
                assert got == predicted_dimension(sig, k, kappa, "D", wd), (k, kappa)


def test_search_basis_reverified_by_checker():
    cases = [
        (E2, 1, 1, "S", Weights.symbol(Fraction(1, 2))),
        (E2, 0, 2, "T", Weights.symbol(0)),
        (Signature(1, 1), 3, 1, "D", Weights.operator(Fraction(-1, 4), Fraction(5, 4))),
    ]
    for sig, k, kappa, tag, w in cases:
        res = search_invariants(sig, k, kappa, tag, w)
        assert res.dimension > 0
        for b in res.basis:
            assert check_invariance(b, tag, w, sig).invariant


def test_grid_bases_invariant_under_every_generator():
    # the search solves the T1..Tn, K1 system only; on the criterion-08 grid
    # at resonant weights every basis vector must still pass the full check
    found = 0
    for sig in (E2, Signature(1, 1), Signature(4, 0), Signature(3, 1)):
        n = sig.n
        for k in range(0, 4):
            for kappa in range(0, n + 1):
                if 2 * k + kappa > 7:
                    continue
                delta = Fraction(k, n)
                lam = Fraction(n - k, 2 * n)
                for tag, w in (
                    ("T", Weights.symbol(delta)),
                    ("S", Weights.symbol(delta)),
                    ("D", Weights.operator(lam, lam + delta)),
                ):
                    res = search_invariants(sig, k, kappa, tag, w)
                    assert res.dimension == predicted_dimension(sig, k, kappa, tag, w)
                    for b in res.basis:
                        assert check_invariance(b, tag, w, sig).invariant, (sig, k, kappa, tag)
                    found += res.dimension
    assert found > 0
