import random
from fractions import Fraction

from supercot.clifford import build_spin_rep
from supercot.coeff import Scalar
from supercot.confmod import (
    act_D_direct,
    act_D_symbolside,
    act_S,
    act_T,
    normal_order,
    normal_order_inverse,
)
from supercot.parse import sp_parse
from supercot.randgen import random_bidegree, random_superpoly
from supercot.spinop import SpinorDiffOp
from supercot.superpoly import Signature, SuperPolynomial
from supercot.symplectic import conformal_generators, generator_by_name, poisson, vf_bracket

E2 = Signature(2, 0)
P2 = lambda text: sp_parse(text, 2)


def delta_poly(sig):
    n = sig.n
    out = SuperPolynomial.zero(n)
    for i in range(1, n + 1):
        out = out + SuperPolynomial.monomial(
            n, pexp=tuple(1 if k == i - 1 else 0 for k in range(n)), xi=(i,)
        )
    return out


def r_poly(sig):
    n = sig.n
    out = SuperPolynomial.zero(n)
    for i in range(1, n + 1):
        out = out + SuperPolynomial.monomial(
            n, pexp=tuple(2 if k == i - 1 else 0 for k in range(n)), coeff=sig.eta(i)
        )
    return out


def test_translation_acts_as_partial():
    rng = random.Random(17)
    T1 = generator_by_name(E2, "T1")
    for _ in range(5):
        F = random_superpoly(rng, 2, terms=4)
        assert act_T(T1, Fraction(1, 3), F, E2) == F.derive("x", 1)
        assert act_S(T1, Fraction(1, 3), F, E2) == F.derive("x", 1)


def test_tensorial_kills_R_at_weight():
    R = r_poly(E2)
    for name in ("K1", "K2"):
        assert act_T(generator_by_name(E2, name), Fraction(2, 2), R, E2).is_zero()


def test_tensorial_morphism_on_non_conformal_fields_too():
    # the tensorial action is a Vect(M)-action, not just conf
    rng = random.Random(18)
    from supercot.symplectic import VectorFieldOnM

    X = VectorFieldOnM(2, (P2("x1^2"), P2("0")))
    Y = VectorFieldOnM(2, (P2("0"), P2("x1*x2")))
    B = vf_bracket(X, Y)
    for _ in range(5):
        F = random_superpoly(rng, 2, terms=3)
        lhs = act_T(X, Fraction(1, 3), act_T(Y, Fraction(1, 3), F, E2), E2) - act_T(
            Y, Fraction(1, 3), act_T(X, Fraction(1, 3), F, E2), E2
        )
        assert lhs == act_T(B, Fraction(1, 3), F, E2)


def test_hamiltonian_action_values():
    Delta = delta_poly(E2)
    for name in ("K1", "K2"):
        assert act_S(generator_by_name(E2, name), Fraction(1, 2), Delta, E2).is_zero()
    R = r_poly(E2)
    residual = act_S(generator_by_name(E2, "K1"), 1, R, E2)
    assert residual == (P2("xi1") * Delta).scale(Scalar.h(1, -4))


def test_hamiltonian_vs_tensorial_difference():
    rng = random.Random(19)
    n = 2
    for X in conformal_generators(E2):
        for _ in range(3):
            F = random_superpoly(rng, n, terms=4)
            diff = act_S(X, Fraction(1, 3), F, E2) - act_T(X, Fraction(1, 3), F, E2)
            corr = SuperPolynomial.zero(n)
            for i in range(1, n + 1):
                dpF = F.derive("p", i)
                if dpF.is_zero():
                    continue
                acc = SuperPolynomial.zero(n)
                for k in range(1, n + 1):
                    for j in range(1, n + 1):
                        if k == j:
                            continue
                        hess = X.component(k).derive("x", i).derive("x", j)
                        if not hess.is_zero():
                            acc = acc + (
                                hess * SuperPolynomial.monomial(n, xi=(k, j))
                            ).scale(E2.eta(k))
                corr = corr + acc * dpF
            assert diff == corr.scale(Scalar.h(1, Fraction(-1, 2)))


def test_operator_action_on_R_powers_matches_closed_form():
    # residual of R^s under an inversion: 2sh[(2n lam + 2s - n) p_i - 2 xi_i Delta] R^(s-1)
    n = 2
    R = r_poly(E2)
    Delta = delta_poly(E2)
    for s in (1, 2):
        Rs = SuperPolynomial.one(n)
        for _ in range(s):
            Rs = Rs * R
        for lam_num in (0, 1, -1):
            lam = Fraction(lam_num, 4)
            mu = lam + Fraction(2 * s, n)
            for i in (1, 2):
                K = generator_by_name(E2, f"K{i}")
                got = act_D_symbolside(K, lam, mu, Rs, E2)
                Rs1 = SuperPolynomial.one(n)
                for _ in range(s - 1):
                    Rs1 = Rs1 * R
                pi = SuperPolynomial.var_p(n, i)
                xi_i = SuperPolynomial.var_xi(n, i).scale(E2.eta(i))
                closed = (
                    (pi.scale(2 * n * lam + 2 * s - n) - (xi_i * Delta).scale(2)) * Rs1
                ).scale(Scalar.h(1, 2 * s))
                assert got == closed, (s, lam, i)


def test_operator_action_on_delta_R_powers_matches_closed_form():
    # residual of Delta R^s: h(2s + 1 - n + 2n lam)(xi_i R^s + 2s p_i Delta R^(s-1))
    n = 2
    R = r_poly(E2)
    Delta = delta_poly(E2)
    for s in (0, 1):
        Rs = SuperPolynomial.one(n)
        for _ in range(s):
            Rs = Rs * R
        cand = Delta * Rs
        for lam_num in (-1, 0, 1, 2):
            lam = Fraction(lam_num, 8)
            mu = lam + Fraction(2 * s + 1, n)
            for i in (1, 2):
                K = generator_by_name(E2, f"K{i}")
                got = act_D_symbolside(K, lam, mu, cand, E2)
                xi_i = SuperPolynomial.var_xi(n, i).scale(E2.eta(i))
                pi = SuperPolynomial.var_p(n, i)
                Rs1 = SuperPolynomial.one(n)
                for _ in range(max(s - 1, 0)):
                    Rs1 = Rs1 * R
                inner = xi_i * Rs
                if s:
                    inner = inner + (pi * Delta * Rs1).scale(2 * s)
                closed = inner.scale(Scalar.h(1, 2 * s + 1 - n + 2 * n * lam))
                assert got == closed, (s, lam, i)
                if lam == Fraction(n - 2 * s - 1, 2 * n):
                    assert got.is_zero()


def test_chirality_invariant_at_equal_weights():
    chi = P2("2*xi1*xi2")
    for lam_num in (0, 1):
        lam = Fraction(lam_num, 3)
        for X in conformal_generators(E2):
            assert act_D_symbolside(X, lam, lam, chi, E2).is_zero()


def test_normal_order_examples():
    assert normal_order(P2("xi1*p2"), E2) == SpinorDiffOp.from_items(E2, [(((1,), (0, 1)), P2("h"))])
    assert normal_order(P2("1"), E2) == SpinorDiffOp.from_items(E2, [(((), ()), SuperPolynomial.one(2))])
    rng = random.Random(20)
    for _ in range(500):
        F = random_superpoly(rng, 2, terms=4, h_max=1)
        assert normal_order_inverse(normal_order(F, E2)) == F


def test_spinor_compose():
    c1hd1 = SpinorDiffOp.from_items(E2, [(((1,), (1, 0)), P2("h"))])
    assert c1hd1.compose(c1hd1) == SpinorDiffOp.from_items(E2, [(((), (2, 0)), P2("-1/2*h^2"))])
    hd1 = SpinorDiffOp.from_items(E2, [(((), (1, 0)), P2("h"))])
    x1 = SpinorDiffOp.from_items(E2, [(((), ()), P2("x1"))])
    assert hd1.compose(x1) == SpinorDiffOp.from_items(E2, [(((), (1, 0)), P2("x1*h")), (((), ()), P2("h"))])
    rng = random.Random(21)
    for _ in range(30):
        ops = []
        for _k in range(3):
            xcoeff = SuperPolynomial.monomial(
                2,
                xexp=(rng.randint(0, 1), rng.randint(0, 1)),
                coeff=rng.randint(-3, 3),
            )
            cliff = tuple(sorted(rng.sample((1, 2), rng.randint(0, 2))))
            dx = (rng.randint(0, 1), rng.randint(0, 1))
            ops.append(SpinorDiffOp.from_items(E2, [((cliff, dx), xcoeff)]))
        A, B, C = ops
        assert A.compose(B).compose(C) == A.compose(B.compose(C))


def test_route_equality_random():
    rng = random.Random(22)
    lam, mu = Fraction(1, 5), Fraction(1, 5) + Fraction(1, 2)
    gens = conformal_generators(E2)
    for t in range(40):
        X = gens[t % len(gens)]
        F = random_bidegree(rng, 2, rng.randint(0, 2), rng.randint(0, 2), terms=3)
        lhs = normal_order(act_D_symbolside(X, lam, mu, F, E2), E2)
        rhs = act_D_direct(X, lam, mu, normal_order(F, E2), E2)
        assert lhs == rhs


def test_dirac_invariance_direct():
    Dirac = SpinorDiffOp.from_items(E2, [(((1,), (1, 0)), P2("h")), (((2,), (0, 1)), P2("h"))])
    for X in conformal_generators(E2):
        assert act_D_direct(X, Fraction(1, 4), Fraction(3, 4), Dirac, E2).is_zero()
    # identity is invariant at equal weights
    identity = SpinorDiffOp.from_items(E2, [(((), ()), SuperPolynomial.one(2))])
    for X in conformal_generators(E2):
        assert act_D_direct(X, Fraction(1, 3), Fraction(1, 3), identity, E2).is_zero()


def test_principal_symbol():
    A = normal_order(P2("p1*xi1*p2^2"), E2)
    assert A.symbol.hamiltonian_components() == {7: P2("p1*xi1*p2^2")}
    # graded bracket of N(Delta) with itself: top symbol equals {Delta, Delta} = -R/h
    Delta = delta_poly(E2)
    ND = normal_order(Delta, E2)
    bracket = ND.graded_commutator(ND).scale(Scalar.h(-1))
    components = bracket.symbol.hamiltonian_components()
    assert max(components) == 4 and components[4] == poisson(Delta, Delta, E2)


def test_apply_spinor_matches_composition():
    rng = random.Random(23)
    rep = build_spin_rep(E2)
    A = SpinorDiffOp.from_items(E2, [(((1,), (1, 0)), P2("x2")), (((1, 2), ()), P2("1"))])
    B = SpinorDiffOp.from_items(E2, [(((2,), ()), P2("x1")), (((), (0, 1)), P2("1"))])
    psi = tuple(
        SuperPolynomial.monomial(2, xexp=(rng.randint(0, 2), rng.randint(0, 2)), coeff=rng.randint(-3, 3))
        for _ in range(rep.size)
    )
    via_compose = A.compose(B).apply_spinor(psi, rep)
    via_apply = A.apply_spinor(B.apply_spinor(psi, rep), rep)
    assert via_compose == via_apply


def test_dirac_invariance_direct_n4():
    sig = Signature(4, 0)
    n = 4
    Dirac = SpinorDiffOp(sig)
    for i in range(1, n + 1):
        dx = tuple(1 if k == i - 1 else 0 for k in range(n))
        Dirac = Dirac + SpinorDiffOp.from_items(sig, [(((i,), dx), SuperPolynomial.constant(n, Scalar.h()))])
    lam, mu = Fraction(3, 8), Fraction(5, 8)
    for X in conformal_generators(sig):
        assert act_D_direct(X, lam, mu, Dirac, sig).is_zero(), X.name
