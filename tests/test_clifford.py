import hashlib
import json
import random
from fractions import Fraction

import pytest

from oracle_clifford import oracle_star
from supercot import clifford
from supercot.clifford import (
    build_spin_rep,
    kosmann_lie,
    prequant_op,
    weyl_bracket_check,
)
from supercot.coeff import Scalar
from supercot.invariants import dirac_power
from supercot.matutil import (
    anticommutator,
    dense,
    identity,
    mat_add,
    mat_mul,
    mat_scale,
    to_json,
)
from supercot.parse import sp_parse
from supercot.randgen import random_xi_homogeneous, random_xi_poly
from supercot.spinop import SpinorDiffOp
from supercot.star import star_mul
from supercot.superpoly import Signature, SuperPolynomial
from supercot.symplectic import (
    NotConformalError,
    VectorFieldOnM,
    comoment_even,
    conformal_generators,
    generator_by_name,
    vf_bracket,
)
from supercot.confmod import normal_order
from supercot.verify import _anticommutation_failures

E2 = Signature(2, 0)
P2 = lambda text: sp_parse(text, 2)


def test_star_generator_values():
    assert star_mul(P2("xi1"), P2("xi1"), E2) == P2("-1/2")
    assert star_mul(P2("xi1"), P2("xi2"), E2) == P2("xi1*xi2")
    # frozen from the ordered-rewriting oracle: c1 c2 c1 c2 = -1/4
    assert star_mul(P2("xi1*xi2"), P2("xi1*xi2"), E2) == P2("-1/4")
    lor = Signature(1, 1)
    assert star_mul(P2("xi2"), P2("xi2"), lor) == P2("1/2")


def test_star_against_oracle():
    rng = random.Random(13)
    for sig in (Signature(3, 0), Signature(2, 1), Signature(2, 2)):
        n = sig.n
        for _ in range(50):
            F, G = random_xi_poly(rng, n), random_xi_poly(rng, n)
            assert star_mul(F, G, sig) == oracle_star(F, G, sig)


def test_star_with_central_even_coefficients():
    delta = P2("p1*xi1 + p2*xi2")
    chi = P2("2*xi1*xi2")
    assert star_mul(delta, chi, E2) == P2("p2*xi1 - p1*xi2")


def test_star_associativity():
    rng = random.Random(14)
    sig = Signature(2, 1)
    for _ in range(60):
        F, G, H = (random_xi_poly(rng, 3) for _ in range(3))
        assert star_mul(star_mul(F, G, sig), H, sig) == star_mul(F, star_mul(G, H, sig), sig)


def test_filtration_top_is_wedge():
    rng = random.Random(15)
    sig = Signature(3, 0)
    for _ in range(50):
        k, l = rng.randint(0, 3), rng.randint(0, 3)
        F = random_xi_homogeneous(rng, 3, k)
        G = random_xi_homogeneous(rng, 3, l)
        prod = star_mul(F, G, sig)
        assert prod.bidegree_component(0, k + l) == (F * G).bidegree_component(0, k + l)
        for (_k, kappa) in prod.bidegrees():
            assert kappa <= k + l and (k + l - kappa) % 2 == 0


def test_weyl_bracket():
    ok, lhs, rhs = weyl_bracket_check(P2("xi1*xi2"), P2("xi1"), E2)
    assert ok and lhs == P2("xi2")
    ok, lhs, rhs = weyl_bracket_check(P2("1"), P2("xi1*xi2"), E2)
    assert ok and lhs.is_zero() and rhs.is_zero()
    ok, lhs, rhs = weyl_bracket_check(P2("xi1"), P2("xi1"), E2)
    assert ok and lhs == P2("-1")
    with pytest.raises(ValueError):
        weyl_bracket_check(sp_parse("xi1*xi2*xi3", 3), sp_parse("xi1", 3), Signature(3, 0))


def test_spin_rep_relations_and_rank():
    for p, q in [(2, 0), (1, 1), (4, 0), (3, 1), (2, 2)]:
        rep = build_spin_rep(Signature(p, q))
        assert rep.size == 2 ** ((p + q) // 2)
        relations = _anticommutation_failures(
            rep.matrices,
            anticommutator,
            lambda i, j: identity(rep.size, Scalar.rational(-rep.sig.eta(i, j))),
            lambda i, j, got: f"{{c{i}, c{j}}} = {got}",
        )
        assert relations == []
        assert rep.monomial_rank() == 2 ** (p + q)
    with pytest.raises(ValueError):
        build_spin_rep(Signature(2, 1))
    with pytest.raises(ValueError):
        build_spin_rep(Signature(1, 3))


def test_monomial_rank_makes_one_product_per_monomial(monkeypatch):
    # each c-monomial extends the one without its largest index, 2^n - 1
    # products; built from the identity they take n 2^(n-1) = 192 at n = 6
    rep = build_spin_rep(Signature(3, 3))
    calls = []

    def counted(a, b):
        calls.append(1)
        return mat_mul(a, b)

    monkeypatch.setattr(clifford, "mat_mul", counted)
    assert rep.monomial_rank() == 2 ** 6
    assert len(calls) <= 2 ** 6


def test_spin_rep_small_values():
    rep = build_spin_rep(E2)
    assert mat_mul(rep.c_matrix(1), rep.c_matrix(1)) == identity(2, Scalar.rational(Fraction(-1, 2)))
    rep11 = build_spin_rep(Signature(1, 1))
    assert mat_mul(rep11.c_matrix(2), rep11.c_matrix(2)) == identity(2, Scalar.rational(Fraction(1, 2)))
    assert rep.gamma_matrix(1) == mat_scale(rep.c_matrix(1), Scalar.sqrt2())


def test_rho_is_algebra_morphism():
    rng = random.Random(16)
    for p, q in [(2, 0), (1, 1), (2, 2)]:
        sig = Signature(p, q)
        rep = build_spin_rep(sig)
        for _ in range(15):
            F, G = random_xi_poly(rng, sig.n), random_xi_poly(rng, sig.n)
            assert rep.rho(star_mul(F, G, sig)) == mat_mul(rep.rho(F), rep.rho(G))


def test_prequantisation():
    c1 = prequant_op(P2("xi1"), E2)
    assert mat_mul(c1, c1) == identity(4, Scalar.rational(-1))
    c2 = prequant_op(P2("xi2"), E2)
    assert not any(anticommutator(c1, c2))
    # action on the constant function: first basis vector is the empty subset
    column = [row[0] for row in dense(c1)]
    assert column[1] == Scalar.sqrt2() * Fraction(1, 2)
    assert all(not column[r] for r in (0, 2, 3))
    assert [0 in row for row in c1] == [False, True, False, False]
    canon = prequant_op(P2("xi1"), E2, variant="canonical")
    assert mat_mul(canon, canon) == identity(4, Scalar.rational(-1))
    lor = Signature(1, 1)
    w = prequant_op(sp_parse("xi2", 2), lor)
    assert mat_mul(w, w) == identity(4, Scalar.rational(1))
    with pytest.raises(ValueError):
        prequant_op(P2("xi1*xi2"), E2)


def _stores_no_zero(mat):
    return all(entry for row in mat for entry in row.values())


def test_matrices_store_no_zero_entry():
    # every operation cancels to no stored zero, so == is equality of matrices
    rng = random.Random(18)
    for sig in (E2, Signature(1, 1), Signature(3, 1), Signature(2, 2)):
        n = sig.n
        rep = build_spin_rep(sig)
        assert all(_stores_no_zero(rep.c_matrix(i)) for i in range(1, n + 1))
        mixed = sp_parse(" ".join(("1/3*i*xi1", "- 2*xi2", "+ s*xi3", "+ h*xi4")[:n]), n)
        vs = [SuperPolynomial.var_xi(n, i) for i in range(1, n + 1)] + [mixed]
        for variant in ("standard", "canonical"):
            mats = [prequant_op(v, sig, variant) for v in vs]
            assert all(_stores_no_zero(mat) for mat in mats)
            for a in mats[:-1]:
                for b in mats[:-1]:
                    product = anticommutator(a, b)
                    assert _stores_no_zero(product) and _stores_no_zero(mat_mul(a, b))
                    assert (a is b) == any(product)
            last = mats[-1]
            assert not any(mat_add(last, mat_scale(last, -1)))
            assert not any(mat_scale(last, 0)) and len(mat_scale(last, 0)) == 1 << n
        for _ in range(5):
            F, G = random_xi_poly(rng, n), random_xi_poly(rng, n)
            assert _stores_no_zero(rep.rho(F)) and not any(rep.rho(F - F))
            assert _stores_no_zero(mat_add(rep.rho(F), rep.rho(G)))


def test_anticommutator_is_linear_in_the_side(monkeypatch):
    # c(xi^i) has one entry per row, so each product touches each row once
    sig = Signature(6, 0)
    side = 1 << sig.n
    a = prequant_op(SuperPolynomial.var_xi(6, 2), sig)
    b = prequant_op(SuperPolynomial.var_xi(6, 5), sig)
    calls = []
    original = Scalar.__bool__

    def counted(self):
        calls.append(None)
        return original(self)

    monkeypatch.setattr(Scalar, "__bool__", counted)
    anti = anticommutator(a, b)
    assert len(calls) <= 4 * side
    assert not any(anti)


# SHA-256 of the JSON of prequant_op on each xi^i and on one mixed 1-vector,
# recorded before the ladder matrices were built in one pass.
PREQUANT_DIGEST = "cfcd8368f71fbb15b699cc558125021a1a3396aca2ede7b5ea6c8b82e8fed21d"


def test_prequantisation_matches_pinned_digest():
    mixed = ("1/3*i*xi1", "- 2*xi2", "+ s*xi3", "+ h*xi4")
    payload = []
    for sig in (E2, Signature(1, 1), Signature(3, 1)):
        vs = [SuperPolynomial.var_xi(sig.n, i) for i in range(1, sig.n + 1)]
        vs.append(sp_parse(" ".join(mixed[: sig.n]), sig.n))
        for variant in ("standard", "canonical"):
            payload.extend(to_json(prequant_op(v, sig, variant)) for v in vs)
    assert hashlib.sha256(json.dumps(payload).encode()).hexdigest() == PREQUANT_DIGEST


def test_kosmann_translation_and_errors():
    T1 = conformal_generators(E2)[0]
    assert kosmann_lie(T1, E2) == SpinorDiffOp.from_items(E2, [(((), (1, 0)), P2("1"))])
    bad = VectorFieldOnM(2, (P2("x1"), P2("0")))
    with pytest.raises(NotConformalError):
        kosmann_lie(bad, E2)
    with pytest.raises(ValueError):
        kosmann_lie(conformal_generators(Signature(3, 0))[0], Signature(3, 0))


def test_kosmann_quantised_comoment_and_morphism():
    for sig in (E2, Signature(1, 1)):
        gens = conformal_generators(sig)
        ders = {g.name: kosmann_lie(g, sig) for g in gens}
        for X in gens:
            assert normal_order(comoment_even(X, sig), sig) == ders[X.name].scale(Scalar.h())
            for Y in gens:
                got = ders[X.name].compose(ders[Y.name]) - ders[Y.name].compose(ders[X.name])
                assert got == kosmann_lie(vf_bracket(X, Y), sig)


def test_kosmann_weight_term():
    D = [g for g in conformal_generators(E2) if g.name == "D"][0]
    op = kosmann_lie(D, E2, Fraction(1, 2))
    plain = kosmann_lie(D, E2)
    diff = op - plain
    assert diff == SpinorDiffOp.from_items(E2, [(((), ()), P2("1"))])  # (1/2) * div(D) = (1/2) * 2


@pytest.mark.parametrize("p,q", [(2, 0), (1, 1), (3, 1), (2, 2), (1, 3)])
def test_clifford_word_products_against_oracle_exhaustive(p, q):
    # every pair of xi-words, each with a seeded central even part and a scalar
    # with rational, i, sqrt2 and i sqrt2 parts
    sig = Signature(p, q)
    n = sig.n
    rng = random.Random(17 + n)
    words = [tuple(i for i in range(1, n + 1) if code >> (i - 1) & 1) for code in range(1 << n)]
    parts = (Scalar.rational(1), Scalar.i(), Scalar.sqrt2(), Scalar.i() * Scalar.sqrt2())

    def term(word):
        xexp = tuple(rng.randint(0, 1) for _ in range(n))
        coeff = sum(
            (Scalar.h(rng.randint(-1, 1), Fraction(rng.choice((-3, -1, 1, 2)), rng.randint(1, 3))) * part
             for part in rng.sample(parts, 2)),
            Scalar.zero(),
        )
        return SuperPolynomial.monomial(n, xexp=xexp, xi=word, coeff=coeff)

    for left in words:
        for right in words:
            F, G = term(left), term(right)
            assert star_mul(F, G, sig) == oracle_star(F, G, sig), (left, right)


def test_spinor_compose_matches_applying_twice():
    # N(Delta R^2) has order 5, kosmann_lie(K1) x-degree 2: composition skips
    # the Leibniz terms that differentiate K1's coefficients more than twice
    sig = Signature(3, 1)
    n = sig.n
    rep = build_spin_rep(sig)
    A = dirac_power(2, sig).operator
    B = kosmann_lie(generator_by_name(sig, "K1"), sig, Fraction(1, 4))
    rng = random.Random(29)
    for _ in range(2):
        psi = []
        for _ in range(rep.size):
            comp = SuperPolynomial.zero(n)
            for _ in range(2):
                xexp = [0] * n
                for _ in range(rng.randint(3, 5)):
                    xexp[rng.randrange(n)] += 1
                comp = comp + SuperPolynomial.monomial(n, xexp=xexp, coeff=rng.randint(-3, 3) or 1)
            psi.append(comp)
        psi = tuple(psi)
        once = A.compose(B).apply_spinor(psi, rep)
        assert once == A.apply_spinor(B.apply_spinor(psi, rep), rep)
        assert any(not comp.is_zero() for comp in once)
