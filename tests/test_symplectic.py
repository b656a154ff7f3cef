import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import Phase, given, settings, strategies as st

from supercot.coeff import Scalar
from supercot.diffop import SuperDiffOp
from supercot.parse import sp_parse
from supercot.randgen import random_parity_homogeneous, random_superpoly
from supercot.superpoly import Signature, SuperPolynomial
from supercot.symplectic import (
    NotConformalError,
    VectorFieldOnM,
    _skew_gradient,
    comoment_even,
    comoment_odd,
    conformal_generating_set,
    conformal_generators,
    conformal_killing_factor,
    divergence,
    generator_by_name,
    hamiltonian_lift,
    hamiltonian_vector_field,
    hessian,
    jacobian,
    pair_alpha,
    pair_beta,
    poisson,
    vf_bracket,
)

E2 = Signature(2, 0)
P2 = lambda text: sp_parse(text, 2)


def test_bracket_canonical_relations():
    assert poisson(P2("p1"), P2("x1"), E2) == P2("1")
    assert poisson(P2("p1"), P2("x2"), E2).is_zero()
    assert poisson(P2("xi1"), P2("xi1"), E2) == P2("-h^-1")
    assert poisson(P2("x1"), P2("x2"), E2).is_zero()
    lor = Signature(1, 1)
    assert poisson(sp_parse("xi2", 2), sp_parse("xi2", 2), lor) == P2("h^-1")


def test_bracket_requires_homogeneous_left():
    with pytest.raises(ValueError):
        poisson(P2("xi1 + xi1*xi2"), P2("x1"), E2)


def test_bracket_axioms_randomised():
    rng = random.Random(10)
    for sig in (E2, Signature(1, 1)):
        for _ in range(60):
            F = random_parity_homogeneous(rng, 2, rng.randint(0, 1), terms=3)
            G = random_parity_homogeneous(rng, 2, rng.randint(0, 1), terms=3)
            H = random_parity_homogeneous(rng, 2, rng.randint(0, 1), terms=3)
            sign = -1 if (F.parity() and G.parity()) else 1
            assert poisson(F, G, sig) == poisson(G, F, sig).scale(-sign)
            assert poisson(F, G * H, sig) == poisson(F, G, sig) * H + (
                G * poisson(F, H, sig)
            ).scale(sign)
            lhs = poisson(F, poisson(G, H, sig), sig)
            rhs = poisson(poisson(F, G, sig), H, sig) + poisson(
                G, poisson(F, H, sig), sig
            ).scale(sign)
            assert lhs == rhs


def test_generator_inventory():
    gens = conformal_generators(E2)
    assert [g.name for g in gens] == ["T1", "T2", "R12", "D", "K1", "K2"]
    sig4 = Signature(3, 1)
    assert len(conformal_generators(sig4)) == 15
    with pytest.raises(ValueError):
        conformal_generators(Signature(1, 0))


def test_inversion_components():
    K1 = generator_by_name(E2, "K1")
    assert K1.component(1) == P2("x2^2 - x1^2")
    assert K1.component(2) == P2("-2*x1*x2")
    D = generator_by_name(E2, "D")
    assert [str(c) for c in D.components] == ["x1", "x2"]


def test_vf_bracket():
    T1 = generator_by_name(E2, "T1")
    T2 = generator_by_name(E2, "T2")
    D = generator_by_name(E2, "D")
    K1 = generator_by_name(E2, "K1")
    assert vf_bracket(T1, D).components == T1.components
    assert all(c.is_zero() for c in vf_bracket(T1, T2).components)
    assert vf_bracket(D, K1).components == K1.components


# not conformal, and cubic, so that its Hessian entries are not constant
CUBIC = VectorFieldOnM(
    3, tuple(sp_parse(c, 3) for c in ("x1^3 + x2*x3", "x1^2*x2 - 2*x3^3 + x1", "x1*x2*x3 + 1/2*x2^3")), name="C"
)


def _with_brackets(sig):
    gens = conformal_generators(sig)
    return gens + [vf_bracket(X, Y) for X in gens for Y in gens]


@pytest.mark.parametrize(
    "fields",
    [_with_brackets(Signature(3, 1)), _with_brackets(Signature(2, 2)), [CUBIC]],
    ids=["3,1", "2,2", "cubic"],
)
def test_jacobian_and_hessian_are_the_derive_chains(fields):
    """Same entries, values and term order as single derives; no zero entry."""
    for X in fields:
        r = range(1, X.n + 1)
        want = {(i, j): X.component(i).derive("x", j) for i in r for j in r}
        want = {key: d for key, d in want.items() if not d.is_zero()}
        want2 = {(i, j, k): d.derive("x", k) for (i, j), d in want.items() for k in r}
        want2 = {key: d for key, d in want2.items() if not d.is_zero()}
        for got, expected in ((jacobian(X), want), (hessian(X), want2)):
            assert list(got) == list(expected)
            assert all(list(got[k]._terms.items()) == list(expected[k]._terms.items()) for k in got)
        if X is CUBIC:
            assert any(d.x_degree() == 1 for d in want2.values())


def test_vf_bracket_of_a_non_conformal_field():
    sig = Signature(2, 1)
    for G in (generator_by_name(sig, name) for name in ("T1", "R12", "D", "K1", "K3")):
        for X, Y in ((CUBIC, G), (G, CUBIC)):
            want = []
            for i in range(1, 4):
                acc = SuperPolynomial.zero(3)
                for j in range(1, 4):
                    acc = acc + X.component(j) * Y.component(i).derive("x", j)
                    acc = acc - Y.component(j) * X.component(i).derive("x", j)
                want.append(acc)
            assert vf_bracket(X, Y).components == tuple(want)


def test_conformal_killing_factor():
    assert conformal_killing_factor(generator_by_name(E2, "D"), E2) == P2("2")
    assert conformal_killing_factor(generator_by_name(E2, "R12"), E2).is_zero()
    bad = VectorFieldOnM(2, (P2("x1"), P2("0")))
    assert conformal_killing_factor(bad, E2) is None
    with pytest.raises(NotConformalError):
        hamiltonian_lift(bad, E2)
    with pytest.raises(NotConformalError):
        comoment_even(bad, E2)


# -- sparse field derivatives against the dense formulas ---------------------------


def dense_skew_gradient(jac, sig):
    """d_[k X_j] = (d_k X_j - d_j X_k)/2 at all n^2 index pairs, zeros included."""
    n = sig.n
    zero = SuperPolynomial.zero(n)
    table = {}
    for k in range(1, n + 1):
        for j in range(1, n + 1):
            dkxj = jac.get((j, k), zero).scale(sig.eta(j))
            djxk = jac.get((k, j), zero).scale(sig.eta(k))
            table[(k, j)] = (dkxj - djxk).scale(Fraction(1, 2))
    return table


def dense_killing_factor(X, sig):
    """lambda with L_X eta = lambda eta, checked at all n^2 index pairs; None if there is none."""
    n = sig.n
    jac = jacobian(X)
    zero = SuperPolynomial.zero(n)
    factor = divergence(X).scale(Fraction(2, n))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            lie = jac.get((i, j), zero).scale(sig.eta(i)) + jac.get((j, i), zero).scale(sig.eta(j))
            if i == j:
                lie = lie - factor.scale(sig.eta(i))
            if not lie.is_zero():
                return None
    return factor


def _assert_sparse_matches_dense(X, sig):
    jac = jacobian(X)
    dense = dense_skew_gradient(jac, sig)
    assert _skew_gradient(jac, sig) == {key: d for key, d in dense.items() if not d.is_zero()}
    assert conformal_killing_factor(X, sig) == dense_killing_factor(X, sig)


@pytest.mark.parametrize("sig", [Signature(3, 1), Signature(2, 2)], ids=str)
def test_sparse_derivatives_match_dense_on_generators_and_brackets(sig):
    for X in _with_brackets(sig):
        _assert_sparse_matches_dense(X, sig)
        assert conformal_killing_factor(X, sig) is not None


def test_killing_factor_reads_the_diagonal_without_a_jacobian_entry():
    # X = x1 d1: d_1 X^1 = 1 is the only entry, so lambda = 1, and (L_X eta)_22 = 0 differs from lambda eta_22
    X = VectorFieldOnM(2, (P2("x1"), P2("0")))
    assert jacobian(X) == {(1, 1): P2("1")}
    for sig in (E2, Signature(1, 1)):
        assert dense_killing_factor(X, sig) is None
        _assert_sparse_matches_dense(X, sig)


def test_skew_gradient_of_one_sided_and_cancelling_jacobians():
    # X = x2 d1: the one Jacobian entry (1, 2) gives d_[k X_j] at (2, 1) and at (1, 2)
    X = VectorFieldOnM(2, (P2("x2"), P2("0")))
    assert _skew_gradient(jacobian(X), E2) == {(2, 1): P2("1/2"), (1, 2): P2("-1/2")}
    # Y = x2 d1 + x1 d2: the two Jacobian entries cancel for eta = diag(1, 1) only, and leave no entry
    Y = VectorFieldOnM(2, (P2("x2"), P2("x1")))
    assert _skew_gradient(jacobian(Y), E2) == {}
    assert _skew_gradient(jacobian(Y), Signature(1, 1)) == {(2, 1): P2("1"), (1, 2): P2("-1")}
    for Z in (X, Y):
        for sig in (E2, Signature(1, 1)):
            _assert_sparse_matches_dense(Z, sig)


_NO_SHRINK = tuple(phase for phase in Phase if phase is not Phase.shrink)


@st.composite
def fields_of_degree_two(draw):
    """(X, sig) at n = 2..4: an integer mix of the conformal generators plus
    x-polynomial noise of degree <= 2, which leaves most fields not conformal."""
    p = draw(st.integers(0, 4))
    sig = Signature(p, draw(st.integers(max(0, 2 - p), 4 - p)))
    n, gens = sig.n, conformal_generators(sig)
    mix = draw(st.lists(st.integers(-2, 2), min_size=len(gens), max_size=len(gens)))
    exps = st.tuples(*[st.integers(0, 2)] * n).filter(lambda e: sum(e) <= 2)
    values = st.sampled_from([1, -1, 2, Fraction(1, 2), Fraction(-3, 2)])
    comps = []
    for i in range(n):
        comp = sum((g.components[i].scale(w) for g, w in zip(gens, mix)), SuperPolynomial.zero(n))
        noise = draw(st.dictionaries(exps, values, max_size=2))
        comps.append(comp + SuperPolynomial(n, {(e, (0,) * n, ()): c for e, c in noise.items()}))
    return VectorFieldOnM(n, tuple(comps)), sig


@settings(derandomize=True, max_examples=150, deadline=None, phases=_NO_SHRINK)
@given(fields_of_degree_two())
def test_sparse_derivatives_match_dense_on_drawn_fields(drawn):
    _assert_sparse_matches_dense(*drawn)


def test_lift_of_translation_and_homothety():
    T1 = generator_by_name(E2, "T1")
    assert hamiltonian_lift(T1, E2) == SuperDiffOp.term(SuperPolynomial.one(2), dx=(1, 0))
    D = generator_by_name(E2, "D")
    expect = (
        SuperDiffOp.term(P2("x1"), dx=(1, 0))
        + SuperDiffOp.term(P2("x2"), dx=(0, 1))
        + SuperDiffOp.term(P2("-p1"), dp=(1, 0))
        + SuperDiffOp.term(P2("-p2"), dp=(0, 1))
    )
    assert hamiltonian_lift(D, E2) == expect


def test_comoment_values():
    assert comoment_even(generator_by_name(E2, "T1"), E2) == P2("p1")
    # rotation: orbital momentum plus the spin term -h xi1 xi2 (the sign is
    # forced by pair_alpha(lift) = comoment and the bracket normalisation)
    assert comoment_even(generator_by_name(E2, "R12"), E2) == P2("x1*p2 - x2*p1 - h*xi1*xi2")
    assert comoment_odd(generator_by_name(E2, "T1"), E2) == P2("xi1")
    assert comoment_odd(generator_by_name(E2, "D"), E2) == P2("x1*xi1 + x2*xi2")


def test_pairings():
    assert pair_alpha(SuperDiffOp.term(SuperPolynomial.one(2), dx=(1, 0)), E2) == P2("p1")
    assert pair_beta(SuperDiffOp.term(SuperPolynomial.one(2), dx=(1, 0)), E2) == P2("xi1")
    assert pair_alpha(SuperDiffOp.term(SuperPolynomial.one(2), dp=(1, 0)), E2).is_zero()
    with pytest.raises(ValueError):
        pair_alpha(SuperDiffOp.term(SuperPolynomial.one(2), dx=(2, 0)), E2)


def test_defining_identities_all_generators():
    for sig in (E2, Signature(1, 1), Signature(2, 1)):
        for gen in conformal_generators(sig):
            lift = hamiltonian_lift(gen, sig)
            assert pair_alpha(lift, sig) == comoment_even(gen, sig)
            assert pair_beta(lift, sig) == comoment_odd(gen, sig)


def test_hamiltonian_consistency():
    rng = random.Random(11)
    for sig in (E2, Signature(1, 1)):
        for gen in conformal_generators(sig):
            J = comoment_even(gen, sig)
            lift = hamiltonian_lift(gen, sig)
            for _ in range(3):
                f = random_superpoly(rng, 2, terms=4)
                assert lift.apply(f) == poisson(J, f, sig)


@pytest.mark.parametrize("sig", [E2, Signature(1, 1), Signature(3, 1)], ids=str)
def test_hamiltonian_vector_field_applies_the_bracket(sig):
    rng = random.Random(17)
    for parity in (0, 1, 0, 1):
        F = random_parity_homogeneous(rng, sig.n, parity, terms=5)
        field = hamiltonian_vector_field(F, sig)
        for _ in range(6):
            G = random_parity_homogeneous(rng, sig.n, rng.randint(0, 1))
            assert field.apply(G) == poisson(F, G, sig)
    assert hamiltonian_vector_field(SuperPolynomial.zero(sig.n), sig).is_zero()
    with pytest.raises(ValueError):
        hamiltonian_vector_field(P2("x1 + xi1"), E2)


def test_hamiltonian_vector_field_of_a_comoment_is_the_lift():
    for sig in (E2, Signature(1, 1), Signature(2, 2)):
        for gen in conformal_generators(sig):
            assert hamiltonian_vector_field(comoment_even(gen, sig), sig) == hamiltonian_lift(gen, sig)


def test_morphisms_n2():
    for sig in (E2, Signature(1, 1)):
        gens = conformal_generators(sig)
        lifts = {g.name: hamiltonian_lift(g, sig) for g in gens}
        for X in gens:
            JX = comoment_even(X, sig)
            for Y in gens:
                B = vf_bracket(X, Y)
                assert poisson(JX, comoment_even(Y, sig), sig) == comoment_even(B, sig)
                got = lifts[X.name].compose(lifts[Y.name]) - lifts[Y.name].compose(lifts[X.name])
                assert got == hamiltonian_lift(B, sig)


def test_diffop_compose_matches_apply():
    rng = random.Random(12)
    for _ in range(40):
        A = SuperDiffOp.term(
            random_superpoly(rng, 2, terms=2),
            dxi=tuple(sorted(rng.sample((1, 2), rng.randint(0, 2)))),
            dx=(rng.randint(0, 1), rng.randint(0, 1)),
            dp=(rng.randint(0, 1), rng.randint(0, 1)),
        )
        B = SuperDiffOp.term(
            random_superpoly(rng, 2, terms=2),
            dxi=tuple(sorted(rng.sample((1, 2), rng.randint(0, 2)))),
            dp=(rng.randint(0, 1), rng.randint(0, 1)),
        )
        F = random_superpoly(rng, 2, terms=3)
        assert A.compose(B).apply(F) == A.apply(B.apply(F))


def _span_rank(fields) -> int:
    """Rank over Q of vector fields with rational coefficients, computed by sympy."""
    coords = [
        {(i, key, part): c for i, comp in enumerate(X.components)
         for key, coeff in comp.items() for part, c in coeff.components().items()}
        for X in fields
    ]
    keys = sorted({key for c in coords for key in c})
    zero = Fraction(0)
    return sympy.Matrix(
        [[sympy.Rational(c.get(key, zero).numerator, c.get(key, zero).denominator)
          for key in keys] for c in coords]
    ).rank()


@pytest.mark.parametrize("p,q", [(2, 0), (1, 1), (0, 2), (4, 0), (3, 1), (2, 2)])
def test_generating_set_spans_conf(p, q):
    # the search solves only the T1..Tn, K1 system: closing that set under
    # brackets must give all of conf, of dimension (n+1)(n+2)/2
    sig = Signature(p, q)
    n = sig.n
    gens = conformal_generating_set(sig)
    assert [g.name for g in gens] == [f"T{i}" for i in range(1, n + 1)] + ["K1"]
    span, frontier = list(gens), list(gens)
    while frontier:
        added = []
        for X in gens:
            for Y in frontier:
                Z = vf_bracket(X, Y)
                if _span_rank(span + [Z]) > len(span):
                    span.append(Z)
                    added.append(Z)
        frontier = added
    assert len(span) == (n + 1) * (n + 2) // 2
    assert _span_rank(span + conformal_generators(sig)) == len(span)


def test_conformal_generators_returns_a_fresh_list():
    # the fields are built once per signature; callers may still mutate the list
    sig = Signature(3, 1)
    first = conformal_generators(sig)
    names = [g.name for g in first]
    first.reverse()
    first.append(first[0])
    again = conformal_generators(sig)
    assert [g.name for g in again] == names and again is not first
    assert generator_by_name(sig, "K1") is again[-4]


def test_vector_field_hash_is_computed_once(monkeypatch):
    X = generator_by_name(E2, "K1")
    twin = VectorFieldOnM(2, tuple(SuperPolynomial(2, dict(c.items())) for c in X.components))
    renamed = VectorFieldOnM(2, X.components, name="other")
    # equal fields hash equal; the name stays out of equality and hashing
    assert twin == X == renamed
    assert hash(twin) == hash(X) == hash(renamed)
    assert X != generator_by_name(E2, "K2")
    calls = []
    original = SuperPolynomial.__hash__
    monkeypatch.setattr(SuperPolynomial, "__hash__", lambda self: calls.append(1) or original(self))
    for _ in range(3):
        hash(X)
        {X: 1}[twin]
    assert calls == []
