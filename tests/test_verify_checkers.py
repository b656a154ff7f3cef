"""The failure paths of the verify checkers, against naive loops over all ordered pairs.

The pinned verify digests see only passing output.  Here one build or one
matrix is broken on purpose, and every failure message the checker gives,
in order, must be the one a loop over all ordered pairs (no symmetry
used, no pair skipped) gives.
"""

from fractions import Fraction

import pytest

from supercot import verify
from supercot.clifford import SpinorRep, build_spin_rep, kosmann_lie, prequant_op
from supercot.coeff import Scalar
from supercot.diffop import SuperDiffOp
from supercot.matutil import anticommutator, identity, mat_add, mat_scale
from supercot.star import star_mul
from supercot.superpoly import Signature, SuperPolynomial
from supercot.symplectic import (
    comoment_even,
    conformal_generators,
    hamiltonian_lift,
    poisson,
    vf_bracket,
)


def _naive_morphism_failures(gens, build, bracket, message):
    return [
        message(X, Y)
        for X in gens
        for Y in gens
        if bracket(build(X), build(Y)) != build(vf_bracket(X, Y))
    ]


def _morphisms(sig):
    """(build, bracket, message) of the lift, the even comoment and the spinor Lie derivative."""
    return {
        "lift": (
            lambda X: hamiltonian_lift(X, sig),
            SuperDiffOp.commutator,
            lambda X, Y: f"[lift {X.name}, lift {Y.name}] differs from lift of bracket",
        ),
        "comoment": (
            lambda X: comoment_even(X, sig),
            lambda A, B: poisson(A, B, sig),
            lambda X, Y: f"{{J_{X.name}, J_{Y.name}}} != J_[X,Y]",
        ),
        "kosmann": (
            lambda X: kosmann_lie(X, sig),
            lambda A, B: A.compose(B) - B.compose(A),
            lambda X, Y: f"[sL_{X.name}, sL_{Y.name}] != sL_[X,Y]",
        ),
    }


def _is_zero_field(X):
    return all(c.is_zero() for c in X.components)


@pytest.mark.parametrize("kind", ["lift", "comoment", "kosmann"])
@pytest.mark.parametrize("broken", ["D-doubled", "zero-field-nonzero"])
def test_morphism_checker_gives_the_naive_failures_in_order(kind, broken):
    sig = Signature(2, 0)
    gens = conformal_generators(sig)
    build, bracket, message = _morphisms(sig)[kind]
    T1 = gens[0]
    if broken == "D-doubled":
        # the diagonal and every pair without D still hold
        def broken_build(X):
            return build(X).scale(2) if X.name == "D" else build(X)
    else:
        # every diagonal pair fails, and so does every commuting pair
        def broken_build(X):
            return build(T1) if _is_zero_field(X) else build(X)

    got = verify._morphism_failures(gens, broken_build, bracket, message)
    want = _naive_morphism_failures(gens, broken_build, bracket, message)
    assert got == want and want
    if broken == "zero-field-nonzero":
        assert all(message(X, X) in got for X in gens)
    assert verify._morphism_failures(gens, build, bracket, message) == []


def _recorded_rows(monkeypatch):
    """Make verify._row record the full failure list of every row it builds."""
    recorded = {}
    real = verify._row

    def recording(name, cases, failures):
        recorded[name] = (cases, list(failures))
        return real(name, cases, failures)

    monkeypatch.setattr(verify, "_row", recording)
    return recorded


def test_prequantisation_relations_give_the_naive_failures_in_order(monkeypatch):
    sig = Signature(4, 0)
    n = sig.n

    def perturbed(v, sig, variant="standard"):
        # c(xi2) + c(xi1) in the canonical variant: it fails with xi1 and with itself only
        mat = prequant_op(v, sig, variant)
        if variant == "canonical" and v == SuperPolynomial.var_xi(n, 2):
            mat = mat_add(mat, prequant_op(SuperPolynomial.var_xi(n, 1), sig, variant))
        return mat

    monkeypatch.setattr(verify, "prequant_op", perturbed)
    recorded = _recorded_rows(monkeypatch)
    rows = {r.name: r for r in verify.suite_spinrep(sig, 0)}

    want = []
    for variant in ("standard", "canonical"):
        mats = [perturbed(SuperPolynomial.var_xi(n, i), sig, variant) for i in range(1, n + 1)]
        for i in range(n):
            for j in range(n):
                anti = anticommutator(mats[i], mats[j])
                if i == j:
                    if anti != identity(2**n, Scalar.rational(-2 * sig.eta(i + 1))):
                        want.append(f"{variant}: c(xi{i+1})^2 wrong")
                elif any(anti):
                    want.append(f"{variant}: c(xi{i+1}) and c(xi{j+1}) do not anticommute")
    assert want == [
        "canonical: c(xi1) and c(xi2) do not anticommute",
        "canonical: c(xi2) and c(xi1) do not anticommute",
        "canonical: c(xi2)^2 wrong",
    ]
    assert recorded["spinrep.prequantisation-relations"] == (2 * n * n, want)
    row = rows["spinrep.prequantisation-relations"]
    assert not row.ok and row.detail == want[0]
    assert all(r.ok for name, r in rows.items() if name != "spinrep.prequantisation-relations")


def test_star_clifford_relations_give_the_naive_failures_in_order(monkeypatch):
    sig = Signature(2, 1)
    n = sig.n
    xi = [SuperPolynomial.var_xi(n, i) for i in range(1, n + 1)]
    shift = {
        (xi[0], xi[0]): xi[0] * xi[1],  # a diagonal pair off by a non-constant
        (xi[2], xi[1]): SuperPolynomial.constant(n, Fraction(1, 2)),  # one order of an off-diagonal pair
    }

    def perturbed(F, G, sig):
        out = star_mul(F, G, sig)
        for (a, b), extra in shift.items():
            if F == a and G == b:
                out = out + extra
        return out

    monkeypatch.setattr(verify, "star_mul", perturbed)
    recorded = _recorded_rows(monkeypatch)
    verify.suite_star(sig, 0)

    want = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            a, b = xi[i - 1], xi[j - 1]
            acc = perturbed(a, b, sig) + perturbed(b, a, sig)
            if acc != (SuperPolynomial.constant(n, -sig.eta(i)) if i == j else SuperPolynomial.zero(n)):
                want.append(f"xi{i}*xi{j}+xi{j}*xi{i} = {acc}")
    assert [text.split(" = ")[0] for text in want] == [
        "xi1*xi1+xi1*xi1", "xi2*xi3+xi3*xi2", "xi3*xi2+xi2*xi3",
    ]
    assert recorded["star.clifford-relations"] == (n * n, want)


def test_spin_clifford_relations_name_the_failing_pairs_in_order(monkeypatch):
    sig = Signature(2, 0)
    n = sig.n

    def doubled(sig):
        # 2 c^1: its square is off by a factor 4, and it still anticommutes with c^2
        rep = build_spin_rep(sig)
        return SpinorRep(sig, (mat_scale(rep.matrices[0], 2),) + rep.matrices[1:])

    monkeypatch.setattr(verify, "build_spin_rep", doubled)
    recorded = _recorded_rows(monkeypatch)
    rows = {r.name: r for r in verify.suite_spinrep(sig, 0)}

    rep = doubled(sig)
    want = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            anti = anticommutator(rep.c_matrix(i), rep.c_matrix(j))
            if anti != identity(rep.size, Scalar.rational(-sig.eta(i, j))):
                want.append(f"c{i}c{j}+c{j}c{i} differs from -eta")
    assert want == ["c1c1+c1c1 differs from -eta"]
    assert recorded["spinrep.clifford-relations"] == (n * n, want)
    row = rows["spinrep.clifford-relations"]
    assert not row.ok and row.detail == want[0]
