"""The builders derived from a conformal field are memoised per (field, signature).

Each cached result must equal a fresh build (``__wrapped__`` bypasses the
cache), a repeated call must hand out the same object, and the verify
suites that bracket each unordered pair of operators once must still
report the first failure in row-major order.
"""

from fractions import Fraction

import pytest

from supercot import symplectic, verify
from supercot.clifford import kosmann_lie
from supercot.diffop import SuperDiffOp
from supercot.spinop import SpinorDiffOp
from supercot.superpoly import Signature, SuperPolynomial
from supercot.symplectic import (
    NotConformalError,
    VectorFieldOnM,
    comoment_even,
    conformal_generators,
    conformal_killing_factor,
    hamiltonian_lift,
    hessian,
    jacobian,
    vf_bracket,
)

SIGS = [Signature(2, 0), Signature(1, 1), Signature(3, 1), Signature(2, 2)]


def _fields(sig):
    """Every generator and every bracket of two generators, once per distinct field."""
    gens = conformal_generators(sig)
    brackets = [vf_bracket(X, Y) for X in gens for Y in gens]
    return list(dict.fromkeys(gens + brackets))


@pytest.mark.parametrize("sig", SIGS, ids=str)
def test_memoised_builders_equal_a_fresh_build(sig):
    builders = [
        (conformal_killing_factor, ()),
        (hamiltonian_lift, ()),
        (comoment_even, ()),
        (kosmann_lie, ()),
        (kosmann_lie, (Fraction(1, 3),)),
    ]
    for field in _fields(sig):
        for build, extra in builders:
            got = build(field, sig, *extra)
            assert got == build.__wrapped__(field, sig, *extra)
            assert build(field, sig, *extra) is got


@pytest.mark.parametrize("sig", SIGS, ids=str)
def test_each_field_derivative_table_is_computed_once_and_read_only(sig):
    for field in _fields(sig):
        for table in (jacobian, hessian):
            got = table(field)
            assert got == table.__wrapped__(field)
            assert table(field) is got
            with pytest.raises(TypeError):
                got[next(iter(got), (1, 1))] = SuperPolynomial.zero(sig.n)


@pytest.mark.parametrize("sig", SIGS, ids=str)
def test_memoised_bracket_equals_a_fresh_build(sig):
    gens = conformal_generators(sig)
    for X in gens:
        for Y in gens:
            got = vf_bracket(X, Y)
            fresh = symplectic._vf_bracket.__wrapped__(X, Y, f"[{X.name},{Y.name}]")
            assert got == fresh and got.name == fresh.name == f"[{X.name},{Y.name}]"
            assert vf_bracket(X, Y) is got


def test_bracket_carries_the_names_of_its_call():
    sig = Signature(3, 1)
    gens = {g.name: g for g in conformal_generators(sig)}
    T1, K1 = gens["T1"], gens["K1"]
    alias = VectorFieldOnM(sig.n, T1.components, name="A")
    unnamed = VectorFieldOnM(sig.n, T1.components)
    assert alias == T1
    first = vf_bracket(T1, K1)
    assert first.name == "[T1,K1]"
    assert vf_bracket(alias, K1).name == "[A,K1]"
    assert vf_bracket(K1, alias).name == "[K1,A]"
    assert vf_bracket(unnamed, K1).name == ""
    assert vf_bracket(alias, K1) == first
    assert vf_bracket(T1, K1) is first and first.name == "[T1,K1]"


def test_non_conformal_field_raises_on_every_call():
    sig = Signature(2, 0)
    n = sig.n
    x1_squared = SuperPolynomial.var_x(n, 1) * SuperPolynomial.var_x(n, 1)
    bad = VectorFieldOnM(n, (x1_squared, SuperPolynomial.zero(n)), name="bad")
    for _ in range(3):
        assert conformal_killing_factor(bad, sig) is None
        for build in (hamiltonian_lift, comoment_even, kosmann_lie):
            with pytest.raises(NotConformalError):
                build(bad, sig)


def _zero_bracket_for(monkeypatch, pairs):
    """Make verify.vf_bracket return the zero field on the given (X, Y) name pairs."""
    real = verify.vf_bracket

    def wrong(X, Y):
        if (X.name, Y.name) in pairs:
            return VectorFieldOnM(X.n, (SuperPolynomial.zero(X.n),) * X.n)
        return real(X, Y)

    monkeypatch.setattr(verify, "vf_bracket", wrong)


@pytest.mark.parametrize(
    "suite,row,detail",
    [
        (verify.suite_lift, "lift.lie-algebra-morphism",
         "[lift T1, lift K2] differs from lift of bracket"),
        (verify.suite_kosmann, "kosmann.lie-algebra-morphism", "[sL_T1, sL_K2] != sL_[X,Y]"),
    ] + [
        (verify.suite_modules, f"modules.{label}-morphism", f"[{label} T1, {label} K2] fails")
        for label in ("tensorial", "hamiltonian", "operator")
    ],
)
def test_morphism_suites_report_the_row_major_first_failure(monkeypatch, suite, row, detail):
    sig = Signature(2, 0)
    # gens are T1 T2 R12 D K1 K2: (R12, T1) is row 2, (T1, K2) row 0; the
    # unordered-pair loop meets (R12, T1) first, while bracketing T1 with R12
    _zero_bracket_for(monkeypatch, {("R12", "T1"), ("T1", "K2")})
    rows = {r.name: r for r in suite(sig, 0)}
    assert not rows[row].ok and rows[row].cases == 36
    assert rows[row].detail == detail
    # the patched bracket reaches every morphism row of the suite, and no other row
    assert all(r.ok for name, r in rows.items() if not name.endswith("-morphism"))


def test_lift_suite_brackets_each_unordered_pair_once(monkeypatch):
    sig = Signature(2, 0)
    calls = []
    original = SuperDiffOp.commutator

    def counted(self, other):
        calls.append((self, other))
        return original(self, other)

    def refused(self, other):
        raise AssertionError("the lift suite composes")

    monkeypatch.setattr(SuperDiffOp, "commutator", counted)
    monkeypatch.setattr(SuperDiffOp, "compose", refused)
    rows = verify.suite_lift(sig, 0)
    assert all(r.ok for r in rows)
    count = len(conformal_generators(sig))
    # the diagonal pairs need no bracket: [A_X, A_X] = 0 = A_[X,X]
    assert len(calls) == count * (count - 1) // 2


def test_comoment_suite_brackets_each_pair_of_distinct_generators_once(monkeypatch):
    sig = Signature(2, 0)
    calls = []
    original = verify.poisson

    def counted(F, G, sig):
        calls.append((F, G))
        return original(F, G, sig)

    monkeypatch.setattr(verify, "poisson", counted)
    rows = verify.suite_comoment(sig, 0)
    assert all(r.ok for r in rows)
    count = len(conformal_generators(sig))
    assert len(calls) == count * (count - 1) // 2


def test_kosmann_suite_brackets_each_unordered_pair_once(monkeypatch):
    sig = Signature(2, 0)
    calls = []
    original = SpinorDiffOp.graded_commutator

    def counted(self, other):
        calls.append((self, other))
        return original(self, other)

    def refused(self, other):
        raise AssertionError("the kosmann suite composes")

    monkeypatch.setattr(SpinorDiffOp, "graded_commutator", counted)
    monkeypatch.setattr(SpinorDiffOp, "compose", refused)
    rows = verify.suite_kosmann(sig, 0)
    assert all(r.ok for r in rows)
    count = len(conformal_generators(sig))
    # the diagonal pairs need no bracket, and the bracket composes neither way
    assert len(calls) == count * (count - 1) // 2
