"""Named property suites driving the structural identities of the engine.

Each suite returns a list of CheckRow, one per identity; a row fails
only when an identity does not hold exactly in the scalar ring.  The
randomised suites draw from a seeded generator so reruns are
reproducible and byte-identical.

Where an identity is one between operators it is checked as one, with no
sample: the Lie-algebra morphisms [A_X, A_Y] = A_[X,Y] of the lift, the
spinor Lie derivative and the three module actions (one bracket per
unordered pair of generators, ``SuperDiffOp.commutator`` for the
operators on symbols), the lift as the operator {J_X, .}, the
Hamiltonian minus the tensorial action as its closed-form xi xi d2X dp
operator, and the agreement of the three actions on each similitude.
The rows that stay sampled are those whose identity holds between
polynomials or matrices rather than fixed operators: Poisson graded
antisymmetry, Leibniz and Jacobi, star associativity, filtration and the
degree-2 Weyl bracket, the rho algebra morphism, the route equality of
the operator action (``modules.operator-route-equality``) and the
graded-Poisson bracket correspondence.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .coeff import Scalar
from .clifford import build_spin_rep, kosmann_lie, prequant_op, weyl_bracket_check
from .confmod import (
    act_D_direct,
    act_D_symbolside,
    hamiltonian_operator,
    normal_order,
    normal_order_inverse,
    operator_symbol_action,
    tensorial_operator,
)
from .diffop import SuperDiffOp
from .matutil import anticommutator, identity, mat_mul
from .randgen import (
    random_bidegree,
    random_parity_homogeneous,
    random_superpoly,
    random_xi_homogeneous,
    random_xi_poly,
)
from .spinop import SpinorDiffOp
from .star import star_mul
from .superpoly import Signature, SuperPolynomial
from .symplectic import (
    comoment_even,
    comoment_odd,
    conformal_generators,
    hamiltonian_lift,
    hamiltonian_vector_field,
    hessian,
    pair_alpha,
    pair_beta,
    poisson,
    units,
    vf_bracket,
)


@dataclass
class CheckRow:
    name: str
    ok: bool
    cases: int
    detail: str = field(default="")

    def to_json(self) -> dict:
        out = {"name": self.name, "ok": self.ok, "cases": self.cases}
        if self.detail:
            out["detail"] = self.detail
        return out


def _row(name: str, cases: int, failures: list[str]) -> CheckRow:
    return CheckRow(name, not failures, cases, failures[0] if failures else "")


# -- poisson ------------------------------------------------------------------


def suite_poisson(sig: Signature, seed: int) -> list[CheckRow]:
    rng = random.Random(seed)
    n = sig.n
    rows = []

    failures = []
    cases = 0
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            cases += 3
            got = poisson(SuperPolynomial.var_p(n, i), SuperPolynomial.var_x(n, j), sig)
            want = SuperPolynomial.one(n) if i == j else SuperPolynomial.zero(n)
            if got != want:
                failures.append(f"{{p{i},x{j}}} = {got}")
            got = poisson(SuperPolynomial.var_xi(n, i), SuperPolynomial.var_xi(n, j), sig)
            want = (
                SuperPolynomial.constant(n, Scalar.h(-1, -sig.eta(i)))
                if i == j
                else SuperPolynomial.zero(n)
            )
            if got != want:
                failures.append(f"{{xi{i},xi{j}}} = {got}")
            if not poisson(SuperPolynomial.var_x(n, i), SuperPolynomial.var_x(n, j), sig).is_zero():
                failures.append(f"{{x{i},x{j}}} nonzero")
    rows.append(_row("poisson.canonical-relations", cases, failures))

    failures = []
    count = 200
    for _ in range(count):
        F = random_parity_homogeneous(rng, n, rng.randint(0, 1))
        G = random_parity_homogeneous(rng, n, rng.randint(0, 1))
        sign = -1 if (F.parity() and G.parity()) else 1
        lhs = poisson(F, G, sig)
        rhs = poisson(G, F, sig).scale(-sign)
        if lhs != rhs:
            failures.append(f"antisymmetry fails: F={F}, G={G}")
    rows.append(_row("poisson.graded-antisymmetry", count, failures))

    failures = []
    for _ in range(count):
        F = random_parity_homogeneous(rng, n, rng.randint(0, 1), terms=3)
        G = random_parity_homogeneous(rng, n, rng.randint(0, 1), terms=3)
        H = random_superpoly(rng, n, terms=3)
        lhs = poisson(F, G * H, sig)
        sign = -1 if (F.parity() and G.parity()) else 1
        rhs = poisson(F, G, sig) * H + (G * poisson(F, H, sig)).scale(sign)
        if lhs != rhs:
            failures.append(f"Leibniz fails: F={F}, G={G}, H={H}")
    rows.append(_row("poisson.graded-leibniz", count, failures))

    failures = []
    for _ in range(count):
        F = random_parity_homogeneous(rng, n, rng.randint(0, 1), terms=3)
        G = random_parity_homogeneous(rng, n, rng.randint(0, 1), terms=3)
        H = random_parity_homogeneous(rng, n, rng.randint(0, 1), terms=3)
        sign = -1 if (F.parity() and G.parity()) else 1
        lhs = poisson(F, poisson(G, H, sig), sig)
        rhs = poisson(poisson(F, G, sig), H, sig) + poisson(G, poisson(F, H, sig), sig).scale(sign)
        if lhs != rhs:
            failures.append(f"Jacobi fails: F={F}, G={G}, H={H}")
    rows.append(_row("poisson.graded-jacobi", count, failures))
    return rows


# -- star -----------------------------------------------------------------------


def suite_star(sig: Signature, seed: int) -> list[CheckRow]:
    rng = random.Random(seed)
    n = sig.n
    rows = []

    failures = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            xi_i, xi_j = SuperPolynomial.var_xi(n, i), SuperPolynomial.var_xi(n, j)
            acc = star_mul(xi_i, xi_j, sig) + star_mul(xi_j, xi_i, sig)
            want = SuperPolynomial.constant(n, -sig.eta(i)) if i == j else SuperPolynomial.zero(n)
            if acc != want:
                failures.append(f"xi{i}*xi{j}+xi{j}*xi{i} = {acc}")
    rows.append(_row("star.clifford-relations", n * n, failures))

    failures = []
    count = 200
    for _ in range(count):
        F, G, H = (random_xi_poly(rng, n) for _ in range(3))
        if star_mul(star_mul(F, G, sig), H, sig) != star_mul(F, star_mul(G, H, sig), sig):
            failures.append(f"associativity fails: F={F}, G={G}, H={H}")
    rows.append(_row("star.associativity", count, failures))

    failures = []
    count = 100
    for _ in range(count):
        k, l = rng.randint(0, n), rng.randint(0, n)
        F = random_xi_homogeneous(rng, n, k)
        G = random_xi_homogeneous(rng, n, l)
        prod = star_mul(F, G, sig)
        if prod.bidegree_component(0, k + l) != (F * G).bidegree_component(0, k + l):
            failures.append(f"top component differs: F={F}, G={G}")
        for (_kk, kappa) in prod.bidegrees():
            if kappa > k + l or (k + l - kappa) % 2:
                failures.append(f"degree {kappa} outside filtration for ({k},{l})")
    rows.append(_row("star.filtration", count, failures))

    failures = []
    count = 50
    for _ in range(count):
        u = random_xi_homogeneous(rng, n, rng.randint(0, min(2, n)))
        v = random_xi_poly(rng, n)
        ok, lhs, rhs = weyl_bracket_check(u, v, sig)
        if not ok:
            failures.append(f"bracket mismatch: u={u}, v={v}, lhs={lhs}, rhs={rhs}")
    rows.append(_row("star.weyl-bracket-degree2", count, failures))
    return rows


# -- lift and comoment ------------------------------------------------------------


def _morphism_failures(gens, build, bracket, message) -> list[str]:
    """Failures of [build(X), build(Y)] == build([X, Y]) on gens x gens, in row-major order.

    One bracket(build(X), build(Y)) per unordered pair, diagonal included:
    it is compared with build([X, Y]), and its negative with build([Y, X]).
    """
    count = len(gens)
    failures = []
    for i, X in enumerate(gens):
        for j in range(i, count):
            Y = gens[j]
            c = bracket(build(X), build(Y))
            if c != build(vf_bracket(X, Y)):
                failures.append((i * count + j, message(X, Y)))
            if i != j and c.scale(-1) != build(vf_bracket(Y, X)):
                failures.append((j * count + i, message(Y, X)))
    return [text for _index, text in sorted(failures)]


def suite_lift(sig: Signature, seed: int) -> list[CheckRow]:
    gens = conformal_generators(sig)
    rows = []

    failures = _morphism_failures(
        gens,
        lambda X: hamiltonian_lift(X, sig),
        SuperDiffOp.commutator,
        lambda X, Y: f"[lift {X.name}, lift {Y.name}] differs from lift of bracket",
    )
    rows.append(_row("lift.lie-algebra-morphism", len(gens) ** 2, failures))

    failures = [
        f"{X.name}: lift != {{J, .}}"
        for X in gens
        if hamiltonian_lift(X, sig) != hamiltonian_vector_field(comoment_even(X, sig), sig)
    ]
    rows.append(_row("lift.hamiltonian-consistency", len(gens), failures))

    failures = []
    for X in gens:
        lift = hamiltonian_lift(X, sig)
        if pair_alpha(lift, sig) != comoment_even(X, sig):
            failures.append(f"{X.name}: <lift, alpha> != even comoment")
        if pair_beta(lift, sig) != comoment_odd(X, sig):
            failures.append(f"{X.name}: <lift, beta> != odd comoment")
    rows.append(_row("lift.pairings-give-comoments", 2 * len(gens), failures))
    return rows


def suite_comoment(sig: Signature, seed: int) -> list[CheckRow]:
    gens = conformal_generators(sig)
    failures = []
    for X in gens:
        JX = comoment_even(X, sig)
        for Y in gens:
            JY = comoment_even(Y, sig)
            if poisson(JX, JY, sig) != comoment_even(vf_bracket(X, Y), sig):
                failures.append(f"{{J_{X.name}, J_{Y.name}}} != J_[X,Y]")
    return [_row("comoment.lie-algebra-morphism", len(gens) ** 2, failures)]


# -- spin representation -------------------------------------------------------------


def suite_spinrep(sig: Signature, seed: int) -> list[CheckRow]:
    rng = random.Random(seed)
    n = sig.n
    rows = []
    rep = build_spin_rep(sig)

    rows.append(
        _row(
            "spinrep.clifford-relations",
            n * n,
            [] if rep.verify_clifford_relations() else ["anticommutators differ from -eta"],
        )
    )
    rank = rep.monomial_rank()
    rows.append(
        _row(
            "spinrep.monomial-rank",
            1,
            [] if rank == 2**n else [f"rank {rank} != {2**n}"],
        )
    )

    failures = []
    count = 20
    for _ in range(count):
        F, G = random_xi_poly(rng, n), random_xi_poly(rng, n)
        if rep.rho(star_mul(F, G, sig)) != mat_mul(rep.rho(F), rep.rho(G)):
            failures.append(f"rho not multiplicative on F={F}, G={G}")
    rows.append(_row("spinrep.rho-algebra-morphism", count, failures))

    failures = []
    cases = 0
    for variant in ("standard", "canonical"):
        mats = [prequant_op(SuperPolynomial.var_xi(n, i), sig, variant) for i in range(1, n + 1)]
        for i in range(n):
            for j in range(n):
                cases += 1
                anti = anticommutator(mats[i], mats[j])
                if i == j:
                    if anti != identity(2**n, Scalar.rational(-2 * sig.eta(i + 1))):
                        failures.append(f"{variant}: c(xi{i+1})^2 wrong")
                elif any(anti):
                    failures.append(f"{variant}: c(xi{i+1}) and c(xi{j+1}) do not anticommute")
    rows.append(_row("spinrep.prequantisation-relations", cases, failures))
    return rows


# -- kosmann ---------------------------------------------------------------------------


def suite_kosmann(sig: Signature, seed: int) -> list[CheckRow]:
    gens = conformal_generators(sig)
    rows = []

    failures = []
    for X in gens:
        lhs = normal_order(comoment_even(X, sig), sig)
        rhs = kosmann_lie(X, sig).scale(Scalar.h())
        if lhs != rhs:
            failures.append(f"{X.name}: N(J) != h sL")
    rows.append(_row("kosmann.quantised-comoment", len(gens), failures))

    failures = _morphism_failures(
        gens,
        lambda X: kosmann_lie(X, sig),
        # kosmann_lie is cached, so a diagonal pair (X, X) is one object, whose bracket is zero
        lambda A, B: SpinorDiffOp.zero(sig) if A is B else A.compose(B) - B.compose(A),
        lambda X, Y: f"[sL_{X.name}, sL_{Y.name}] != sL_[X,Y]",
    )
    rows.append(_row("kosmann.lie-algebra-morphism", len(gens) ** 2, failures))
    return rows


# -- module actions ----------------------------------------------------------------------


def suite_modules(sig: Signature, seed: int) -> list[CheckRow]:
    rng = random.Random(seed)
    n = sig.n
    gens = conformal_generators(sig)
    rows = []
    delta = Fraction(1, 3)
    lam = Fraction(1, 5)
    mu = lam + delta
    operators = {
        "tensorial": lambda X: tensorial_operator(X, delta, sig),
        "hamiltonian": lambda X: hamiltonian_operator(X, delta, sig),
        "operator": lambda X: operator_symbol_action(X, lam, mu, sig),
    }

    for label, build in operators.items():
        failures = _morphism_failures(
            gens, build, SuperDiffOp.commutator, lambda X, Y: f"[{label} {X.name}, {label} {Y.name}] fails"
        )
        rows.append(_row(f"modules.{label}-morphism", len(gens) ** 2, failures))

    failures = []
    minus_half_h, unit = Scalar.h(1, Fraction(-1, 2)), units(n)
    for X in gens:
        # (-h/2) eta_kk (d_i d_j X^k) xi^k xi^j dp_i, summed over k != j
        corr = SuperDiffOp(n, [
            (((), (), unit[i - 1]), (d * SuperPolynomial.monomial(n, xi=(k, j), coeff=minus_half_h)).scale(sig.eta(k)))
            for (k, i, j), d in hessian(X).items() if k != j
        ])
        if operators["hamiltonian"](X) - operators["tensorial"](X) != corr:
            failures.append(f"{X.name}: hamiltonian minus tensorial differs from xi xi d2X dp term")
    rows.append(_row("modules.hamiltonian-vs-tensorial-difference", len(gens), failures))

    similitudes = [g for g in gens if not g.name.startswith("K")]
    failures = [
        f"{X.name}: three actions disagree on a similitude"
        for X in similitudes
        if not operators["tensorial"](X) == operators["hamiltonian"](X) == operators["operator"](X)
    ]
    rows.append(_row("modules.similitude-agreement", len(similitudes), failures))

    failures = []
    count = 100
    for t in range(count):
        X = gens[t % len(gens)]
        F = random_bidegree(rng, n, rng.randint(0, 2), rng.randint(0, min(2, n)), terms=3)
        lhs = normal_order(act_D_symbolside(X, lam, mu, F, sig), sig)
        rhs = act_D_direct(X, lam, mu, normal_order(F, sig), sig)
        if lhs != rhs:
            failures.append(f"{X.name}: symbol-side and direct routes disagree on {F}")
    rows.append(_row("modules.operator-route-equality", count, failures))
    return rows


# -- graded Poisson correspondence ----------------------------------------------------------


def suite_graded_poisson(sig: Signature, seed: int) -> list[CheckRow]:
    rng = random.Random(seed)
    n = sig.n
    rows = []

    failures = []
    count = 100
    inv_h = Scalar.h(-1)
    for _ in range(count):
        k1, kap1 = rng.randint(0, 2), rng.randint(0, min(2, n))
        k2, kap2 = rng.randint(0, 2), rng.randint(0, min(2, n))
        F = random_bidegree(rng, n, k1, kap1, terms=3)
        G = random_bidegree(rng, n, k2, kap2, terms=3)
        d1, d2 = 2 * k1 + kap1, 2 * k2 + kap2
        target = d1 + d2 - 2
        bracket_ops = normal_order(F, sig).graded_commutator(normal_order(G, sig))
        lhs_poly = normal_order_inverse(bracket_ops).scale(inv_h)
        lhs = lhs_poly.hamiltonian_components().get(target, SuperPolynomial.zero(n))
        rhs = poisson(F, G, sig).hamiltonian_components().get(target, SuperPolynomial.zero(n))
        if lhs != rhs:
            failures.append(f"top-symbol mismatch for F={F}, G={G}")
        if not lhs_poly.is_zero() and max(lhs_poly.hamiltonian_components()) > target:
            failures.append(f"commutator exceeds filtration degree for F={F}, G={G}")
    rows.append(_row("graded-poisson.bracket-correspondence", count, failures))
    return rows


SUITES = {
    "poisson": (suite_poisson, False),
    "star": (suite_star, False),
    "lift": (suite_lift, False),
    "comoment": (suite_comoment, False),
    "spinrep": (suite_spinrep, True),
    "kosmann": (suite_kosmann, True),
    "modules": (suite_modules, True),
    "graded-poisson": (suite_graded_poisson, False),
}


MAX_SUITE_DIM = 10
"""Largest dimension n at which any suite runs.

On a 2-core x86-64 machine with Python 3.11, in one process, side by
side with the code that read the Clifford product of xi words from a
table, every suite took at most 5.7 s and 35 MB at (5,5) (modules
4.3-5.7 s, spinrep 3.9-4.9 s, lift 1.5-2.6 s, star 0.14-0.25 s against
2.3-2.6 s, the others 0.6 s or less), and all suites together 12.5-13.3
s and 35 MB against 13.7-14.3 s and 44 MB (verify --suite all --dim 10
--signature 5,5 13.6-14.7 s against 15.1-17.9 s as a command); other
tenants' load moved such times up to 1.6x between runs.  An earlier
measurement had lift at 52 s at n = 14.  spinrep multiplies
prequantisation matrices of side 2^n, but their sparse rows hold one
entry each, so a product costs one step per row.
"""


def check_suite(name: str, sig: Signature) -> None:
    """Refuse a suite that cannot run at sig: a spin suite in odd n, spinrep at p < q
    (``build_spin_rep`` needs p >= q), or n above the limit."""
    if SUITES[name][1] and sig.n % 2:
        raise ValueError(f"suite {name!r} requires an even dimension")
    if name == "spinrep" and sig.p < sig.q:
        raise ValueError(f"suite {name!r} requires a signature with p >= q")
    if sig.n > MAX_SUITE_DIM:
        raise ValueError(
            f"suite {name!r} in dimension {sig.n} exceeds the limit MAX_SUITE_DIM = {MAX_SUITE_DIM}"
        )


def run_suite(name: str, sig: Signature, seed: int) -> list[CheckRow]:
    check_suite(name, sig)
    return SUITES[name][0](sig, seed)
