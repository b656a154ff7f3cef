"""Named property suites driving the structural identities of the engine.

Each suite returns a list of CheckRow, one per identity; a row fails
only when an identity does not hold exactly in the scalar ring.  The
randomised suites draw from a seeded generator so reruns are
reproducible and byte-identical.

Each kind of identity has one checker.  ``_morphism_failures`` checks the
Lie-algebra morphisms [A_X, A_Y] = A_[X,Y] of the lift, the even
comoment, the spinor Lie derivative and the three module actions exactly,
with no sample.  Its brackets (``SuperDiffOp.commutator``, ``poisson`` on
even comoments, ``SpinorDiffOp.graded_commutator`` on even operators) are
antisymmetric by construction, so a pair X != Y is bracketed once, and on
the diagonal [A_X, A_X] = 0 leaves A_[X,X] = 0, the action of the zero
field, to be checked with no bracket.  ``_anticommutation_failures``
checks {e_i, e_j} = want(i, j) once per unordered pair, for the star
products of the xi^i, the spin c-matrices and both prequantisations.
``_sampled`` runs the rows whose identity holds between polynomials or
matrices rather than fixed operators (Poisson graded antisymmetry,
Leibniz and Jacobi, star associativity, filtration and the degree-2 Weyl
bracket, the rho algebra morphism, the route equality of the operator
action and the graded-Poisson correspondence), drawing each case in a
fixed order.  The lift as {J_X, .}, the Hamiltonian minus the tensorial
action as its closed-form xi xi d2X dp operator and the agreement of the
three actions on each similitude are operator identities too.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import cycle

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


def _sampled(name: str, count: int, case) -> CheckRow:
    """The row of count seeded cases; case() draws one case and yields its failure messages."""
    return _row(name, count, [text for _ in range(count) for text in case()])


def _anticommutation_failures(elems, anti, want, message) -> list[str]:
    """Failures of anti(e_i, e_j) == want(i, j) for i, j in 1..len(elems), in row-major order.

    anti is symmetric, so each unordered pair is computed once; message(i, j,
    got) names a failing pair, and an off-diagonal one fails in both orders.
    """
    failures = []
    for i in range(1, len(elems) + 1):
        for j in range(i, len(elems) + 1):
            got = anti(elems[i - 1], elems[j - 1])
            if got != want(i, j):
                failures.append(((i, j), message(i, j, got)))
                if i != j:
                    failures.append(((j, i), message(j, i, got)))
    return [text for _pair, text in sorted(failures)]


def _morphism_failures(gens, build, bracket, message) -> list[str]:
    """Failures of [build(X), build(Y)] == build([X, Y]) on gens x gens, in row-major order.

    Every bracket passed here is antisymmetric, so a pair X != Y is
    bracketed once: the result is compared with build([X, Y]), and its
    negative with build([Y, X]).  On the diagonal the bracket is zero and
    the identity says that build([X, X]), the action of the zero field, is
    zero; that is checked with no bracket.
    """
    failures = []
    for i, X in enumerate(gens):
        if not build(vf_bracket(X, X)).is_zero():
            failures.append(((i, i), message(X, X)))
        for j in range(i + 1, len(gens)):
            Y = gens[j]
            c = bracket(build(X), build(Y))
            if c != build(vf_bracket(X, Y)):
                failures.append(((i, j), message(X, Y)))
            if c.scale(-1) != build(vf_bracket(Y, X)):
                failures.append(((j, i), message(Y, X)))
    return [text for _pair, text in sorted(failures)]


# -- poisson ------------------------------------------------------------------


def suite_poisson(sig: Signature, seed: int) -> list[CheckRow]:
    rng = random.Random(seed)
    n = sig.n

    failures = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            got = poisson(SuperPolynomial.var_p(n, i), SuperPolynomial.var_x(n, j), sig)
            if got != SuperPolynomial.constant(n, int(i == j)):
                failures.append(f"{{p{i},x{j}}} = {got}")
            got = poisson(SuperPolynomial.var_xi(n, i), SuperPolynomial.var_xi(n, j), sig)
            if got != SuperPolynomial.constant(n, Scalar.h(-1, -sig.eta(i, j))):
                failures.append(f"{{xi{i},xi{j}}} = {got}")
            if not poisson(SuperPolynomial.var_x(n, i), SuperPolynomial.var_x(n, j), sig).is_zero():
                failures.append(f"{{x{i},x{j}}} nonzero")

    def antisymmetry():
        F = random_parity_homogeneous(rng, n, rng.randint(0, 1))
        G = random_parity_homogeneous(rng, n, rng.randint(0, 1))
        sign = -1 if (F.parity() and G.parity()) else 1
        if poisson(F, G, sig) != poisson(G, F, sig).scale(-sign):
            yield f"antisymmetry fails: F={F}, G={G}"

    def leibniz():
        F = random_parity_homogeneous(rng, n, rng.randint(0, 1), terms=3)
        G = random_parity_homogeneous(rng, n, rng.randint(0, 1), terms=3)
        H = random_superpoly(rng, n, terms=3)
        sign = -1 if (F.parity() and G.parity()) else 1
        if poisson(F, G * H, sig) != poisson(F, G, sig) * H + (G * poisson(F, H, sig)).scale(sign):
            yield f"Leibniz fails: F={F}, G={G}, H={H}"

    def jacobi():
        F = random_parity_homogeneous(rng, n, rng.randint(0, 1), terms=3)
        G = random_parity_homogeneous(rng, n, rng.randint(0, 1), terms=3)
        H = random_parity_homogeneous(rng, n, rng.randint(0, 1), terms=3)
        sign = -1 if (F.parity() and G.parity()) else 1
        lhs = poisson(F, poisson(G, H, sig), sig)
        if lhs != poisson(poisson(F, G, sig), H, sig) + poisson(G, poisson(F, H, sig), sig).scale(sign):
            yield f"Jacobi fails: F={F}, G={G}, H={H}"

    return [
        _row("poisson.canonical-relations", 3 * n * n, failures),
        _sampled("poisson.graded-antisymmetry", 200, antisymmetry),
        _sampled("poisson.graded-leibniz", 200, leibniz),
        _sampled("poisson.graded-jacobi", 200, jacobi),
    ]


# -- star -----------------------------------------------------------------------


def suite_star(sig: Signature, seed: int) -> list[CheckRow]:
    rng = random.Random(seed)
    n = sig.n

    failures = _anticommutation_failures(
        [SuperPolynomial.var_xi(n, i) for i in range(1, n + 1)],
        lambda a, b: star_mul(a, b, sig) + star_mul(b, a, sig),
        lambda i, j: SuperPolynomial.constant(n, -sig.eta(i, j)),
        lambda i, j, got: f"xi{i}*xi{j}+xi{j}*xi{i} = {got}",
    )

    def associativity():
        F, G, H = (random_xi_poly(rng, n) for _ in range(3))
        if star_mul(star_mul(F, G, sig), H, sig) != star_mul(F, star_mul(G, H, sig), sig):
            yield f"associativity fails: F={F}, G={G}, H={H}"

    def filtration():
        k, l = rng.randint(0, n), rng.randint(0, n)
        F = random_xi_homogeneous(rng, n, k)
        G = random_xi_homogeneous(rng, n, l)
        prod = star_mul(F, G, sig)
        if prod.bidegree_component(0, k + l) != (F * G).bidegree_component(0, k + l):
            yield f"top component differs: F={F}, G={G}"
        for (_kk, kappa) in prod.bidegrees():
            if kappa > k + l or (k + l - kappa) % 2:
                yield f"degree {kappa} outside filtration for ({k},{l})"

    def weyl_bracket():
        u = random_xi_homogeneous(rng, n, rng.randint(0, min(2, n)))
        v = random_xi_poly(rng, n)
        ok, lhs, rhs = weyl_bracket_check(u, v, sig)
        if not ok:
            yield f"bracket mismatch: u={u}, v={v}, lhs={lhs}, rhs={rhs}"

    return [
        _row("star.clifford-relations", n * n, failures),
        _sampled("star.associativity", 200, associativity),
        _sampled("star.filtration", 100, filtration),
        _sampled("star.weyl-bracket-degree2", 50, weyl_bracket),
    ]


# -- lift and comoment ------------------------------------------------------------


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
    failures = _morphism_failures(
        gens,
        lambda X: comoment_even(X, sig),
        lambda F, G: poisson(F, G, sig),
        lambda X, Y: f"{{J_{X.name}, J_{Y.name}}} != J_[X,Y]",
    )
    return [_row("comoment.lie-algebra-morphism", len(gens) ** 2, failures)]


# -- spin representation -------------------------------------------------------------


def suite_spinrep(sig: Signature, seed: int) -> list[CheckRow]:
    rng = random.Random(seed)
    n = sig.n
    rows = []
    rep = build_spin_rep(sig)

    failures = _anticommutation_failures(
        rep.matrices,
        anticommutator,
        lambda i, j: identity(rep.size, Scalar.rational(-sig.eta(i, j))),
        lambda i, j, got: f"c{i}c{j}+c{j}c{i} differs from -eta",
    )
    rows.append(_row("spinrep.clifford-relations", n * n, failures))
    rank = rep.monomial_rank()
    rows.append(_row("spinrep.monomial-rank", 1, [] if rank == 2**n else [f"rank {rank} != {2**n}"]))

    def rho_morphism():
        F, G = random_xi_poly(rng, n), random_xi_poly(rng, n)
        if rep.rho(star_mul(F, G, sig)) != mat_mul(rep.rho(F), rep.rho(G)):
            yield f"rho not multiplicative on F={F}, G={G}"

    rows.append(_sampled("spinrep.rho-algebra-morphism", 20, rho_morphism))

    failures = []
    for variant in ("standard", "canonical"):
        failures += _anticommutation_failures(
            [prequant_op(SuperPolynomial.var_xi(n, i), sig, variant) for i in range(1, n + 1)],
            anticommutator,
            lambda i, j: identity(2**n, Scalar.rational(-2 * sig.eta(i, j))),
            lambda i, j, got: (
                f"{variant}: c(xi{i})^2 wrong" if i == j
                else f"{variant}: c(xi{i}) and c(xi{j}) do not anticommute"
            ),
        )
    rows.append(_row("spinrep.prequantisation-relations", 2 * n * n, failures))
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
        SpinorDiffOp.graded_commutator,
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

    fields = cycle(gens)

    def route_equality():
        X = next(fields)
        F = random_bidegree(rng, n, rng.randint(0, 2), rng.randint(0, min(2, n)), terms=3)
        lhs = normal_order(act_D_symbolside(X, lam, mu, F, sig), sig)
        if lhs != act_D_direct(X, lam, mu, normal_order(F, sig), sig):
            yield f"{X.name}: symbol-side and direct routes disagree on {F}"

    rows.append(_sampled("modules.operator-route-equality", 100, route_equality))
    return rows


# -- graded Poisson correspondence ----------------------------------------------------------


def suite_graded_poisson(sig: Signature, seed: int) -> list[CheckRow]:
    rng = random.Random(seed)
    n = sig.n
    inv_h = Scalar.h(-1)

    def correspondence():
        k1, kap1 = rng.randint(0, 2), rng.randint(0, min(2, n))
        k2, kap2 = rng.randint(0, 2), rng.randint(0, min(2, n))
        F = random_bidegree(rng, n, k1, kap1, terms=3)
        G = random_bidegree(rng, n, k2, kap2, terms=3)
        target = 2 * k1 + kap1 + 2 * k2 + kap2 - 2
        bracket_ops = normal_order(F, sig).graded_commutator(normal_order(G, sig))
        lhs_poly = normal_order_inverse(bracket_ops).scale(inv_h)
        lhs = lhs_poly.hamiltonian_components().get(target, SuperPolynomial.zero(n))
        rhs = poisson(F, G, sig).hamiltonian_components().get(target, SuperPolynomial.zero(n))
        if lhs != rhs:
            yield f"top-symbol mismatch for F={F}, G={G}"
        if not lhs_poly.is_zero() and max(lhs_poly.hamiltonian_components()) > target:
            yield f"commutator exceeds filtration degree for F={F}, G={G}"

    return [_sampled("graded-poisson.bracket-correspondence", 100, correspondence)]


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

On a 2-core x86-64 machine with Python 3.11, in one process, every suite
took at most 3.5 s at (5,5) (modules 3.1-3.4 s, spinrep 2.7-3.5 s, lift
1.3-1.5 s, the others 0.4 s or less: poisson 0.10-0.13 s, comoment 0.1 s).
As a command, verify --suite all --dim 10 --signature 5,5 took 8.2-8.4 s
and 36 MB; other tenants' load moved such times up to 1.3x between runs.
spinrep multiplies prequantisation matrices of side 2^n, but their
sparse rows hold one entry each, so a product costs one step per row.
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
