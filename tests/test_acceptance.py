"""Acceptance criteria: every check is exact (identically zero residuals).

Each criterion prints one [PASS]/[FAIL] line; run with ``pytest -v -s``
to see them.  Randomised parts use fixed seeds and are reproducible.
"""

import json
import random
import time
from fractions import Fraction

from supercot.cli import main as cli_main
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
from supercot.invariants import (
    Weights,
    canonical_symbol,
    check_invariance,
    dirac_power,
    predicted_dimension,
    search_invariants,
)
from supercot.matutil import anticommutator, dense, identity
from supercot.randgen import (
    random_bidegree,
    random_parity_homogeneous,
    random_xi_homogeneous,
    random_xi_poly,
)
from supercot.star import star_mul
from supercot.superpoly import Signature, SuperPolynomial
from supercot.symplectic import conformal_generators, poisson
from supercot.verify import _anticommutation_failures, run_suite


def report(num: int, label: str, failures: list[str], started: float) -> None:
    status = "PASS" if not failures else "FAIL"
    took = time.time() - started
    print(f"[{status}] criterion {num}: {label} ({took:.1f}s)")
    assert not failures, failures[:3]


def test_criterion_01_clifford_from_moyal():
    started = time.time()
    rng = random.Random(100)
    failures = []
    combos = []
    for n in range(1, 7):
        combos.append(Signature(n, 0))
        if n >= 2:
            combos.append(Signature(n - 1, 1))
    triples_per_combo = max(1, 200 // len(combos)) + 1
    total_triples = 0
    for sig in combos:
        n = sig.n
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                xi_i, xi_j = SuperPolynomial.var_xi(n, i), SuperPolynomial.var_xi(n, j)
                anti = star_mul(xi_i, xi_j, sig) + star_mul(xi_j, xi_i, sig)
                want = SuperPolynomial.constant(n, -sig.eta(i)) if i == j else SuperPolynomial.zero(n)
                if anti != want:
                    failures.append(f"({sig.p},{sig.q}): relation fails at ({i},{j})")
        for _ in range(triples_per_combo):
            if total_triples >= 200:
                break
            total_triples += 1
            F, G, H = (random_xi_poly(rng, n) for _ in range(3))
            if star_mul(star_mul(F, G, sig), H, sig) != star_mul(F, star_mul(G, H, sig), sig):
                failures.append(f"({sig.p},{sig.q}): associativity fails")
        for _ in range(6):
            k, l = rng.randint(0, n), rng.randint(0, n)
            F = random_xi_homogeneous(rng, n, k)
            G = random_xi_homogeneous(rng, n, l)
            prod = star_mul(F, G, sig)
            if prod.bidegree_component(0, k + l) != (F * G).bidegree_component(0, k + l):
                failures.append(f"({sig.p},{sig.q}): filtration fails at ({k},{l})")
    assert total_triples >= 200
    report(1, "Clifford relations, star associativity, filtration (n <= 6)", failures, started)


def test_criterion_02_graded_poisson_axioms():
    started = time.time()
    rng = random.Random(101)
    failures = []
    combos = [Signature(2, 0), Signature(1, 1), Signature(3, 0), Signature(4, 0), Signature(3, 1)]
    triples = 0
    while triples < 200:
        sig = combos[triples % len(combos)]
        n = sig.n
        triples += 1
        F = random_parity_homogeneous(rng, n, rng.randint(0, 1), terms=3)
        G = random_parity_homogeneous(rng, n, rng.randint(0, 1), terms=3)
        H = random_parity_homogeneous(rng, n, rng.randint(0, 1), terms=3)
        sign = -1 if (F.parity() and G.parity()) else 1
        if poisson(F, G, sig) != poisson(G, F, sig).scale(-sign):
            failures.append(f"antisymmetry fails ({sig.p},{sig.q})")
        if poisson(F, G * H, sig) != poisson(F, G, sig) * H + (G * poisson(F, H, sig)).scale(sign):
            failures.append(f"Leibniz fails ({sig.p},{sig.q})")
        lhs = poisson(F, poisson(G, H, sig), sig)
        rhs = poisson(poisson(F, G, sig), H, sig) + poisson(G, poisson(F, H, sig), sig).scale(sign)
        if lhs != rhs:
            failures.append(f"Jacobi fails ({sig.p},{sig.q})")
    report(2, "graded Poisson antisymmetry, Jacobi, Leibniz (200 triples, n <= 4)", failures, started)


def _suite_failures(suites, sig, morphism_cases: dict[str, int]) -> list[str]:
    """Failed rows of the named verify suites at sig, after checking each morphism row's case count."""
    rows = [row for suite in suites for row in run_suite(suite, sig, 0)]
    for row in rows:
        if row.name in morphism_cases:
            assert row.cases == morphism_cases[row.name], row.name
    return [f"({sig.p},{sig.q}): {row.name}: {row.detail}" for row in rows if not row.ok]


def test_criterion_03_lift_and_comoment_morphisms():
    started = time.time()
    failures = []
    for sig in (Signature(2, 0), Signature(4, 0), Signature(3, 1)):
        pairs = len(conformal_generators(sig)) ** 2
        failures += _suite_failures(
            ("lift", "comoment"),
            sig,
            {"lift.lie-algebra-morphism": pairs, "comoment.lie-algebra-morphism": pairs},
        )
    report(3, "lift and comoment are Lie algebra morphisms (all pairs, n in {2,4})", failures, started)


def test_criterion_04_spin_representation():
    started = time.time()
    failures = []
    for p, q in [(2, 0), (1, 1), (4, 0), (3, 1), (2, 2)]:
        rep = build_spin_rep(Signature(p, q))
        if _anticommutation_failures(
            rep.matrices,
            anticommutator,
            lambda i, j: identity(rep.size, Scalar.rational(-rep.sig.eta(i, j))),
            lambda i, j, got: f"{{c{i}, c{j}}} = {got}",
        ):
            failures.append(f"({p},{q}): Clifford relations fail")
        rank = rep.monomial_rank()
        if rank != 2 ** (p + q):
            failures.append(f"({p},{q}): monomial rank {rank} != {2 ** (p + q)}")
    report(4, "spin representations: relations and full monomial rank", failures, started)


def test_criterion_05_kosmann_correspondence():
    started = time.time()
    failures = []
    for sig in (Signature(2, 0), Signature(1, 1), Signature(4, 0), Signature(3, 1)):
        count = len(conformal_generators(sig))
        failures += _suite_failures(
            ("kosmann",),
            sig,
            {"kosmann.quantised-comoment": count, "kosmann.lie-algebra-morphism": count**2},
        )
    report(5, "quantised comoment equals h times the spinor Lie derivative", failures, started)


def test_criterion_06_module_action_coherence():
    started = time.time()
    rng = random.Random(102)
    failures = []
    lam = Fraction(1, 5)
    for sig in (Signature(2, 0), Signature(4, 0)):
        n = sig.n
        gens = conformal_generators(sig)
        delta = Fraction(1, 3)
        for X in gens:
            for _ in range(2):
                F = random_bidegree(rng, n, rng.randint(0, 2), rng.randint(0, 2), terms=3)
                diff = act_S(X, delta, F, sig) - act_T(X, delta, F, sig)
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
                                acc = acc + (hess * SuperPolynomial.monomial(n, xi=(k, j))).scale(sig.eta(k))
                    corr = corr + acc * dpF
                if diff != corr.scale(Scalar.h(1, Fraction(-1, 2))):
                    failures.append(f"({sig.p},{sig.q}): difference formula fails for {X.name}")
        mu = lam + Fraction(1, 2)
        for t in range(100):
            X = gens[t % len(gens)]
            F = random_bidegree(rng, n, rng.randint(0, 2), rng.randint(0, 2), terms=3)
            lhs = normal_order(act_D_symbolside(X, lam, mu, F, sig), sig)
            rhs = act_D_direct(X, lam, mu, normal_order(F, sig), sig)
            if lhs != rhs:
                failures.append(f"({sig.p},{sig.q}): route equality fails for {X.name}")
    report(6, "difference formula and operator-action route equality (100 symbols per dim)", failures, started)


def test_criterion_07_graded_poisson_algebra():
    started = time.time()
    rng = random.Random(103)
    failures = []
    inv_h = Scalar.h(-1)
    for sig in (Signature(2, 0), Signature(3, 1)):
        n = sig.n
        for _ in range(100):
            k1, kap1 = rng.randint(0, 2), rng.randint(0, min(2, n))
            k2, kap2 = rng.randint(0, 2), rng.randint(0, min(2, n))
            F = random_bidegree(rng, n, k1, kap1, terms=3)
            G = random_bidegree(rng, n, k2, kap2, terms=3)
            target = 2 * k1 + kap1 + 2 * k2 + kap2 - 2
            bracket = normal_order(F, sig).graded_commutator(normal_order(G, sig))
            lhs_poly = normal_order_inverse(bracket).scale(inv_h)
            lhs = lhs_poly.hamiltonian_components().get(target, SuperPolynomial.zero(n))
            rhs = poisson(F, G, sig).hamiltonian_components().get(target, SuperPolynomial.zero(n))
            if lhs != rhs:
                failures.append(f"({sig.p},{sig.q}): correspondence fails")
            if not lhs_poly.is_zero() and max(lhs_poly.hamiltonian_components()) > target:
                failures.append(f"({sig.p},{sig.q}): filtration violated")
    report(7, "graded Poisson algebra correspondence (100 pairs per signature)", failures, started)


def test_criterion_08_classification():
    started = time.time()
    failures = []
    for sig in (Signature(2, 0), Signature(1, 1), Signature(4, 0), Signature(3, 1)):
        n = sig.n
        for k in range(0, 4):
            for kappa in range(0, n + 1):
                if 2 * k + kappa > 7:
                    continue
                delta = Fraction(k, n)
                for tag in ("T", "S"):
                    w = Weights.symbol(delta)
                    got = search_invariants(sig, k, kappa, tag, w).dimension
                    want = predicted_dimension(sig, k, kappa, tag, w)
                    if got != want:
                        failures.append(f"({sig.p},{sig.q}) {tag}({k},{kappa}): {got} != {want}")
                    off = search_invariants(sig, k, kappa, tag, Weights.symbol(delta + Fraction(1, 7)))
                    if off.dimension != 0:
                        failures.append(f"({sig.p},{sig.q}) {tag}({k},{kappa}): off-weight nonzero")
                lam = Fraction(n - k, 2 * n)
                w = Weights.operator(lam, lam + delta)
                got = search_invariants(sig, k, kappa, "D", w).dimension
                want = predicted_dimension(sig, k, kappa, "D", w)
                if got != want:
                    failures.append(f"({sig.p},{sig.q}) D({k},{kappa}): {got} != {want}")
                if k % 2 == 1 and kappa in (1, n - 1):
                    lam_off = lam + Fraction(1, 100)
                    off = search_invariants(sig, k, kappa, "D", Weights.operator(lam_off, lam_off + delta))
                    if off.dimension != 0:
                        failures.append(f"({sig.p},{sig.q}) D({k},{kappa}): off-resonance nonzero")

        # explicit clauses of the criterion
        chi = canonical_symbol("chi", sig).poly
        for lam in (Fraction(0), Fraction(1, 3)):
            if not check_invariance(chi, "D", Weights.operator(lam, lam), sig).invariant:
                failures.append(f"({sig.p},{sig.q}): chirality fails at lam = mu = {lam}")
        if check_invariance(chi, "D", Weights.operator(Fraction(0), Fraction(1, 7)), sig).invariant:
            failures.append(f"({sig.p},{sig.q}): chirality invariant at lam != mu")
        delta_sym = canonical_symbol("Delta", sig).poly
        dsc = canonical_symbol("DeltaStarChi", sig).poly
        res_lam = Fraction(n - 1, 2 * n)
        for name, cand in (("Delta", delta_sym), ("DeltaStarChi", dsc)):
            w = Weights.operator(res_lam, res_lam + Fraction(1, n))
            if not check_invariance(cand, "D", w, sig).invariant:
                failures.append(f"({sig.p},{sig.q}): {name} fails at resonant weight")
            w_off = Weights.operator(res_lam + Fraction(1, 100), res_lam + Fraction(1, 100) + Fraction(1, n))
            if check_invariance(cand, "D", w_off, sig).invariant:
                failures.append(f"({sig.p},{sig.q}): {name} invariant off resonance")
        R = canonical_symbol("R", sig).poly
        for s in (0, 1, 2):
            cand = delta_sym
            for _ in range(s):
                cand = cand * R
            lam_res = Fraction(n - 2 * s - 1, 2 * n)
            w = Weights.operator(lam_res, lam_res + Fraction(2 * s + 1, n))
            if not check_invariance(cand, "D", w, sig).invariant:
                failures.append(f"({sig.p},{sig.q}): Delta R^{s} fails at resonance")
            w_off = Weights.operator(lam_res + Fraction(1, 100), lam_res + Fraction(1, 100) + Fraction(2 * s + 1, n))
            if check_invariance(cand, "D", w_off, sig).invariant:
                failures.append(f"({sig.p},{sig.q}): Delta R^{s} invariant off resonance")
        for s in (1, 2):
            Rs = SuperPolynomial.one(n)
            for _ in range(s):
                Rs = Rs * R
            if not check_invariance(Rs, "T", Weights.symbol(Fraction(2 * s, n)), sig).invariant:
                failures.append(f"({sig.p},{sig.q}): R^{s} not tensorial-invariant")
            if check_invariance(Rs, "S", Weights.symbol(Fraction(2 * s, n)), sig).invariant:
                failures.append(f"({sig.p},{sig.q}): R^{s} wrongly Hamiltonian-invariant")
    report(8, "classification of invariants reproduced (bidegrees 2k+kappa <= 7)", failures, started)


def test_criterion_09_dirac_power_invariance():
    started = time.time()
    failures = []
    for sig in (Signature(2, 0), Signature(4, 0)):
        for s in (0, 1, 2):
            dp = dirac_power(s, sig)
            if not check_invariance(dp.operator, "D", dp.weights, sig).invariant:
                failures.append(f"({sig.p},{sig.q}) s={s}: not invariant")
            off = Weights.operator(dp.weights.lam + Fraction(1, 100), dp.weights.mu + Fraction(1, 100))
            if check_invariance(dp.operator, "D", off, sig).invariant:
                failures.append(f"({sig.p},{sig.q}) s={s}: invariant at perturbed weight")
    report(9, "conformal odd powers of the Dirac operator (s in {0,1,2}, n in {2,4})", failures, started)


def test_criterion_10_cli_contract(capsys):
    started = time.time()
    failures = []

    def run(*argv):
        code = cli_main(list(argv))
        out = capsys.readouterr().out
        return code, out

    code, _ = run("check", "p1*xi1+p2*xi2", "--module", "S", "--delta", "1/2", "--dim", "2")
    if code != 0:
        failures.append(f"first golden command exit {code}")
    code, _ = run("check", "p1^2+p2^2", "--module", "S", "--delta", "1", "--dim", "2")
    if code != 1:
        failures.append(f"second golden command exit {code}")
    code, _ = run("check", "p1^2+p2^2", "--module", "T", "--delta", "1", "--dim", "2")
    if code != 0:
        failures.append(f"third golden command exit {code}")

    code, out1 = run(
        "search", "--dim", "2", "--bidegree", "1,1", "--module", "S", "--delta", "1/2",
        "--format", "json",
    )
    payload = json.loads(out1)
    if payload["dimension"] != 2:
        failures.append("search dimension wrong")
    for entry in payload["basis"]:
        SuperPolynomial.from_json(entry)
    code, out2 = run(
        "search", "--dim", "2", "--bidegree", "1,1", "--module", "S", "--delta", "1/2",
        "--format", "json",
    )
    if out1 != out2:
        failures.append("search output not byte-identical")

    code, out = run("dirac-power", "--s", "1", "--dim", "4", "--format", "json")
    payload = json.loads(out)
    if payload["weights"]["lambda"] != "1/8" or payload["weights"]["mu"] != "7/8":
        failures.append("dirac-power weights wrong")
    from supercot.spinop import SpinorDiffOp

    SpinorDiffOp.from_json(payload["operator"], Signature(4, 0))

    code, out = run("spin-rep", "--dim", "2", "--signature", "1,1", "--format", "json")
    payload = json.loads(out)
    mats = [
        [[Scalar.from_json(entry) for entry in row] for row in mat]
        for mat in payload["matrices"]
    ]
    # gamma matrices: gamma_i gamma_j + gamma_j gamma_i = -2 eta^{ij}
    sig = Signature(1, 1)
    for i in range(2):
        for j in range(2):
            anti = [
                [
                    sum((mats[i][r][k] * mats[j][k][c] + mats[j][r][k] * mats[i][k][c]) for k in range(2))
                    + Scalar.zero()
                    for c in range(2)
                ]
                for r in range(2)
            ]
            want = dense(identity(2, Scalar.rational(-2 * sig.eta(i + 1)) if i == j else 0))
            if anti != want:
                failures.append(f"gamma relations fail at ({i+1},{j+1})")
    report(10, "CLI contract: exit codes, schemas, reproducibility", failures, started)
