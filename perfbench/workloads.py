"""The benchmark's workloads: seeded operation lists with independent expectations.

Every operation is a zero-argument callable that returns ``(ok, digest)``.
``ok`` compares the program's result with an expectation that comes from
a rule stated here (the classification theorem, an exit code, a route
equality), never from a stored run.  ``digest`` is a stable text hash of
the exact result, so a traced and an untraced pass can be compared op by
op.  Inputs depend only on the seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from fractions import Fraction

CLASSIFY_SIGNATURES = ((2, 0), (1, 1), (4, 0), (3, 1))
VERIFY_SIGNATURES = ((3, 1), (2, 0))
OPERATOR_SIGNATURES = ((3, 1), (4, 0))
VERIFY_SUITES = (
    "poisson", "star", "lift", "comoment", "spinrep", "kosmann", "modules", "graded-poisson",
)


def digest(obj) -> str:
    text = obj if isinstance(obj, str) else json.dumps(obj, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def seeded_offset(rng: random.Random) -> Fraction:
    """A weight shift of +-1/b with b in {7, 11, 13}: never a resonant weight.

    The numerator stays 1 so that the seed changes the inputs without
    changing the size of the exact rationals, and with it the cost.
    """
    return Fraction(rng.choice((1, -1)), rng.choice((7, 11, 13)))


def expected_dimension(n: int, k: int, kappa: int, tag: str, delta: Fraction,
                       lam: Fraction | None = None) -> int:
    """Invariant dimensions in bidegree (k, kappa), restated from the classification.

    Families Delta^a chi^b R^s with a = k mod 2: T at delta = k/n counts
    kappa = a and kappa = n - a; S likewise for odd k, and for even k only
    kappa = n plus the constant; D has the constant and chi at k = 0, and
    for odd k the kappa = 1 and kappa = n - 1 families at the resonant
    lambda = (n - k)/2n only.  Any other weight has no invariant.
    """
    if delta != Fraction(k, n):
        return 0
    a = k % 2
    if tag == "T":
        return (kappa == a) + (kappa == n - a)
    if tag == "S":
        if a:
            return (kappa == 1) + (kappa == n - 1)
        return (kappa == n) + (k == 0 and kappa == 0)
    if k == 0:
        return (kappa == 0) + (kappa == n)
    if a == 0 or lam != Fraction(n - k, 2 * n):
        return 0
    return (kappa == 1) + (kappa == n - 1)


# -- classify -------------------------------------------------------------------


def search_op(sc, sig, k, kappa, tag, weights, want):
    def op():
        result = sc.search_invariants(sig, k, kappa, tag, weights)
        return result.dimension == want, digest(result.to_json())
    return op


def classify_cases(seed: int):
    """(p, q, k, kappa, tag, delta, lam) of every search in the criterion-08 grid.

    T and S run at delta = k/n and at a seeded off-weight delta; D runs at
    the resonant lambda = (n - k)/2n, and at a seeded off-resonance lambda
    when k is odd and kappa is 1 or n - 1.  lam is None for T and S.
    """
    rng = random.Random(seed)
    for p, q in CLASSIFY_SIGNATURES:
        n = p + q
        for k in range(4):
            for kappa in range(n + 1):
                if 2 * k + kappa > 7:
                    continue
                delta = Fraction(k, n)
                off = delta + seeded_offset(rng)
                for tag in ("T", "S"):
                    yield p, q, k, kappa, tag, delta, None
                    yield p, q, k, kappa, tag, off, None
                lam = Fraction(n - k, 2 * n)
                yield p, q, k, kappa, "D", delta, lam
                if k % 2 == 1 and kappa in (1, n - 1):
                    yield p, q, k, kappa, "D", delta, lam + seeded_offset(rng)


def classify_ops(sc, seed: int):
    ops = []
    for p, q, k, kappa, tag, delta, lam in classify_cases(seed):
        if lam is None:
            weights, label = sc.Weights.symbol(delta), f"delta={delta}"
        else:
            weights, label = sc.Weights.operator(lam, lam + delta), f"lambda={lam}"
        want = expected_dimension(p + q, k, kappa, tag, delta, lam)
        ops.append((f"({p},{q}) {tag}({k},{kappa}) {label}",
                    search_op(sc, sc.Signature(p, q), k, kappa, tag, weights, want)))
    return ops


# -- verify ---------------------------------------------------------------------


def _verify_op(sc, argv):
    def op():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = sc.cli_main(argv)
        text = out.getvalue()
        return code == 0 and json.loads(text)["ok"] is True, digest(text)
    return op


def verify_ops(sc, seed: int):
    """Every verify suite through the CLI entry point, in JSON mode."""
    ops = []
    for p, q in VERIFY_SIGNATURES:
        for suite in VERIFY_SUITES:
            argv = ["verify", "--suite", suite, "--dim", str(p + q), "--signature", f"{p},{q}",
                    "--seed", str(seed), "--format", "json"]
            ops.append((f"({p},{q}) verify {suite}", _verify_op(sc, argv)))
    return ops


# -- operators ------------------------------------------------------------------


def _dirac_op(sc, sig, s, store):
    def op():
        dp = sc.dirac_power(s, sig)
        store["dp"] = dp
        ok = (sc.normal_order_inverse(dp.operator) == dp.symbol
              and dp.symbol.bidegrees() == {(2 * s + 1, 1)})
        return ok, digest(dp.operator.to_json())
    return op


def _check_op(sc, sig, store, which, offset):
    def op():
        dp = store["dp"]
        weights = dp.weights
        if offset:
            weights = sc.Weights.operator(weights.lam + offset, weights.mu + offset)
        report = sc.check_invariance(getattr(dp, which), "D", weights, sig)
        residuals = [(name, res.to_json()) for name, res in report.residuals]
        return report.invariant == (not offset), digest(residuals)
    return op


def _route_op(sc, sig, store, gen, offset):
    def op():
        dp = store["dp"]
        lam, mu = dp.weights.lam + offset, dp.weights.mu + offset
        direct = sc.act_D_direct(gen, lam, mu, dp.operator, sig)
        via_symbol = sc.normal_order(sc.act_D_symbolside(gen, lam, mu, dp.symbol, sig), sig)
        return direct == via_symbol, digest(direct.to_json())
    return op


def operators_ops(sc, seed: int):
    """Dirac powers: invariance at and off resonance, and the route equality per generator.

    The route equality act_D_direct(N(F)) == N(act_D_symbolside(F)) is
    checked at the seeded off-resonance weight, where the dilation and
    inversions give nonzero results on both routes.
    """
    rng = random.Random(seed)
    ops = []
    for p, q in OPERATOR_SIGNATURES:
        sig = sc.Signature(p, q)
        for s in range(4):
            store: dict = {}
            offset = seeded_offset(rng)
            tag = f"({p},{q}) s={s}"
            ops.append((f"{tag} dirac_power", _dirac_op(sc, sig, s, store)))
            for which in ("symbol", "operator"):
                for off in (Fraction(0), offset):
                    ops.append((f"{tag} check {which} shift={off}",
                                _check_op(sc, sig, store, which, off)))
            for gen in sc.conformal_generators(sig):
                ops.append((f"{tag} route {gen.name}", _route_op(sc, sig, store, gen, offset)))
    return ops


WORKLOADS = {"classify": classify_ops, "verify": verify_ops, "operators": operators_ops}
# The signatures whose fixed objects each workload builds, for the set-up probe.
SIGNATURES = {
    "classify": CLASSIFY_SIGNATURES,
    "verify": VERIFY_SIGNATURES,
    "operators": OPERATOR_SIGNATURES,
}
