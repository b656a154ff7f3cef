"""Canonical invariant symbols, invariance checking and exact kernel search.

The search works in a fixed bidegree (k in p, kappa in xi) with
constant coefficients: translation invariance forces x-independence, so
the ansatz is the span of the monomials p^alpha xi^I with |alpha| = k and
|I| = kappa.  The actions of T1..Tn and K1 are expanded over the monomial
times (h-power times scalar-part) basis, giving a sparse exact rational
linear system whose kernel, in reduced form, is the invariant subspace.
That is the kernel of all of conf: the module actions are Lie-algebra
morphisms and these n + 1 fields generate conf under the bracket.
check_invariance still applies, and reports, every generator.
Both look up each generator's cached confmod operator once per call.
check applies all of them in one shared pass (diffop.apply_all), which
takes each derivative of the candidate once; search applies each once to
the whole ansatz, each monomial tagged with its column, and holds one
generator's image at a time (_linear_system).  Those operators are
cached per (field, weights, signature); their weight-free cores and
weight terms per (field, signature), so n alone bounds those.
Optional flags enlarge the ansatz with bounded x-degree or h-degree as a
sanity check; both default to off.  An ansatz larger than MAX_ANSATZ
monomials is refused before any monomial is built, a dimension above
MAX_CONFORMAL_DIM before any conformal generator is, and a Dirac power
above MAX_DIRAC_TERMS before its symbol is.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, factorial

from .confmod import (
    hamiltonian_operator, normal_order, normal_order_inverse, operator_symbol_action,
    tensorial_operator,
)
from .diffop import SuperDiffOp, apply_all
from .matutil import kernel
from .spinop import SpinorDiffOp
from .star import star_mul
from .superpoly import (
    SLOT_BITS, SLOT_LIMIT, Signature, SuperPolynomial, derivative_key, pack, pack_key, p_shift, xi_mask,
)
from .symplectic import conformal_generating_set, conformal_generators, units

MODULE_TAGS = ("T", "S", "D")

MAX_ANSATZ = 20_000
"""Largest ansatz search_invariants accepts, in monomials.

The cost of a search grows about linearly in the ansatz size, at
0.04-0.07 ms and 3-5.2 KB of peak memory per monomial.  On a 2-core x86-64
machine with Python 3.11, a search near the limit takes 0.7-1.2 s in
process and stays within 100 MB: (3,1) D at bidegree (3,1) with x-degree
6 has 16,800 monomials and takes 1.2 s and 53 MB, (5,1) D at (2,2) with
x-degree 2 and h-degree 1 has 17,640 and takes 0.75 s and 64 MB, and
(14,0) D at (2,2) with h-degree 1 has 19,110 and takes 1.0 s and
100 MB.  Memory, not time, sets the limit: one generator's image of
the whole ansatz is held while the rows are built.  The n = 6 D(3,1)
search (336 monomials) takes 0.1 s, mostly interpreter start-up.
"""

MAX_CONFORMAL_DIM = 20
"""Largest dimension n at which check_invariance and search_invariants run.

Both act with conformal generators: check with all (n+1)(n+2)/2 of
them, search with n + 1, each a field of n components.  On a 2-core
x86-64 machine with Python 3.11, measured in process, check p1 at
n = 20 takes 0.25 s and 21 MB in module D, 0.13 s and 19 MB in S and
0.08 s and 18 MB in T; building the 231 operators, not applying them,
takes most of that time (in D, 0.27 s of building against 0.015 s of
applying), with each field's Jacobian and Hessian computed once.
Past the limit, D takes 0.37 s and S 0.19 s at n = 24, and T 3.1 s and
82 MB at n = 80.
"""

MAX_DIRAC_TERMS = 80_000
"""Largest Delta R^s dirac_power builds, as its term count times n.

Delta R^s has n C(s+n-1, n-1) terms, each with 2n exponents; a term count
alone would admit s = 0 at any n.  On a 2-core x86-64 machine with Python
3.11, dirac-power --s 29 --dim 4 (19,840 terms, 79,360 in all) takes
1.5 s and 75 MB in JSON, 1.0 s and 42 MB in text; --s 1 --dim 40
(64,000) takes 0.3 s and 25 MB in JSON.
"""


@dataclass(frozen=True)
class Weights:
    """Symbol weight delta and operator weights (lambda, mu); delta = mu - lambda."""

    delta: Fraction | None = None
    lam: Fraction | None = None
    mu: Fraction | None = None

    def __post_init__(self):
        if (self.lam is None) != (self.mu is None):
            raise ValueError("operator weights need both lambda and mu")
        if self.lam is not None:
            delta = self.mu - self.lam
            if self.delta is not None and self.delta != delta:
                raise ValueError("inconsistent weights: delta must equal mu - lambda")
            object.__setattr__(self, "delta", delta)
        if self.delta is None:
            raise ValueError("weights must determine delta")

    @staticmethod
    def symbol(delta) -> "Weights":
        return Weights(delta=Fraction(delta))

    @staticmethod
    def operator(lam, mu) -> "Weights":
        return Weights(lam=Fraction(lam), mu=Fraction(mu))

    def to_json(self) -> dict:
        out = {"delta": str(self.delta)}
        if self.lam is not None:
            out["lambda"] = str(self.lam)
            out["mu"] = str(self.mu)
        return out


@dataclass(frozen=True)
class CanonicalSymbol:
    name: str
    poly: SuperPolynomial
    delta: Fraction


def canonical_symbol(name: str, sig: Signature) -> CanonicalSymbol:
    """chi, Delta, DeltaStarChi or R in the flat chart.

    chi is the epsilon-contracted volume symbol stored without dividing
    by n! (for n = 2 the stored value is 2 xi1 xi2); DeltaStarChi is
    literally star(Delta, chi), which carries the same normalisation.
    Invariance statements are insensitive to these overall constants.
    """
    n = sig.n
    if name == "chi":
        poly = SuperPolynomial.monomial(n, xi=tuple(range(1, n + 1)), coeff=factorial(n))
        return CanonicalSymbol(name, poly, Fraction(0))
    if name == "Delta":
        poly = SuperPolynomial.zero(n)
        for i, unit in enumerate(units(n), 1):
            poly = poly + SuperPolynomial.monomial(n, pexp=unit, xi=(i,))
        return CanonicalSymbol(name, poly, Fraction(1, n))
    if name == "DeltaStarChi":
        delta = canonical_symbol("Delta", sig).poly
        chi = canonical_symbol("chi", sig).poly
        return CanonicalSymbol(name, star_mul(delta, chi, sig), Fraction(1, n))
    if name == "R":
        poly = SuperPolynomial.zero(n)
        for i, unit in enumerate(units(n), 1):
            poly = poly + SuperPolynomial.monomial(n, pexp=tuple(2 * e for e in unit), coeff=sig.eta(i))
        return CanonicalSymbol(name, poly, Fraction(2, n))
    raise KeyError(f"unknown canonical symbol {name!r}")


# -- invariance checking -------------------------------------------------------


@dataclass(frozen=True)
class InvariantReport:
    candidate: SuperPolynomial
    module_tag: str
    weights: Weights
    residuals: tuple[tuple[str, SuperPolynomial], ...]

    @property
    def invariant(self) -> bool:
        return all(res.is_zero() for _name, res in self.residuals)


def _action_operator(tag: str, gen, weights: Weights, sig: Signature) -> SuperDiffOp:
    """The cached confmod operator by which gen acts on module tag at the weights."""
    if tag == "T":
        return tensorial_operator(gen, Fraction(weights.delta), sig)
    if tag == "S":
        return hamiltonian_operator(gen, Fraction(weights.delta), sig)
    if tag == "D":
        if weights.lam is None:
            raise ValueError("module D needs operator weights (lambda, mu)")
        return operator_symbol_action(gen, Fraction(weights.lam), Fraction(weights.mu), sig)
    raise ValueError(f"unknown module tag {tag!r}")


def _check_conformal_dim(sig: Signature) -> None:
    if sig.n > MAX_CONFORMAL_DIM:
        raise ValueError(
            f"conformal generators in dimension {sig.n} exceed the limit"
            f" MAX_CONFORMAL_DIM = {MAX_CONFORMAL_DIM}"
        )


def check_invariance(
    candidate: SuperPolynomial | SpinorDiffOp,
    module_tag: str,
    weights: Weights,
    sig: Signature,
) -> InvariantReport:
    """Apply every conformal generator and report the exact residuals.

    A SpinorDiffOp candidate is converted to its symbol first; by the
    normal-ordering route equality this is equivalent to the direct
    adjoint action on the operator.
    """
    if module_tag not in MODULE_TAGS:
        raise ValueError(f"unknown module tag {module_tag!r}")
    _check_conformal_dim(sig)
    if isinstance(candidate, SpinorDiffOp):
        candidate = normal_order_inverse(candidate)
    gens = conformal_generators(sig)
    images = apply_all([_action_operator(module_tag, gen, weights, sig) for gen in gens], candidate)
    residuals = tuple((gen.name, image) for gen, image in zip(gens, images))
    return InvariantReport(candidate, module_tag, weights, residuals)


# -- exhaustive search ----------------------------------------------------------


@dataclass(frozen=True)
class SearchResult:
    signature: Signature
    bidegree: tuple[int, int]
    module_tag: str
    weights: Weights
    basis: tuple[SuperPolynomial, ...]

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def to_json(self) -> dict:
        return {
            "signature": [self.signature.p, self.signature.q],
            "bidegree": list(self.bidegree),
            "module": self.module_tag,
            "weights": self.weights.to_json(),
            "dimension": self.dimension,
            "basis": [poly.to_json() for poly in self.basis],
        }


def _compositions(total: int, slots: int):
    """Weak compositions of `total` into `slots` parts, lexicographic."""
    if slots == 1:
        yield (total,)
        return
    for head in range(total, -1, -1):
        for rest in _compositions(total - head, slots - 1):
            yield (head,) + rest


def _ansatz_size(n: int, k: int, kappa: int, x_degree: int, h_degree: int) -> int:
    """len(_ansatz_monomials(...)), in closed form: x-exponents of degree at
    most x_degree, p-exponents of degree k, xi-words of length kappa, h-powers."""
    return comb(x_degree + n, n) * comb(k + n - 1, n - 1) * comb(n, kappa) * (h_degree + 1)


def _ansatz_monomials(
    sig: Signature, k: int, kappa: int, x_degree: int, h_degree: int
) -> list[SuperPolynomial]:
    n = sig.n
    xi_sets = list(combinations(range(1, n + 1), kappa))
    p_exps = list(_compositions(k, n))
    x_exps: list[tuple[int, ...]] = [(0,) * n]
    for deg in range(1, x_degree + 1):
        x_exps.extend(_compositions(deg, n))
    h_keys = [pack_key(n, 0, 0, 0, hpow) for hpow in range(h_degree + 1)]
    monomials = []
    for xexp in x_exps:
        xp = pack(xexp)
        for pexp in p_exps:
            pp = pack(pexp)
            for xi in xi_sets:
                head = derivative_key(n, xi_mask(xi), xp, pp)
                for h_key in h_keys:
                    # the flat table of h^hpow x^xexp p^pexp xi^xi; xi is increasing
                    monomials.append(SuperPolynomial._wrap(n, {head | h_key: 1}))
    return monomials


def _linear_system(
    sig: Signature, module_tag: str, weights: Weights, monomials: list[SuperPolynomial]
) -> list[dict[int, int | Fraction]]:
    """Sparse rows {ansatz column: coefficient} of the generating-set actions.

    There is one row per (generator, monomial key, h-power, scalar part)
    that some action reaches; the kernel of the system is the invariant
    subspace of the ansatz.  Each monomial's terms carry its column in
    a slot above the p slots of their keys: derivative plans and product
    rows touch only the fields below, so one apply of each
    generating-set operator to the tagged table acts on every monomial
    at once, and the column of each result term is read back from that
    slot.  Terms of different columns never share a key, so no two
    monomials' images merge.
    """
    n = sig.n
    # Columns stay below SLOT_LIMIT = 2^31, the bound of every other slot.  MAX_ANSATZ
    # is far below that, so no search reaches this; it guards direct callers.
    if len(monomials) >= SLOT_LIMIT:
        raise ValueError(f"{len(monomials)} columns do not fit the packed slot limit {SLOT_LIMIT}")
    shift = p_shift(n) + SLOT_BITS * n
    low = (1 << shift) - 1
    tagged: dict = {}
    for col, mono in enumerate(monomials):
        tag = col << shift
        for key, value in mono._terms.items():
            tagged[key | tag] = value
    table = SuperPolynomial._wrap(n, tagged)
    cols = list(range(len(monomials)))  # one shared int per column, not one per entry
    system: list[dict[int, int | Fraction]] = []
    # K1 first: its image is the largest, and no earlier block's rows are held beside it
    for gen in reversed(conformal_generating_set(sig)):
        terms = _action_operator(module_tag, gen, weights, sig).apply(table)._terms
        rows: dict[int, dict[int, int | Fraction]] = {}
        # popping frees each image term as its row entry is stored, so the
        # image and the rows built from it do not peak together
        while terms:
            key, value = terms.popitem()
            # one row per untagged flat key (monomial, h-power, part); the value as is
            rows.setdefault(key & low, {})[cols[key >> shift]] = value
        system.extend(rows.values())
    return system


def search_invariants(
    sig: Signature,
    k: int,
    kappa: int,
    module_tag: str,
    weights: Weights,
    x_degree: int = 0,
    h_degree: int = 0,
) -> SearchResult:
    """Exact kernel of the generating-set actions on the fixed-bidegree ansatz."""
    if k < 0 or not 0 <= kappa <= sig.n:
        raise ValueError("bidegree out of range")
    if x_degree < 0 or h_degree < 0:
        raise ValueError("x-degree and h-degree must be non-negative")
    if module_tag not in MODULE_TAGS:
        raise ValueError(f"unknown module tag {module_tag!r}")
    _check_conformal_dim(sig)
    size = _ansatz_size(sig.n, k, kappa, x_degree, h_degree)
    if size > MAX_ANSATZ:
        raise ValueError(f"ansatz of {size} monomials exceeds the limit of {MAX_ANSATZ}")
    monomials = _ansatz_monomials(sig, k, kappa, x_degree, h_degree)
    rows = _linear_system(sig, module_tag, weights, monomials)
    basis = []
    for vec in kernel(rows, len(monomials)):
        poly = SuperPolynomial.zero(sig.n)
        for col, coeff in vec.items():
            poly = poly + monomials[col].scale(coeff)
        basis.append(poly)
    return SearchResult(sig, (k, kappa), module_tag, weights, tuple(basis))


# -- conformal Dirac powers -------------------------------------------------------


@dataclass(frozen=True)
class DiracPower:
    power: int
    operator: SpinorDiffOp
    symbol: SuperPolynomial
    weights: Weights


def dirac_power(s: int, sig: Signature) -> DiracPower:
    """Normal ordering of Delta R^s at the resonant weights.

    The weight pair is ((n-2s-1)/2n, (n+2s+1)/2n); s = 0 is the Dirac
    operator itself, up to one factor of h carried by normal ordering.
    """
    if sig.n % 2:
        raise ValueError("Dirac powers require even dimension")
    if s < 0:
        raise ValueError("power must be non-negative")
    n = sig.n
    terms = n * comb(s + n - 1, n - 1)
    if terms * n > MAX_DIRAC_TERMS:
        raise ValueError(
            f"Delta R^{s} in dimension {n} has {terms} terms; {terms} x {n} exceeds"
            f" the limit MAX_DIRAC_TERMS = {MAX_DIRAC_TERMS}"
        )
    delta_poly = canonical_symbol("Delta", sig).poly
    r_poly = canonical_symbol("R", sig).poly
    symbol = delta_poly
    for _ in range(s):
        symbol = symbol * r_poly
    weights = Weights.operator(
        Fraction(n - 2 * s - 1, 2 * n), Fraction(n + 2 * s + 1, 2 * n)
    )
    return DiracPower(s, normal_order(symbol, sig), symbol, weights)


# -- predicted dimensions from the classification ----------------------------------


def predicted_dimension(
    sig: Signature, k: int, kappa: int, module_tag: str, weights: Weights
) -> int:
    """Invariant-space dimension predicted by the classification theorems.

    Families Delta^a * chi^b R^s (a, b in {0,1}, s >= 0) give, in fixed
    bidegree (k, kappa) with a = k mod 2 and s = (k - a)/2:
      T at delta = k/n: kappa = a and kappa = n - a both count;
      S at delta = k/n: as T except a = b = 0 needs s = 0 (the constant);
      D at mu - lam = k/n: the constant and chi (k = 0, any lam = mu);
        Delta R^s (kappa = 1) and its chirality twist Delta*chi R^s
        (kappa = n-1), both only at lam = (n-k)/2n; nothing of even
        order.  The twist N(Delta*chi R^s) equals -N(chi) o N(Delta R^s),
        a composition of invariants, hence invariant for every s.
    """
    n = sig.n
    if weights.delta != Fraction(k, n):
        return 0
    a = k % 2
    dim = 0
    if module_tag == "T":
        dim += 1 if kappa == a else 0
        dim += 1 if kappa == n - a else 0
        return dim
    if module_tag == "S":
        if a == 1:
            dim += 1 if kappa == 1 else 0
            dim += 1 if kappa == n - 1 else 0
        else:
            dim += 1 if kappa == n else 0
            dim += 1 if k == 0 and kappa == 0 else 0
        return dim
    if module_tag == "D":
        if weights.lam is None:
            raise ValueError("module D needs operator weights")
        if k == 0:
            dim += 1 if kappa == 0 else 0
            dim += 1 if kappa == n else 0
            return dim
        if a == 0:
            return 0
        if weights.lam == Fraction(n - k, 2 * n):
            dim += 1 if kappa == 1 else 0
            dim += 1 if kappa == n - 1 else 0
        return dim
    raise ValueError(f"unknown module tag {module_tag!r}")
