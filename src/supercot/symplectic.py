"""Graded Poisson structure of the flat supercotangent chart.

The symplectic form in flat Darboux coordinates fixes the bracket
through the relations {p_i, x^j} = delta_i^j and
{xi^a, xi^b} = -eta^{ab}/h.  Conformal vector fields of the flat metric,
their Hamiltonian lifts and the even/odd comoment maps are provided with
the skew-symmetrisation convention d_[j X_i] = (d_j X_i - d_i X_j)/2,
which is the unique choice making pair_alpha(lift(X)) equal to the even
comoment identically.

Objects derived from a conformal field (its bracket with another field,
its Killing factor, lift and even comoment) are built once per (field,
signature) and cached for the life of the process; every caller shares
the result, and no code changes an operator or polynomial after it is
built.  The callers ask for the (n+1)(n+2)/2 generators and their
brackets, so n bounds the caches; bound them if a long-lived caller
appears.

The builders read a field's derivatives from ``jacobian`` and ``hessian``
(``superpoly.gradient``), each computed once per field and cached for
the process like the builders, as a read-only mapping: a module-D action
alone reads the Jacobian from five builders and the Hessian from three.
The Jacobian, the Hessian and the skew gradient hold only nonzero
entries; the skew gradient is computed only at the index pairs of the
Jacobian's off-diagonal entries, and the Killing-factor check visits only
the pairs where L_X eta - lambda eta can be nonzero, so no builder walks a
dense n x n table.

An operator builder lists its terms as ``((dxi, dx, dp), coeff)`` pairs,
repeated keys and zero coefficients allowed, and makes one ``SuperDiffOp``
constructor call, which sums them; ``units(n)`` holds the unit
multi-indices of the keys.  ``hamiltonian_lift`` shares the terms
X^i dx_i and -p_j (d_i X^j) dp_i with ``confmod``'s tensorial action.

``hamiltonian_vector_field(F)`` is the operator {F, .}; the lift of a
conformal field, built by its own Darboux formula, equals the one of its
even comoment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping

from .coeff import Scalar, _rational
from .diffop import SuperDiffOp
from .superpoly import (
    _BIASED, _H_UNIT, _PART_ROWS, _SLOT_MASK, MASK_SHIFT, SLOT_BITS, Signature, SuperPolynomial, _odd_above,
    _overflow, add_product, add_term, derivative_key, gradient, guard_mask, pack, unpack, x_shift,
)


class NotConformalError(ValueError):
    """Raised when an operation requires a conformal vector field."""


@dataclass(frozen=True)
class VectorFieldOnM:
    """Vector field on the base: components X^i, polynomials in x only."""

    n: int
    components: tuple[SuperPolynomial, ...]
    name: str = field(default="", compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.components) != self.n:
            raise ValueError("need one component per dimension")
        for comp in self.components:
            if comp.n != self.n:
                raise ValueError("component dimension mismatch")
            if comp.bidegrees() - {(0, 0)}:
                raise ValueError("components must not contain p or xi")
        # hashed once: the confmod operator caches look fields up on every action
        object.__setattr__(self, "_hash", hash((self.n, self.components)))

    def __hash__(self) -> int:
        return self._hash

    def component(self, i: int) -> SuperPolynomial:
        return self.components[i - 1]

    def __str__(self) -> str:
        label = f"{self.name}: " if self.name else ""
        return label + ", ".join(str(c) for c in self.components)


# -- bracket ---------------------------------------------------------------

_INV_H = {1: Scalar.h(-1, 1), -1: Scalar.h(-1, -1)}


@lru_cache(maxsize=256)
def _slots(packed: int, n: int) -> int:
    """The set of nonzero slots of a packed exponent vector, bit k for slot k."""
    return sum(1 << k for k, e in enumerate(unpack(packed, n)) if e)


def _bracket_terms(table: dict, n: int) -> list[tuple]:
    """The terms of a bracket operand, one pass: (key, xi mask, value, nonzero x slots,
    nonzero p slots, packed x, packed p)."""
    xs, ps, nm, slots, _lowers = _bracket_layout(n)
    return [
        (key, key >> MASK_SHIFT & nm, c, _slots(xp := key >> xs & slots, n), _slots(pp := key >> ps, n), xp, pp)
        for key, c in table.items()
    ]


@lru_cache(maxsize=None)
def _bracket_layout(n: int) -> tuple:
    """(x shift, p shift, xi mask bits, slot bits, key delta of d_x_i d_p_i by slot i)."""
    xs = x_shift(n)
    ps = xs + SLOT_BITS * n
    lowers = tuple((1 << (xs + SLOT_BITS * i)) + (1 << (ps + SLOT_BITS * i)) for i in range(n))
    return xs, ps, (1 << n) - 1, (1 << SLOT_BITS * n) - 1, lowers


def poisson(F: SuperPolynomial, G: SuperPolynomial, sig: Signature) -> SuperPolynomial:
    """Graded Poisson bracket {F, G}; F must be parity-homogeneous.

    One loop over the term pairs of F and G.  A pair whose xi words m1, m2
    are disjoint gives the even part (d_p_i F)(d_x_i G) - (d_x_i F)(d_p_i G)
    at the slots i where either product is nonzero.  A pair that shares
    exactly xi^i gives the odd part (eta^ii / h)(-1)^|F| (d_xi_i F)(d_xi_i G),
    whose sign, as F is homogeneous, is -eta^ii times the reorder sign
    (-1)^popcount(m2 & _odd_above(m1)) of the even part.  A pair that shares
    more gives nothing: every product repeats a xi.
    """
    if F.n != G.n or F.n != sig.n:
        raise ValueError("dimension mismatch")
    F.parity()  # refuses an inhomogeneous F
    terms: dict = {}
    if F._terms and G._terms:
        n = sig.n
        guard, lowers = guard_mask(n), _bracket_layout(n)[-1]
        negative = -1 << sig.p  # the xi indices with eta^ii = -1
        right = _bracket_terms(G._terms, n)
        for k1, m1, c1, xs1, ps1, x1, p1 in _bracket_terms(F._terms, n):
            q1 = k1 & 3
            base1, row, odd1 = k1 - q1 - _BIASED, _PART_ROWS[q1], _odd_above(m1)
            for k2, m2, c2, xs2, ps2, x2, p2 in right:
                shared = m1 & m2
                if not shared:
                    both = ps1 & xs2 | xs1 & ps2
                    if not both:
                        continue
                elif shared & (shared - 1):
                    continue
                f, dq = row[k2 & 3]
                c = c1 * c2 * f
                if (m2 & odd1).bit_count() & 1:  # xi^m1 xi^m2 = -xi^(m1 | m2)
                    c = -c
                key = base1 + k2 + dq
                if shared:  # the odd part, at the word m1 ^ m2 and h^(h1 + h2 - 1)
                    key -= (shared << (MASK_SHIFT + 1)) + _H_UNIT
                    if key & guard:
                        raise _overflow()
                    add_term(terms, key, _rational(c if shared & negative else -c))
                    continue
                while both:  # the even part, at each slot i where a product is nonzero
                    low = both & -both
                    both ^= low
                    i = low.bit_length() - 1
                    lowered = key - lowers[i]
                    if lowered & guard:
                        raise _overflow()
                    s = SLOT_BITS * i
                    e = ((p1 >> s & _SLOT_MASK) * (x2 >> s & _SLOT_MASK)
                         - (x1 >> s & _SLOT_MASK) * (p2 >> s & _SLOT_MASK))
                    if e:
                        add_term(terms, lowered, _rational(c * e))
    return SuperPolynomial._wrap(sig.n, terms)


def hamiltonian_vector_field(F: SuperPolynomial, sig: Signature) -> SuperDiffOp:
    """The operator {F, .}, from one ``gradient`` pass; F must be parity-homogeneous.

    Its terms are poisson's products with G's derivatives left to the operator:
    (d_p_i F) dx_i - (d_x_i F) dp_i + (eta^ii / h) (-1)^|F| (d_xi_i F) dxi_i.
    """
    if F.n != sig.n:
        raise ValueError("dimension mismatch")
    sign = -1 if F.parity() else 1
    n = sig.n
    inv_h = (_INV_H[sign], _INV_H[-sign])
    terms: dict = {}
    for code, table in gradient(F._terms, n).items():
        i, kind = divmod(code, 3)
        unit = pack(units(n)[i])
        if kind == 0:
            key, factor = derivative_key(n, 0, 0, unit), -1
        elif kind == 1:
            key, factor = derivative_key(n, 0, unit, 0), 1
        else:
            key, factor = derivative_key(n, 1 << i, 0, 0), inv_h[i >= sig.p]
        terms[key] = SuperPolynomial._wrap(n, table).scale(factor)
    return SuperDiffOp._wrap(n, terms)


# -- pairings with the symplectic potentials --------------------------------


def _require_first_order(D: SuperDiffOp) -> None:
    if D.order() > 1:
        raise ValueError("operator must be first order")


def pair_alpha(D: SuperDiffOp, sig: Signature) -> SuperPolynomial:
    """<D, alpha> = sum p_i D(x^i) + (h/2) eta_ab xi^a D(xi^b)."""
    _require_first_order(D)
    n = sig.n
    result = SuperPolynomial.zero(n)
    half_h = Scalar.h(1, Fraction(1, 2))
    for i in range(1, n + 1):
        result = result + SuperPolynomial.var_p(n, i) * D.apply(SuperPolynomial.var_x(n, i))
        image = D.apply(SuperPolynomial.var_xi(n, i))
        if not image.is_zero():
            term = SuperPolynomial.var_xi(n, i) * image
            result = result + term.scale(half_h * sig.eta(i))
    return result


def pair_beta(D: SuperDiffOp, sig: Signature) -> SuperPolynomial:
    """<D, beta> = sum eta_ij xi^i D(x^j)."""
    _require_first_order(D)
    n = sig.n
    result = SuperPolynomial.zero(n)
    for i in range(1, n + 1):
        image = D.apply(SuperPolynomial.var_x(n, i))
        if not image.is_zero():
            result = result + (SuperPolynomial.var_xi(n, i) * image).scale(sig.eta(i))
    return result


# -- conformal vector fields --------------------------------------------------


def conformal_generators(sig: Signature) -> list[VectorFieldOnM]:
    """T1..Tn, R_ij (i<j), D and K1..Kn: a basis of conf for flat eta.

    Built once per signature; each call returns a fresh list of the same
    (immutable) fields, so a caller may extend or reorder it.
    """
    return list(_conformal_generators(sig))


@lru_cache(maxsize=None)
def _conformal_generators(sig: Signature) -> tuple[VectorFieldOnM, ...]:
    n = sig.n
    if n < 2:
        raise ValueError("conformal generators need dimension >= 2")
    zero = SuperPolynomial.zero(n)
    fields: list[VectorFieldOnM] = []

    def x_lower(i: int) -> SuperPolynomial:
        return SuperPolynomial.var_x(n, i).scale(sig.eta(i))

    for i in range(1, n + 1):
        comps = tuple(
            SuperPolynomial.one(n) if k == i else zero for k in range(1, n + 1)
        )
        fields.append(VectorFieldOnM(n, comps, name=f"T{i}"))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            comps = []
            for k in range(1, n + 1):
                comp = zero
                if k == j:
                    comp = comp + x_lower(i)
                if k == i:
                    comp = comp - x_lower(j)
                comps.append(comp)
            fields.append(VectorFieldOnM(n, tuple(comps), name=f"R{i}{j}"))
    fields.append(
        VectorFieldOnM(
            n,
            tuple(SuperPolynomial.var_x(n, k) for k in range(1, n + 1)),
            name="D",
        )
    )
    norm = zero
    for j in range(1, n + 1):
        xj = SuperPolynomial.var_x(n, j)
        norm = norm + (xj * xj).scale(sig.eta(j))
    for i in range(1, n + 1):
        comps = []
        for k in range(1, n + 1):
            comp = (x_lower(i) * SuperPolynomial.var_x(n, k)).scale(-2)
            if k == i:
                comp = comp + norm
            comps.append(comp)
        fields.append(VectorFieldOnM(n, tuple(comps), name=f"K{i}"))
    return tuple(fields)


def conformal_generating_set(sig: Signature) -> list[VectorFieldOnM]:
    """T1..Tn and K1, which generate conf under vf_bracket.

    [T1, K1] and [Ti, K1] (i > 1) give D and R_1i, [R_1i, K1] gives Ki and
    [R_1i, R_1j] gives R_ij, so a Lie-algebra morphism that kills these
    n + 1 fields kills every conformal generator.
    """
    fields = conformal_generators(sig)
    return fields[: sig.n] + [fields[-sig.n]]


def generator_by_name(sig: Signature, name: str) -> VectorFieldOnM:
    for gen in conformal_generators(sig):
        if gen.name == name:
            return gen
    raise KeyError(f"unknown generator {name!r}")


def vf_bracket(X: VectorFieldOnM, Y: VectorFieldOnM) -> VectorFieldOnM:
    """Lie bracket [X, Y]^i = X^j d_j Y^i - Y^j d_j X^i, named [X.name,Y.name]."""
    return _vf_bracket(X, Y, f"[{X.name},{Y.name}]" if X.name and Y.name else "")


@lru_cache(maxsize=None)
def _vf_bracket(X: VectorFieldOnM, Y: VectorFieldOnM, name: str) -> VectorFieldOnM:
    # the name is part of the key: it is outside the fields' equality
    if X.n != Y.n:
        raise ValueError("dimension mismatch")
    n = X.n
    dX, dY = jacobian(X), jacobian(Y)
    comps = []
    for i in range(1, n + 1):
        terms: dict = {}
        for j in range(1, n + 1):
            if (i, j) in dY:
                add_product(terms, X.component(j), dY[i, j])
            if (i, j) in dX:
                add_product(terms, Y.component(j), dX[i, j], -1)
        comps.append(SuperPolynomial._wrap(n, terms))
    return VectorFieldOnM(n, tuple(comps), name=name)


@lru_cache(maxsize=None)
def units(n: int) -> tuple[tuple[int, ...], ...]:
    """The unit multi-indices of length n: units(n)[i - 1] is 1 in slot i and 0 elsewhere."""
    return tuple(tuple(int(m == i) for m in range(n)) for i in range(n))


def _x_gradient(F: SuperPolynomial) -> dict[int, SuperPolynomial]:
    """The nonzero d_j F of a polynomial in x only, by j in increasing order."""
    grad = gradient(F._terms, F.n)
    return {j: SuperPolynomial._wrap(F.n, grad[3 * j - 3]) for j in range(1, F.n + 1) if 3 * j - 3 in grad}


@lru_cache(maxsize=None)
def jacobian(X: VectorFieldOnM) -> Mapping[tuple[int, int], SuperPolynomial]:
    """The nonzero d_j X^i under (i, j), in increasing order of (i, j), each in the term
    order of a single-index ``derive``; one ``gradient`` pass per component."""
    return MappingProxyType(
        {(i, j): d for i, comp in enumerate(X.components, 1) for j, d in _x_gradient(comp).items()}
    )


@lru_cache(maxsize=None)
def hessian(X: VectorFieldOnM) -> Mapping[tuple[int, int, int], SuperPolynomial]:
    """The nonzero d_k d_j X^i under (i, j, k), in increasing order of (i, j, k), each as
    two single-index derives give it; one ``gradient`` pass per entry of the Jacobian."""
    return MappingProxyType(
        {(i, j, k): d for (i, j), first in jacobian(X).items() for k, d in _x_gradient(first).items()}
    )


def divergence(X: VectorFieldOnM) -> SuperPolynomial:
    return _divergence_of(jacobian(X), X.n)


def _divergence_of(jac: dict, n: int) -> SuperPolynomial:
    return sum((d for (i, j), d in jac.items() if i == j), SuperPolynomial.zero(n))


@lru_cache(maxsize=None)
def conformal_killing_factor(X: VectorFieldOnM, sig: Signature) -> SuperPolynomial | None:
    """The function lambda with L_X eta = lambda eta, or None if there is none.

    (L_X eta - lambda eta)_ij = eta_ii d_j X^i + eta_jj d_i X^j - lambda eta_ij is
    symmetric in (i, j) and can be nonzero only where the Jacobian has an entry
    (i, j) or (j, i), or on the diagonal, so only those pairs are checked, once
    each; on the diagonal both Jacobian terms read the entry (i, i).
    """
    if X.n != sig.n:
        raise ValueError("dimension mismatch")
    n = sig.n
    jac = jacobian(X)
    zero = SuperPolynomial.zero(n)
    factor = _divergence_of(jac, n).scale(Fraction(2, n))
    for i, j in {(min(key), max(key)) for key in jac} | {(i, i) for i in range(1, n + 1)}:
        lie = jac.get((i, j), zero).scale(sig.eta(i)) + jac.get((j, i), zero).scale(sig.eta(j))
        if i == j:
            lie = lie - factor.scale(sig.eta(i))
        if lie:
            return None
    return factor


def require_conformal(X: VectorFieldOnM, sig: Signature) -> SuperPolynomial:
    """The conformal Killing factor of X; NotConformalError when X is not conformal."""
    factor = conformal_killing_factor(X, sig)
    if factor is None:
        raise NotConformalError(f"{X.name or 'vector field'} is not conformal")
    return factor


def _skew_gradient(jac: dict, sig: Signature) -> dict[tuple[int, int], SuperPolynomial]:
    """The nonzero d_[k X_j] = (d_k X_j - d_j X_k)/2 under (k, j), in increasing order of (j, k).

    Only a pair (k, j), k != j, with a Jacobian entry (j, k) or (k, j) can be
    nonzero, so only those are computed.
    """
    zero = SuperPolynomial.zero(sig.n)
    table: dict[tuple[int, int], SuperPolynomial] = {}
    for j, k in sorted({pair for i, l in jac if i != l for pair in ((i, l), (l, i))}):
        dkxj = jac.get((j, k), zero).scale(sig.eta(j))
        djxk = jac.get((k, j), zero).scale(sig.eta(k))
        entry = (dkxj - djxk).scale(Fraction(1, 2))
        if entry:
            table[k, j] = entry
    return table


def _cotangent_terms(X: VectorFieldOnM, jac: dict) -> list:
    """The terms X^i dx_i and -p_j (d_i X^j) dp_i of the lift and the tensorial action."""
    n, unit = X.n, units(X.n)
    return [(((), unit[i], ()), comp) for i, comp in enumerate(X.components)] + [
        (((), (), unit[i - 1]), -(SuperPolynomial.var_p(n, j) * d)) for (j, i), d in jac.items()
    ]


_MINUS_HALF_H = {1: Scalar.h(1, Fraction(-1, 2)), -1: Scalar.h(1, Fraction(1, 2))}  # -h/2 times eta_jj


@lru_cache(maxsize=None)
def hamiltonian_lift(X: VectorFieldOnM, sig: Signature) -> SuperDiffOp:
    """Hamiltonian lift of a conformal vector field, in flat Darboux form:
    X^i dx_i + eta^kk d_[l X_k] xi^l dxi_k - p_j (d_i X^j) dp_i
    - (h/2) eta_jj (d_k d_i X^j) xi^j xi^k dp_i, the last summed over j != k."""
    require_conformal(X, sig)
    n = sig.n
    jac = jacobian(X)
    rotation = [
        (((k,), (), ()), (entry * SuperPolynomial.var_xi(n, l)).scale(sig.eta(k)))
        for (l, k), entry in _skew_gradient(jac, sig).items()
    ]
    unit = units(n)
    spin = [
        (((), (), unit[i - 1]), d * SuperPolynomial.monomial(n, xi=(j, k), coeff=_MINUS_HALF_H[sig.eta(j)]))
        for (j, i, k), d in hessian(X).items()
        if j != k
    ]
    return SuperDiffOp(n, _cotangent_terms(X, jac) + rotation + spin)


@lru_cache(maxsize=None)
def comoment_even(X: VectorFieldOnM, sig: Signature) -> SuperPolynomial:
    """J^alpha_X = p_i X^i + (h/2) xi^j xi^k d_[k X_j]."""
    require_conformal(X, sig)
    n = sig.n
    terms: dict = {}
    for i, comp in enumerate(X.components, 1):
        add_product(terms, SuperPolynomial.var_p(n, i), comp)
    half_h = Scalar.h(1, Fraction(1, 2))
    for (k, j), entry in _skew_gradient(jacobian(X), sig).items():
        add_product(terms, entry, SuperPolynomial.monomial(n, xi=(j, k)), half_h)
    return SuperPolynomial._wrap(n, terms)


def comoment_odd(X: VectorFieldOnM, sig: Signature) -> SuperPolynomial:
    """J^beta_X = xi_i X^i (flat chart: the density factor is 1)."""
    require_conformal(X, sig)
    n = sig.n
    terms: dict = {}
    for i, comp in enumerate(X.components, 1):
        add_product(terms, SuperPolynomial.var_xi(n, i), comp, sig.eta(i))
    return SuperPolynomial._wrap(n, terms)
