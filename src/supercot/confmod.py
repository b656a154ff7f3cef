"""The three conformal module actions and normal ordering.

Symbols carry three actions of the conformal algebra: the tensorial one
(defined for every vector field), the Hamiltonian one (the lift plus a
density term, conformal fields only), and the spinor-operator one,
realised both directly as a commutator with the spinor Lie derivative
and, after conjugation by normal ordering, as an explicit operator on
symbols.  The two realisations of the operator action must agree
exactly; that equality is the sharpest consistency check of the sign
conventions used throughout.

A SpinorDiffOp is stored as its normal-order symbol, so normal ordering
and its inverse do no arithmetic.  The direct route brackets with the
spinor Lie derivative by the standard-ordered product
(``star.standard_commutator``); the symbol route applies the closed form
``operator_symbol_action``.

Each action is materialised once per (generator, weights) as a
SuperDiffOp and cached for the life of the process, so sweeping a large
monomial ansatz stays cheap; n and the weights asked for bound the caches.
Each builder below lists its terms from the field's sparse Jacobian or
Hessian and makes one SuperDiffOp constructor call, which sums repeated
keys and drops zero coefficients; the symbol core is the lift plus one
such operator.
The weight-free cores (the tensorial operator without its delta (div X)
term, and the lift plus Hessian terms of operator_symbol_action) and the
two weight terms, div X and -h d_j(div X) dp_j, are cached separately per
(field, signature), so n alone bounds them.  A new weight adds scaled
copies of the weight terms to a core and takes no derivative of X; the
tensorial and Hamiltonian actions read only div X.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .clifford import kosmann_lie
from .coeff import Scalar
from .diffop import SuperDiffOp
from .spinop import SpinorDiffOp
from .superpoly import Signature, SuperPolynomial
from .symplectic import (
    VectorFieldOnM,
    _cotangent_terms,
    _divergence_of,
    divergence,
    hamiltonian_lift,
    hessian,
    jacobian,
    require_conformal,
    units,
)


@lru_cache(maxsize=None)
def _tensorial_core(X: VectorFieldOnM, sig: Signature) -> SuperDiffOp:
    """The weight-free part of tensorial_operator: all but its delta (div X) term."""
    n = sig.n
    jac = jacobian(X)
    rotation = [(((j,), (), ()), SuperPolynomial.var_xi(n, i) * d) for (j, i), d in jac.items()]
    damped = _divergence_of(jac, n).scale(Fraction(-1, n))
    euler = [(((i,), (), ()), damped * SuperPolynomial.var_xi(n, i)) for i in range(1, n + 1) if damped]
    return SuperDiffOp(n, _cotangent_terms(X, jac) + rotation + euler)


@lru_cache(maxsize=None)
def _density(X: VectorFieldOnM, sig: Signature) -> SuperDiffOp:
    """div X, the weight term of every action, as an operator of order zero."""
    return SuperDiffOp.term(divergence(X))


@lru_cache(maxsize=None)
def _lambda_term(X: VectorFieldOnM, sig: Signature) -> SuperDiffOp:
    """-h d_j(div X) dp_j, the lambda term of operator_symbol_action; d_j(div X) = d_j d_i X^i."""
    minus_h, unit = Scalar.h(1, -1), units(sig.n)
    terms = [(((), (), unit[j - 1]), d.scale(minus_h)) for (i, k, j), d in hessian(X).items() if i == k]
    return SuperDiffOp(sig.n, terms)


def _plus_scaled(op: SuperDiffOp, term: SuperDiffOp, weight: Fraction) -> SuperDiffOp:
    """op + weight * term; op itself when that adds nothing."""
    return op + term.scale(weight) if weight and not term.is_zero() else op


@lru_cache(maxsize=None)
def tensorial_operator(X: VectorFieldOnM, delta: Fraction, sig: Signature):
    """X^i d_i - p_j (d_i X^j) dp_i + xi^i (d_i X^j) dxi_j + (delta - Sigma/n) div X."""
    return _plus_scaled(_tensorial_core(X, sig), _density(X, sig), delta)


@lru_cache(maxsize=None)
def hamiltonian_operator(X: VectorFieldOnM, delta: Fraction, sig: Signature):
    """lift(X) + delta (div X); requires a conformal field."""
    return _plus_scaled(hamiltonian_lift(X, sig), _density(X, sig), delta)


@lru_cache(maxsize=None)
def _symbol_core(X: VectorFieldOnM, sig: Signature) -> SuperDiffOp:
    """The weight-free part of operator_symbol_action: lift(X) plus the Hessian terms
    (h/2)(d_j d_k X^i)(-p_i dp_j + chi^j_i / 2) dp_k."""
    n = sig.n
    unit = units(n)
    minus_half_h, quarter_h = Scalar.h(1, Fraction(-1, 2)), Scalar.h(1, Fraction(1, 4))
    terms = []
    for (i, j, k), hess in hessian(X).items():
        dp_jk = tuple(a + b for a, b in zip(unit[j - 1], unit[k - 1]))
        chi = hess.scale(quarter_h)  # chi^j_i dp_k, scaled by (h/2) * (1/2) * hess
        terms += [
            (((), (), dp_jk), hess * SuperPolynomial.monomial(n, pexp=unit[i - 1], coeff=minus_half_h)),
            (((i,), (), unit[k - 1]), chi * SuperPolynomial.var_xi(n, j)),
            (((j,), (), unit[k - 1]), (chi * SuperPolynomial.var_xi(n, i)).scale(-sig.eta(i) * sig.eta(j))),
            (((j, i), (), unit[k - 1]), chi.scale(Fraction(sig.eta(j), 2))),  # dropped when i = j
        ]
    return hamiltonian_lift(X, sig) + SuperDiffOp(n, terms)


@lru_cache(maxsize=None)
def operator_symbol_action(
    X: VectorFieldOnM, lam: Fraction, mu: Fraction, sig: Signature
):
    """The operator-module action conjugated to symbols by normal ordering.

    Equals the Hamiltonian action at weight mu - lam plus
    (h/2)(d_j d_k X^i)(-p_i dp_j + chi^j_i / 2) dp_k - h lam d_j(div X) dp_j,
    with chi^j_i = xi^j dxi_i - xi_i dxi_j + (1/2) dxi_j dxi^i.
    """
    op = _plus_scaled(_symbol_core(X, sig), _density(X, sig), mu - lam)
    return _plus_scaled(op, _lambda_term(X, sig), lam)


# -- the public actions ------------------------------------------------------


def act_T(
    X: VectorFieldOnM, delta: Fraction | int, F: SuperPolynomial, sig: Signature
) -> SuperPolynomial:
    """Tensorial action; an action of all vector fields."""
    if X.n != F.n or F.n != sig.n:
        raise ValueError("dimension mismatch")
    return tensorial_operator(X, Fraction(delta), sig).apply(F)


def act_S(
    X: VectorFieldOnM, delta: Fraction | int, F: SuperPolynomial, sig: Signature
) -> SuperPolynomial:
    """Hamiltonian action: lift(X) F + delta (div X) F, conformal X only."""
    if X.n != F.n or F.n != sig.n:
        raise ValueError("dimension mismatch")
    return hamiltonian_operator(X, Fraction(delta), sig).apply(F)


def act_D_symbolside(
    X: VectorFieldOnM,
    lam: Fraction | int,
    mu: Fraction | int,
    F: SuperPolynomial,
    sig: Signature,
) -> SuperPolynomial:
    """Operator-module action seen through normal ordering."""
    if X.n != F.n or F.n != sig.n:
        raise ValueError("dimension mismatch")
    return operator_symbol_action(X, Fraction(lam), Fraction(mu), sig).apply(F)


# -- normal ordering -----------------------------------------------------------


def normal_order(F: SuperPolynomial, sig: Signature) -> SpinorDiffOp:
    """xi-monomials to c-monomials, p-monomials of degree k to h^k dx^k.

    A SpinorDiffOp is stored as this symbol, so nothing is computed.
    """
    if F.n != sig.n:
        raise ValueError("dimension mismatch")
    return SpinorDiffOp(sig, F)


def normal_order_inverse(A: SpinorDiffOp) -> SuperPolynomial:
    """Inverse bijection: the stored symbol of A."""
    return A.symbol


def act_D_direct(
    X: VectorFieldOnM,
    lam: Fraction | int,
    mu: Fraction | int,
    A: SpinorDiffOp,
    sig: Signature,
) -> SpinorDiffOp:
    """Adjoint action sL^mu_X A - A sL^lam_X of the spinor Lie derivative.

    sL^mu_X is sL^lam_X + (mu - lam)(n/2) k_X, with k_X the conformal
    Killing factor, so the action is the commutator [sL^lam_X, A] plus
    (mu - lam)(n/2) k_X A: k_X is a function of x, and composing with it
    on the left multiplies the symbol.  sL^lam_X is even, so the
    commutator takes A of either parity.
    """
    factor = require_conformal(X, sig)
    lam, mu = Fraction(lam), Fraction(mu)
    bracket = kosmann_lie(X, sig, lam).graded_commutator(A)
    if mu == lam:
        return bracket
    return bracket + SpinorDiffOp(sig, factor.scale((mu - lam) * Fraction(sig.n, 2)) * A.symbol)
