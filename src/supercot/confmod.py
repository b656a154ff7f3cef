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
and its inverse do no arithmetic.  The direct route composes with the
spinor Lie derivative by the standard-ordered product; the symbol route
applies the closed form ``operator_symbol_action``.

Each action is materialised once per (generator, weights) as a
SuperDiffOp and cached for the life of the process, so sweeping a large
monomial ansatz stays cheap; n and the weights asked for bound the caches.
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
    NotConformalError,
    VectorFieldOnM,
    _divergence_of,
    conformal_killing_factor,
    divergence,
    hamiltonian_lift,
    hessian,
    jacobian,
)


def _unit(n: int, i: int) -> tuple[int, ...]:
    return tuple(1 if k == i - 1 else 0 for k in range(n))


@lru_cache(maxsize=None)
def _tensorial_core(X: VectorFieldOnM, sig: Signature) -> SuperDiffOp:
    """The weight-free part of tensorial_operator: all but its delta (div X) term."""
    n = sig.n
    op = SuperDiffOp.zero(n)
    for i in range(1, n + 1):
        comp = X.component(i)
        if not comp.is_zero():
            op = op + SuperDiffOp.term(comp, dx=_unit(n, i))
    jac = jacobian(X)
    for i in range(1, n + 1):
        coeff = SuperPolynomial.zero(n)
        for j in range(1, n + 1):
            if (j, i) in jac:
                coeff = coeff - SuperPolynomial.var_p(n, j) * jac[j, i]
        if not coeff.is_zero():
            op = op + SuperDiffOp.term(coeff, dp=_unit(n, i))
    for j in range(1, n + 1):
        coeff = SuperPolynomial.zero(n)
        for i in range(1, n + 1):
            if (j, i) in jac:
                coeff = coeff + SuperPolynomial.var_xi(n, i) * jac[j, i]
        if not coeff.is_zero():
            op = op + SuperDiffOp.term(coeff, dxi=(j,))
    div = _divergence_of(jac, n)
    if not div.is_zero():
        for i in range(1, n + 1):
            op = op + SuperDiffOp.term(
                (div * SuperPolynomial.var_xi(n, i)).scale(Fraction(-1, n)), dxi=(i,)
            )
    return op


@lru_cache(maxsize=None)
def _density(X: VectorFieldOnM, sig: Signature) -> SuperDiffOp:
    """div X, the weight term of every action, as an operator of order zero."""
    return SuperDiffOp.term(divergence(X))


@lru_cache(maxsize=None)
def _lambda_term(X: VectorFieldOnM, sig: Signature) -> SuperDiffOp:
    """-h d_j(div X) dp_j, the lambda term of operator_symbol_action."""
    n = sig.n
    hess = hessian(X)
    minus_h = Scalar.h(1, -1)
    op = SuperDiffOp.zero(n)
    for j in range(1, n + 1):
        # d_j (div X), summed in the order of divergence's terms
        grad = sum((hess[i, i, j] for i in range(1, n + 1) if (i, i, j) in hess), SuperPolynomial.zero(n))
        if not grad.is_zero():
            op = op + SuperDiffOp.term(grad.scale(minus_h), dp=_unit(n, j))
    return op


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
    op = hamiltonian_lift(X, sig)
    half_h = Scalar.h(1, Fraction(1, 2))
    quarter_h = Scalar.h(1, Fraction(1, 4))
    for (i, j, k), hess in hessian(X).items():  # in the order of the loops over i, j, k
        dp_jk = tuple((1 if m == j - 1 else 0) + (1 if m == k - 1 else 0) for m in range(n))
        op = op + SuperDiffOp.term((hess * SuperPolynomial.var_p(n, i)).scale(-half_h), dp=dp_jk)
        # chi^j_i dp_k, scaled by (h/2) * (1/2) * hess
        chi_coeff = hess.scale(quarter_h)
        op = op + SuperDiffOp.term(chi_coeff * SuperPolynomial.var_xi(n, j), dxi=(i,), dp=_unit(n, k))
        op = op - SuperDiffOp.term(
            (chi_coeff * SuperPolynomial.var_xi(n, i)).scale(sig.eta(i) * sig.eta(j)), dxi=(j,), dp=_unit(n, k)
        )
        if i != j:
            op = op + SuperDiffOp.term(
                chi_coeff.scale(Fraction(1, 2) * sig.eta(j)), dxi=(j, i), dp=_unit(n, k)
            )
    return op


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
    """Adjoint action sL^mu_X A - A sL^lam_X of the spinor Lie derivative."""
    if conformal_killing_factor(X, sig) is None:
        raise NotConformalError(f"{X.name or 'vector field'} is not conformal")
    left = kosmann_lie(X, sig, Fraction(mu))
    right = kosmann_lie(X, sig, Fraction(lam))
    return left.compose(A) - A.compose(right)
