"""Clifford algebra from the Grassmann star product and its spin modules.

The star product of star.py realises the Clifford algebra on Grassmann
polynomials (the c-normalisation c^i = xi^i, gamma^i = sqrt2 c^i).  This
module adds the Lie-algebra bracket check for quadratic elements, the
polarised spinor matrix representation for even dimension and any
signature with p >= q, the prequantisation operator on the full exterior
algebra, and the spinor Lie derivative along conformal vector fields.
Their matrices are matutil's sparse rows; each generator stores one
entry per row.  The spinor Lie derivative is cached per (field,
signature, weight) for the life of the process, like the lift and
comoments: each weight adds weight (div X) to one weight-free build,
cached per (field, signature).  n alone bounds the weight-free cache;
n and the weights asked for bound the weighted one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .coeff import Scalar
from .matutil import Matrix, identity, mat_add, mat_mul, mat_scale, rank
from .spinop import SpinorDiffOp
from .star import star_mul
from .superpoly import Signature, SuperPolynomial
from .symplectic import (
    VectorFieldOnM,
    _skew_gradient,
    conformal_killing_factor,
    jacobian,
    poisson,
    require_conformal,
    units,
)


def weyl_bracket_check(
    u: SuperPolynomial, v: SuperPolynomial, sig: Signature
) -> tuple[bool, SuperPolynomial, SuperPolynomial]:
    """Verify h*{u, v} = u*v -+ v*u for u of Grassmann degree <= 2.

    Returns (equal, lhs, rhs).  Degree-three-or-higher u is rejected: the
    correspondence between the bracket and the star commutator only holds
    on scalars, vectors and bivectors.
    """
    if not u.is_even_free() or not v.is_even_free():
        raise ValueError("inputs must be polynomials in xi only")
    if any(kappa > 2 for (_k, kappa) in u.bidegrees()):
        raise ValueError("left argument must have Grassmann degree <= 2")
    lhs = poisson(u, v, sig).scale(Scalar.h())
    sign_u = -1 if u.parity() else 1
    rhs = SuperPolynomial.zero(u.n)
    for kappa in {kappa for (_k, kappa) in v.bidegrees()}:
        component = v.bidegree_component(0, kappa)
        sign = sign_u if kappa % 2 else 1
        rhs = rhs + star_mul(u, component, sig) - star_mul(component, u, sig).scale(sign)
    return lhs == rhs, lhs, rhs


# -- spinor representation ----------------------------------------------------


def _ladder_matrix(count: int, index: int, up: Scalar, down: Scalar) -> Matrix:
    """up * (wedge by generator `index`) + down * (contraction by it) on the subset basis.

    Subset S of {1..count} is basis vector sum(2^(s-1) for s in S).
    Column S has one entry: in row S - {index} with factor down if index
    is in S, else in row S + {index} with factor up, of sign
    (-1)^#{s in S : s < index}.  So row R has one entry too, in column
    R ^ bit; up and down are nonzero.
    """
    bit = 1 << (index - 1)
    signed = ((up, -up), (down, -down))
    rows = []
    for row in range(1 << count):
        col = row ^ bit
        plus, minus = signed[1 if col & bit else 0]
        rows.append({col: minus if (col & (bit - 1)).bit_count() & 1 else plus})
    return rows


MAX_SPIN_SIDE = 128
"""Largest spin module build_spin_rep builds: side 2^(n/2), so n <= 14.

Each of the n matrices stores one entry per row but prints all side^2
entries, so the output bounds the work: spin-rep --dim 14 prints
0.7 MB of text and --dim 16 would print 3.2 MB.  On a 2-core x86-64
machine with Python 3.11, spin-rep --dim 14 takes 0.25 s and 19 MB in
text and 0.7 s and 34 MB in JSON; past the limit, --dim 16 (side 256)
takes 0.5 s and 20 MB in text and 2.1 s and 94 MB in JSON, and --dim 18
1.0 s and 25 MB in text.
"""


@dataclass(frozen=True)
class SpinorRep:
    """Matrices of the c-generators on the polarised spin module."""

    sig: Signature
    matrices: tuple[Matrix, ...]  # entry i-1 represents c^i

    @property
    def size(self) -> int:
        return len(self.matrices[0])

    def c_matrix(self, i: int) -> Matrix:
        return self.matrices[i - 1]

    def gamma_matrix(self, i: int) -> Matrix:
        return mat_scale(self.matrices[i - 1], Scalar.sqrt2())

    def monomial_matrix(self, indices: tuple[int, ...]) -> Matrix:
        mat = identity(self.size)
        for i in indices:
            mat = mat_mul(mat, self.c_matrix(i))
        return mat

    def rho(self, poly: SuperPolynomial) -> Matrix:
        """Algebra morphism on Grassmann polynomials with scalar coefficients."""
        if not poly.is_even_free():
            raise ValueError("rho is defined on polynomials in xi only")
        mat: Matrix = [{} for _ in range(self.size)]
        for (_x, _p, word), coeff in poly.items():
            mat = mat_add(mat, mat_scale(self.monomial_matrix(word), coeff))
        return mat

    def monomial_rank(self) -> int:
        """Rank of the 2^n ordered c-monomial images over Q(i, sqrt2).

        Each monomial extends the one without its largest index by one
        c-matrix, so the 2^n rows take 2^n - 1 products; they are made
        depth first and consumed by ``rank`` one at a time.
        """
        side, n = self.size, self.sig.n

        def rows(mat: Matrix, first: int):
            # mat is the monomial of a word whose indices are all below first
            yield {r * side + c: v for r, row in enumerate(mat) for c, v in row.items()}
            for i in range(first, n + 1):
                yield from rows(mat_mul(mat, self.c_matrix(i)), i + 1)

        return rank(rows(identity(side), 1), side * side)


def build_spin_rep(sig: Signature) -> SpinorRep:
    """Spinor representation from a polarisation, for even n and p >= q.

    On the Grassmann algebra of the polarisation (generators zeta^1..zeta^m,
    m = n/2), zeta-multiplication Z_a and minus-left-derivative W_a represent
    the images of the complex frame; the real generators are recovered by
      c^i = (Z_i + W_i)/sqrt2                    for i <= m,
      c^i = i (Z_{i-m} - W_{i-m})/sqrt2          for m < i <= p,
      c^i = (Z_{i-m} - W_{i-m})/sqrt2            for p < i <= n.
    """
    n = sig.n
    if n % 2:
        raise ValueError("spin representation requires even dimension")
    if sig.p < sig.q:
        raise ValueError("requires signature with p >= q")
    m = n // 2
    if (1 << min(m, 64)) > MAX_SPIN_SIDE:  # min: no huge int for a huge n
        raise ValueError(
            f"spin module of side 2^{m} in dimension {n} exceeds the limit MAX_SPIN_SIDE = {MAX_SPIN_SIDE}"
        )
    half_sqrt2 = Scalar.sqrt2() * Fraction(1, 2)  # 1/sqrt2
    matrices = []
    for i in range(1, n + 1):
        if i <= m:
            up, down = half_sqrt2, -half_sqrt2
        elif i <= sig.p:
            up = down = half_sqrt2 * Scalar.i()
        else:
            up = down = half_sqrt2
        matrices.append(_ladder_matrix(m, i if i <= m else i - m, up, down))
    return SpinorRep(sig, tuple(matrices))


# -- prequantisation ------------------------------------------------------------


def prequant_op(v: SuperPolynomial, sig: Signature, variant: str = "standard") -> Matrix:
    """Prequantisation of a Grassmann 1-vector on the full exterior algebra.

    "standard" gives (1/sqrt2)(eps(v) - 2 iota(v)), whose images satisfy
    c(v)c(w) + c(w)c(v) = -2 g(v, w); "canonical" gives the sqrt2-free
    variant eps(v) - iota(v) with the same anticommutation relations.
    """
    if not v.is_even_free():
        raise ValueError("argument must be a polynomial in xi only")
    if v.bidegrees() not in ({(0, 1)}, set()):
        raise ValueError("argument must be homogeneous of Grassmann degree 1")
    if variant == "standard":
        up_factor, down_factor = Scalar.sqrt2() * Fraction(1, 2), -Scalar.sqrt2()
    elif variant == "canonical":
        up_factor, down_factor = Scalar.one(), Scalar.rational(-1)
    else:
        raise ValueError(f"unknown prequantisation variant {variant!r}")
    mat: Matrix = [{} for _ in range(1 << sig.n)]
    for (_x, _p, (index,)), coeff in v.items():
        ladder = _ladder_matrix(sig.n, index, coeff * up_factor, coeff * down_factor * sig.eta(index))
        mat = mat_add(mat, ladder)
    return mat


# -- spinor Lie derivative ----------------------------------------------------------


@lru_cache(maxsize=None)
def _kosmann_core(X: VectorFieldOnM, sig: Signature) -> SpinorDiffOp:
    """The weight-free spinor Lie derivative; kosmann_lie adds the weight term to it."""
    if sig.n % 2:
        raise ValueError("spinor Lie derivative requires even dimension")
    require_conformal(X, sig)
    items = [(((), unit), comp) for unit, comp in zip(units(sig.n), X.components)]
    items += [(((j, k), ()), entry) for (k, j), entry in _skew_gradient(jacobian(X), sig).items() if j < k]
    return SpinorDiffOp.from_items(sig, items)


@lru_cache(maxsize=None)
def kosmann_lie(
    X: VectorFieldOnM, sig: Signature, weight: Fraction | int = 0
) -> SpinorDiffOp:
    """Spinor Lie derivative X^i d_i + (1/4) d_[k X_j] gamma^j gamma^k + weight div X.

    Built in the c-normalisation: the quadratic spin term is
    (1/2) d_[k X_j] c^j c^k with the same skew-symmetrisation convention
    as the even comoment, so that normal ordering of the comoment equals
    h times this operator.  div X is n/2 times the conformal factor.
    """
    core = _kosmann_core(X, sig)
    weight = Fraction(weight)
    if not weight:
        return core
    return core + SpinorDiffOp(sig, conformal_killing_factor(X, sig).scale(weight * Fraction(sig.n, 2)))
