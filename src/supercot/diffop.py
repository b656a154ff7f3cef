"""Differential operators with SuperPolynomial coefficients.

A SuperDiffOp is a finite sum of terms ``coeff * dxi^I dx^a dp^b`` acting
on SuperPolynomial from the left.  The Grassmann derivative block I is
stored as a strictly increasing tuple whose reordering sign is absorbed
into the coefficient; ``dxi^(i1,..,ik)`` denotes the composition
d_{xi^i1} o ... o d_{xi^ik}, the rightmost factor acting first.
Composition is exact and uses the graded Leibniz rule to move derivative
blocks past coefficients, so associativity holds on the nose.

Both run on the superpoly loops: a whole block reaches a polynomial in one
``derive_table`` pass, and each product is accumulated in place into the
term table of its result key by ``accumulate``.  The first ``apply`` of an
operator compiles and keeps its plan (per term, the packed derivative and
the coefficient's product rows); the cached confmod operators each hold
one, so n bounds the plans as it bounds those caches.  The Leibniz
expansions of a block (the sub-multi-indices with their binomial factors,
and the Grassmann splits with their signs) are computed once per block and
cached for the life of the process; n and the orders met bound the caches.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb, prod
from typing import Iterable, Mapping

from .coeff import Scalar
from .superpoly import (
    SuperPolynomial, _derivative_plan, accumulate, add_product, derive_table, guard_mask,
    product_rows, sort_xi_word, term_sort_key,
)

OpKey = tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]  # (dxi, dx, dp)


def _parity_involution(poly: SuperPolynomial) -> SuperPolynomial:
    """Multiply each term by (-1)^parity; splits graded Leibniz signs."""
    return SuperPolynomial._wrap(
        poly.n, {key: -c if key[2].bit_count() & 1 else c for key, c in poly._terms.items()}
    )


@lru_cache(maxsize=None)
def _sub_multi_indices(alpha: tuple[int, ...]):
    """(gamma, |gamma|, alpha - gamma, prod C(alpha_i, gamma_i)) for every gamma <= alpha.

    gamma -> alpha - gamma reverses the enumeration order of the box, so
    each entry shares its alpha - gamma tuple with the mirrored entry.
    """
    gammas = list(product(*(range(a + 1) for a in alpha)))
    return tuple(
        (gamma, sum(gamma), rest, prod(map(comb, alpha, gamma)))
        for gamma, rest in zip(gammas, reversed(gammas))
    )


@lru_cache(maxsize=None)
def _grassmann_splits(word: tuple[int, ...]):
    """Graded Leibniz rule for dxi^word o c, as (derived, passed, sign, flip) tuples.

    dxi^word o c = sum sign * P^flip(dxi^derived c) o dxi^passed over the
    splits of word, with P the parity involution: each index either
    differentiates c or passes it (turning it into P(c)), and moving the
    P's to the left past the derivatives applied before them gives sign.
    """
    splits = []
    for mask in range(1 << len(word)):
        derived, passed, crossings = [], [], 0
        for bit, index in enumerate(word):
            if mask >> bit & 1:
                passed.append(index)
                crossings += len(derived)
            else:
                derived.append(index)
        sign = -1 if crossings % 2 else 1
        splits.append((tuple(derived), tuple(passed), sign, len(passed) % 2))
    return tuple(splits)


class SuperDiffOp:
    """Finite-order differential operator on the supercotangent chart."""

    __slots__ = ("n", "_terms", "_plan")

    def __init__(self, n: int, terms: Mapping[OpKey, SuperPolynomial] | None = None):
        self.n = n
        self._plan = None
        cleaned: dict[OpKey, SuperPolynomial] = {}
        if terms:
            for key, coeff in terms.items():
                if not coeff.is_zero():
                    if coeff.n != n:
                        raise ValueError("coefficient dimension mismatch")
                    cleaned[key] = coeff
        self._terms = cleaned

    @staticmethod
    def _wrap(n: int, terms: dict) -> "SuperDiffOp":
        """An operator over a checked table that holds no zero coefficient."""
        out = SuperDiffOp.__new__(SuperDiffOp)
        out.n = n
        out._terms = terms
        out._plan = None
        return out

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(n: int) -> "SuperDiffOp":
        return SuperDiffOp(n)

    @staticmethod
    def term(
        coeff: SuperPolynomial,
        dxi: Iterable[int] = (),
        dx: Iterable[int] = (),
        dp: Iterable[int] = (),
    ) -> "SuperDiffOp":
        n = coeff.n
        dx = tuple(dx) or (0,) * n
        dp = tuple(dp) or (0,) * n
        if len(dx) != n or len(dp) != n:
            raise ValueError("derivative multi-indices must have length n")
        sorted_word = sort_xi_word(dxi)
        if sorted_word is None:
            return SuperDiffOp.zero(n)
        sign, word = sorted_word
        return SuperDiffOp(n, {(word, dx, dp): coeff * sign})

    # -- linear structure --------------------------------------------------

    def _binop(self, other: "SuperDiffOp", negate: bool) -> "SuperDiffOp":
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        terms = dict(self._terms)
        for key, coeff in other._terms.items():
            acc = terms.get(key)
            if acc is None:
                terms[key] = -coeff if negate else coeff
                continue
            acc = acc - coeff if negate else acc + coeff
            if acc:
                terms[key] = acc
            else:
                del terms[key]
        return SuperDiffOp._wrap(self.n, terms)

    def __add__(self, other: "SuperDiffOp") -> "SuperDiffOp":
        return self._binop(other, negate=False)

    def __sub__(self, other: "SuperDiffOp") -> "SuperDiffOp":
        return self._binop(other, negate=True)

    def __neg__(self) -> "SuperDiffOp":
        return SuperDiffOp(self.n, {k: -c for k, c in self._terms.items()})

    def scale(self, factor: Scalar | int | Fraction) -> "SuperDiffOp":
        factor = Scalar.coerce(factor)
        return SuperDiffOp(self.n, {k: c.scale(factor) for k, c in self._terms.items()})

    # -- action and composition ----------------------------------------------

    def apply(self, poly: SuperPolynomial) -> SuperPolynomial:
        if poly.n != self.n:
            raise ValueError("dimension mismatch")
        plan = self._plan
        if plan is None:
            plan = self._plan = [
                (_derivative_plan(dx, dp, dxi), product_rows(coeff._terms))
                for (dxi, dx, dp), coeff in self._terms.items()
            ]
        source = poly._terms
        guard = guard_mask(self.n)
        terms: dict = {}
        for derivative, rows in plan:
            derived = source if derivative is None else derive_table(source, derivative)
            if derived:
                accumulate(terms, rows, derived.items(), guard)
        return SuperPolynomial._wrap(self.n, terms)

    def compose(self, other: "SuperDiffOp") -> "SuperDiffOp":
        """Operator product self o other in canonical form.

        Each block dxi^I dx^a dp^b of self moves past a coefficient cB of
        other by the Leibniz rule; derivatives of cB of x-order above its
        x-degree vanish and are skipped.
        """
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        n = self.n
        result: dict[OpKey, dict] = {}
        b_terms = [(key, cB, cB.x_degree()) for key, cB in other._terms.items()]
        for (dxiA, dxA, dpA), cA in self._terms.items():
            orderA = sum(dxA)
            p_table = _sub_multi_indices(dpA)
            x_table = _sub_multi_indices(dxA)
            splits = _grassmann_splits(dxiA)
            for (dxiB, dxB, dpB), cB, degreeB in b_terms:
                min_kept = orderA - degreeB
                for delta, _d, rest_p, fac_p in p_table:
                    dp_out = tuple(a + b for a, b in zip(delta, dpB))
                    for gamma, order, rest_x, fac_x in x_table:
                        if order < min_kept:
                            continue
                        dx_out = tuple(a + b for a, b in zip(gamma, dxB))
                        for derived, passed, sign, flip in splits:
                            poly = cB.partial(rest_x, rest_p, derived)
                            if not poly:
                                continue
                            sorted_word = sort_xi_word(passed + dxiB)
                            if sorted_word is None:
                                continue
                            if flip:
                                poly = _parity_involution(poly)
                            key = (sorted_word[1], dx_out, dp_out)
                            factor = fac_p * fac_x * sign * sorted_word[0]
                            add_product(result.setdefault(key, {}), cA, poly, factor)
        return SuperDiffOp(n, {k: SuperPolynomial._wrap(n, t) for k, t in result.items()})

    # -- inspection ---------------------------------------------------------

    def order(self) -> int:
        return max(
            (sum(dx) + sum(dp) + len(dxi) for (dxi, dx, dp) in self._terms),
            default=0,
        )

    def items(self):
        return iter(
            sorted(
                self._terms.items(),
                key=lambda kv: (kv[0][0], term_sort_key((kv[0][1], kv[0][2], ()))),
            )
        )

    def is_zero(self) -> bool:
        return not self._terms

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SuperDiffOp):
            return NotImplemented
        return self.n == other.n and self._terms == other._terms

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        chunks = []
        for (dxi, dx, dp), coeff in self.items():
            ops = []
            ops.extend(f"dxi{i}" for i in dxi)
            for pos, e in enumerate(dx):
                if e:
                    ops.append(f"dx{pos + 1}" + (f"^{e}" if e > 1 else ""))
            for pos, e in enumerate(dp):
                if e:
                    ops.append(f"dp{pos + 1}" + (f"^{e}" if e > 1 else ""))
            body = f"({coeff})"
            if ops:
                body += " " + " ".join(ops)
            chunks.append(body)
        return " + ".join(chunks)

    def __repr__(self) -> str:
        return f"SuperDiffOp(n={self.n}, {self})"
