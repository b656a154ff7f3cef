"""Differential operators in x with Clifford-monomial coefficients.

A SpinorDiffOp is a finite sum of terms ``xcoeff * c^I * dx^a`` where the
Clifford monomial c^I is stored as a strictly increasing index tuple in
the c-normalisation (c^i c^j + c^j c^i = -eta^ij, gamma^i = sqrt2 c^i),
xcoeff is a polynomial in x over the exact scalars, and dx^a is a
partial-derivative multi-index.  Composition multiplies Clifford blocks
with the star product and moves derivatives past coefficients by the
Leibniz rule, so the algebra is associative on the nose.  The Clifford
product of two blocks is read from the star product's cached word table,
and coefficients multiply in place into the result (``add_product``).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

from .coeff import Scalar
from .diffop import _sub_multi_indices
from .star import _word_product
from .superpoly import Signature, SuperPolynomial, add_product, sort_xi_word

SpinKey = tuple[tuple[int, ...], tuple[int, ...]]  # (cliff, dx)


def _check_xcoeff(coeff: SuperPolynomial) -> None:
    for key in coeff._terms:
        if any(key[1]) or key[2]:
            raise ValueError("SpinorDiffOp coefficients must be polynomials in x only")


class SpinorDiffOp:
    """Operator on spinor-valued functions over the flat chart."""

    __slots__ = ("sig", "_terms")

    def __init__(self, sig: Signature, terms: Mapping[SpinKey, SuperPolynomial] | None = None):
        self.sig = sig
        cleaned: dict[SpinKey, SuperPolynomial] = {}
        if terms:
            for key, coeff in terms.items():
                if not coeff.is_zero():
                    if coeff.n != sig.n:
                        raise ValueError("coefficient dimension mismatch")
                    _check_xcoeff(coeff)
                    cleaned[key] = coeff
        self._terms = cleaned

    @staticmethod
    def _wrap(sig: Signature, terms: dict) -> "SpinorDiffOp":
        """An operator over a checked table that holds no zero coefficient."""
        out = SpinorDiffOp.__new__(SpinorDiffOp)
        out.sig = sig
        out._terms = terms
        return out

    @property
    def n(self) -> int:
        return self.sig.n

    # -- constructors ----------------------------------------------------

    @staticmethod
    def zero(sig: Signature) -> "SpinorDiffOp":
        return SpinorDiffOp(sig)

    @staticmethod
    def identity(sig: Signature) -> "SpinorDiffOp":
        return SpinorDiffOp.term(sig, SuperPolynomial.one(sig.n))

    @staticmethod
    def term(
        sig: Signature,
        xcoeff: SuperPolynomial,
        cliff: Iterable[int] = (),
        dx: Iterable[int] = (),
    ) -> "SpinorDiffOp":
        n = sig.n
        dx = tuple(dx) or (0,) * n
        if len(dx) != n:
            raise ValueError("dx multi-index must have length n")
        sorted_word = sort_xi_word(cliff)
        if sorted_word is None:
            return SpinorDiffOp.zero(sig)
        sign, word = sorted_word
        return SpinorDiffOp(sig, {(word, dx): xcoeff * sign})

    # -- linear structure ---------------------------------------------------

    def _binop(self, other: "SpinorDiffOp", negate: bool) -> "SpinorDiffOp":
        if self.sig != other.sig:
            raise ValueError("signature mismatch")
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
        return SpinorDiffOp._wrap(self.sig, terms)

    def __add__(self, other: "SpinorDiffOp") -> "SpinorDiffOp":
        return self._binop(other, negate=False)

    def __sub__(self, other: "SpinorDiffOp") -> "SpinorDiffOp":
        return self._binop(other, negate=True)

    def __neg__(self) -> "SpinorDiffOp":
        return SpinorDiffOp(self.sig, {k: -c for k, c in self._terms.items()})

    def scale(self, factor: Scalar | int | Fraction) -> "SpinorDiffOp":
        factor = Scalar.coerce(factor)
        return SpinorDiffOp(self.sig, {k: c.scale(factor) for k, c in self._terms.items()})

    # -- composition -----------------------------------------------------------

    def compose(self, other: "SpinorDiffOp") -> "SpinorDiffOp":
        if self.sig != other.sig:
            raise ValueError("signature mismatch")
        sig = self.sig
        result: dict[SpinKey, dict] = {}
        b_terms = [(key, cB, cB.x_degree()) for key, cB in other._terms.items()]
        for (cliffA, dxA), cA in self._terms.items():
            orderA = sum(dxA)
            x_table = _sub_multi_indices(dxA)
            for (cliffB, dxB), cB, degreeB in b_terms:
                cliff_product = _word_product(cliffA, cliffB, sig)
                if not cliff_product:
                    continue
                # derivatives of cB of order above its x-degree vanish
                min_kept = orderA - degreeB
                for gamma, order, rest, factor in x_table:
                    if order < min_kept:
                        continue
                    passed = cB.partial(rest)
                    if not passed:
                        continue
                    dx_out = tuple(a + b for a, b in zip(gamma, dxB))
                    for word, scalar in cliff_product:
                        table = result.setdefault((word, dx_out), {})
                        add_product(table, cA, passed, scalar * factor)
        return SpinorDiffOp(sig, {
            key: SuperPolynomial._wrap(self.n, table) for key, table in result.items()
        })

    def commutator(self, other: "SpinorDiffOp") -> "SpinorDiffOp":
        return self.compose(other) - other.compose(self)

    def parity(self) -> int:
        """Clifford parity; raises on a non-homogeneous operator."""
        parities = {len(cliff) % 2 for (cliff, _dx) in self._terms}
        if not parities:
            return 0
        if len(parities) > 1:
            raise ValueError("operator is not Clifford-parity homogeneous")
        return parities.pop()

    def graded_commutator(self, other: "SpinorDiffOp") -> "SpinorDiffOp":
        """A B - (-1)^{|A||B|} B A, the bracket of the graded Poisson algebra."""
        sign = -1 if (self.parity() and other.parity()) else 1
        return self.compose(other) - other.compose(self).scale(sign)

    # -- spinor action -----------------------------------------------------------

    def apply_spinor(self, components: tuple[SuperPolynomial, ...], rep) -> tuple[SuperPolynomial, ...]:
        """Apply to a spinor-valued polynomial, using rep for the c-matrices.

        ``components`` has one x-polynomial per basis spinor of rep; the
        scalar coefficients of the polynomials may involve h.
        """
        size = len(rep.basis)
        if len(components) != size:
            raise ValueError("component count must match the spin module dimension")
        out: list[dict] = [{} for _ in range(size)]
        for (cliff, dx), coeff in self._terms.items():
            mat = rep.monomial_matrix(cliff)
            derived = [comp.partial(dx) for comp in components]
            for row in range(size):
                for col in range(size):
                    add_product(out[row], coeff, derived[col], mat[row][col])
        return tuple(SuperPolynomial._wrap(self.n, table) for table in out)

    # -- inspection ------------------------------------------------------------------

    def items(self):
        return iter(sorted(self._terms.items(), key=lambda kv: (kv[0][0], kv[0][1])))

    def is_zero(self) -> bool:
        return not self._terms

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SpinorDiffOp):
            return NotImplemented
        return self.sig == other.sig and self._terms == other._terms

    # -- rendering ----------------------------------------------------------------------

    def _render(self, gamma: bool) -> str:
        if not self._terms:
            return "0"
        chunks = []
        half_s = Scalar.sqrt2() * Fraction(1, 2)
        for (cliff, dx), coeff in self.items():
            shown = coeff
            symbols = []
            if gamma:
                for _ in cliff:
                    shown = shown.scale(half_s)  # 1/sqrt2 per gamma factor
                symbols.extend(f"g{i}" for i in cliff)
            else:
                symbols.extend(f"c{i}" for i in cliff)
            for pos, e in enumerate(dx):
                if e:
                    symbols.append(f"d{pos + 1}" + (f"^{e}" if e > 1 else ""))
            body = f"({shown})"
            if symbols:
                body += " " + "*".join(symbols)
            chunks.append(body)
        return " + ".join(chunks)

    def __str__(self) -> str:
        return self._render(gamma=False)

    def render_gamma(self) -> str:
        """Render with conventional gamma matrices: g_i = sqrt2 c_i."""
        return self._render(gamma=True)

    def __repr__(self) -> str:
        return f"SpinorDiffOp(sig=({self.sig.p},{self.sig.q}), {self})"

    # -- serialization -------------------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "terms": [
                {"cliff": list(cliff), "xcoeff": coeff.to_json(), "dx": list(dx)}
                for (cliff, dx), coeff in self.items()
            ],
        }

    @staticmethod
    def from_json(data: Mapping, sig: Signature) -> "SpinorDiffOp":
        if int(data["n"]) != sig.n:
            raise ValueError("dimension mismatch between JSON and signature")
        op = SpinorDiffOp.zero(sig)
        for record in data["terms"]:
            op = op + SpinorDiffOp.term(
                sig,
                SuperPolynomial.from_json(record["xcoeff"]),
                cliff=tuple(int(i) for i in record["cliff"]),
                dx=tuple(int(e) for e in record["dx"]),
            )
        return op
