"""Differential operators in x with Clifford-monomial coefficients.

A SpinorDiffOp is a finite sum of terms ``xcoeff * c^I * dx^a`` where the
Clifford monomial c^I is written in the c-normalisation
(c^i c^j + c^j c^i = -eta^ij, gamma^i = sqrt2 c^i), xcoeff is a
polynomial in x over the exact scalars, and dx^a is a partial-derivative
multi-index.  The operator is stored as its normal-order symbol, a
SuperPolynomial in which the monomial x^a p^b xi^I stands for
x^a c^I (h dx)^b.  Normal ordering is therefore the identity on the
stored data, the linear structure is the symbol's, and composition is
the standard-ordered product of star.py, which is associative on the
nose; ``graded_commutator`` is star's one-table ``standard_commutator``.
``items()`` groups the symbol back into (c^I, dx^a) blocks, each
coefficient times h^|a|, for rendering and JSON.  ``from_items`` sums
``monomial`` symbols through ``add_product``, and ``items()`` regroups
the symbol's terms through ``unpack_key``/``pack_key``: only superpoly
knows where a key keeps its fields.
"""

from __future__ import annotations

from fractions import Fraction
from operator import itemgetter
from typing import Iterable, Mapping

from .coeff import Scalar
from .star import standard_commutator, standard_mul
from .superpoly import Signature, SuperPolynomial, add_product, pack_key, slot_sum, unpack, unpack_key, xi_word


class SpinorDiffOp:
    """Operator on spinor-valued functions over the flat chart."""

    __slots__ = ("sig", "symbol")

    def __init__(self, sig: Signature, symbol: SuperPolynomial | None = None):
        if symbol is None:
            symbol = SuperPolynomial.zero(sig.n)
        elif symbol.n != sig.n:
            raise ValueError("symbol dimension mismatch")
        self.sig = sig
        self.symbol = symbol

    @property
    def n(self) -> int:
        return self.sig.n

    # -- constructors ----------------------------------------------------

    @staticmethod
    def from_items(sig: Signature, items: Iterable[tuple[tuple, SuperPolynomial]]) -> "SpinorDiffOp":
        """The sum of xcoeff * c^cliff * dx^dx over ((cliff, dx), xcoeff); inverts items().

        A cliff word may be in any order (its reordering sign is absorbed); a repeated index gives zero.
        """
        n = sig.n
        terms: dict = {}
        for (cliff, dx), xcoeff in items:
            if xcoeff.n != n:
                raise ValueError("coefficient dimension mismatch")
            if xcoeff.bidegrees() - {(0, 0)}:
                raise ValueError("SpinorDiffOp coefficients must be polynomials in x only")
            if not all(1 <= i <= n for i in cliff):
                raise ValueError(f"Clifford word {tuple(cliff)!r} must lie within 1..{n}")
            # h^-|dx| dx^dx c^cliff as its symbol; xcoeff is even, so it may stand on the right
            head = SuperPolynomial.monomial(n, pexp=dx, xi=cliff, coeff=Scalar.h(-sum(dx)))
            add_product(terms, head, xcoeff)
        return SpinorDiffOp(sig, SuperPolynomial._wrap(n, terms))

    # -- linear structure and composition ----------------------------------

    def __add__(self, other: "SpinorDiffOp") -> "SpinorDiffOp":
        return SpinorDiffOp(self.sig, self.symbol + _same_sig(self, other).symbol)

    def __sub__(self, other: "SpinorDiffOp") -> "SpinorDiffOp":
        return SpinorDiffOp(self.sig, self.symbol - _same_sig(self, other).symbol)

    def scale(self, factor: Scalar | int | Fraction) -> "SpinorDiffOp":
        return SpinorDiffOp(self.sig, self.symbol.scale(factor))

    def compose(self, other: "SpinorDiffOp") -> "SpinorDiffOp":
        product = standard_mul(self.symbol, _same_sig(self, other).symbol, self.sig)
        return SpinorDiffOp(self.sig, product)

    def graded_commutator(self, other: "SpinorDiffOp") -> "SpinorDiffOp":
        """A B - (-1)^{|A||B|} B A, the bracket of the graded Poisson algebra.

        The Clifford parity of an operator is the xi-parity of its symbol.
        """
        return SpinorDiffOp(self.sig, standard_commutator(self.symbol, _same_sig(self, other).symbol, self.sig))

    # -- spinor action -----------------------------------------------------------

    def apply_spinor(self, components: tuple[SuperPolynomial, ...], rep) -> tuple[SuperPolynomial, ...]:
        """Apply to a spinor-valued polynomial, using rep for the c-matrices.

        ``components`` has one x-polynomial per basis spinor of rep; the
        scalar coefficients of the polynomials may involve h.
        """
        if len(components) != rep.size:
            raise ValueError("component count must match the spin module dimension")
        out: list[dict] = [{} for _ in components]
        for (cliff, dx), coeff in self.items():
            derived = [comp.partial(dx) for comp in components]
            for table, row in zip(out, rep.monomial_matrix(cliff)):
                for col, entry in row.items():
                    add_product(table, coeff, derived[col], entry)
        return tuple(SuperPolynomial._wrap(self.n, table) for table in out)

    # -- inspection ------------------------------------------------------------------

    def items(self):
        """((cliff, dx), xcoeff) blocks sorted by (cliff, dx); xcoeff carries h^|dx|."""
        n = self.n
        blocks: dict = {}
        for key, c in self.symbol._terms.items():
            xp, pp, mask, hpow, part = unpack_key(key, n)
            block = blocks.get((mask, pp))
            if block is None:
                block = blocks[mask, pp] = ({}, slot_sum(pp))
            table, order = block
            table[pack_key(n, xp, 0, 0, hpow + order, part)] = c  # the x-polynomial entry times h^|dx|
        return iter(sorted(
            (((xi_word(mask), unpack(pp, n)), SuperPolynomial._wrap(n, table))
             for (mask, pp), (table, _order) in blocks.items()),
            key=itemgetter(0),
        ))

    def is_zero(self) -> bool:
        return self.symbol.is_zero()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SpinorDiffOp):
            return NotImplemented
        return self.sig == other.sig and self.symbol == other.symbol

    # -- rendering ----------------------------------------------------------------------

    def _render(self, gamma: bool) -> str:
        if self.is_zero():
            return "0"
        chunks = []
        half_s = Scalar.sqrt2() * Fraction(1, 2)
        for (cliff, dx), coeff in self.items():
            shown = coeff
            for _ in cliff if gamma else ():
                shown = shown.scale(half_s)  # 1/sqrt2 per gamma factor
            symbols = [("g" if gamma else "c") + str(i) for i in cliff]
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
        return SpinorDiffOp.from_items(sig, (
            (
                (tuple(int(i) for i in record["cliff"]), tuple(int(e) for e in record["dx"])),
                SuperPolynomial.from_json(record["xcoeff"]),
            )
            for record in data["terms"]
        ))


def _same_sig(left: SpinorDiffOp, right: SpinorDiffOp) -> SpinorDiffOp:
    if left.sig != right.sig:
        raise ValueError("signature mismatch")
    return right
