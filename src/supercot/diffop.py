"""Differential operators with SuperPolynomial coefficients.

A SuperDiffOp is a finite sum of terms ``coeff * dxi^I dx^a dp^b`` acting
on SuperPolynomial from the left; ``dxi^(i1,..,ik)`` is the composition
d_{xi^i1} o ... o d_{xi^ik}, the rightmost factor acting first.  At the
boundary (the constructor, ``term``, ``items``, ``order``, printing) a key
is ``(dxi, dx, dp)``.  The constructor takes a mapping or an iterable of
``(key, coeff)`` pairs and sums them in order, as adding one
``SuperDiffOp.term`` per pair would: it drops a zero coefficient unread,
sorts dxi into its coefficient's sign, drops a word with a repeated index,
refuses a bad key, and adds the coefficients of keys that coincide once
sorted (a repeated key, or two orders of one word), dropping a key whose
sum cancels.  So an operator built term by term is one constructor call
over its list of terms, and the list's order is the table's.  Inside, a
key is one int, superpoly's ``term_key`` of (a, b, I): the term-key
layout with an empty h slot and part, so that a derivative subtracts its
key from a term key.

``apply_all`` applies a family of operators to one polynomial, taking
each derivative of it once for every operator that reads it; ``apply``
is its one-operator case.  ``compose`` moves each block of A past
each flat entry of B's coefficients by the graded Leibniz rule, reading
two cached tables that list only the surviving splits: an even one, with
their binomial times falling-factorial factors, and a Grassmann one, with
their signs.  The entries moved to one result key are multiplied by A's
coefficient rows, built once per A term, in one ``accumulate`` call.  The
tables live as long as the process; n and the orders met bound them.
Composition is exact, so it is associative.

``commutator`` gives A o B - B o A for even operators (each coefficient
entry has the parity of its xi word, as for every conformal module
action) from the same loop run in both orders, less the juxtaposition
split of each pair of terms: the one in which no derivative of the left
operator reaches the right one's coefficient.  For even terms that split
is the same in both orders and cancels, and it holds every product of the
two coefficients, so the bracket costs a fraction of two compositions.  It
refuses an operator with an odd term.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

from .coeff import Scalar
from .superpoly import (
    MASK_SHIFT, SuperPolynomial, _derivative_plan, _odd_above, _overflow, _slot_leibniz, accumulate,
    add_term, denominator, derivative_fields, derive_table, divided, guard_mask, integral, mask_field,
    product_rows, reaches, slot_sum, term_key, term_sort_key, unpack, x_shift, xi_word,
)

OpKey = tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]  # (dxi, dx, dp)


@lru_cache(maxsize=None)
def _even_leibniz(shift: int, d: int, e: int) -> tuple:
    """dx^a dp^b past an entry x^xp p^pp: (loss, gain, factor) per surviving split.

    d packs a then b, and e packs xp then pp, slot by slot as in a key's x
    and p slots, which start at bit shift.  dx^a o x^xp = sum C(a, g)
    xp!/(xp - a + g)! x^(xp - a + g) dx^g over the g <= a with a - g <= xp,
    likewise in p: the entry loses a - g and the derivative keeps g, each
    at its place in a key.  The last split keeps all of a and b.
    """
    return tuple(((e - rest) << shift, gain << shift, f) for rest, gain, f in _slot_leibniz(d, e))


@lru_cache(maxsize=None)
def _odd_leibniz(dmask: int, mask: int) -> tuple:
    """dxi^I past an entry xi^M, as masks: (M - S, passed P, sign) for every S within I and M.

    dxi^I o xi^M = sum sign xi^(M - S) dxi^P over the splits I = S + P: S
    differentiates the entry (derive_table's sign), and each index of P
    passes the rest of the entry and the indices of S below it.
    """
    out, common, derived = [], dmask & mask, dmask & mask
    while True:
        passed = dmask ^ derived
        odd = (mask & _odd_above(derived)).bit_count() + (derived & _odd_above(passed)).bit_count()
        odd += (passed.bit_count() & 1) * (mask ^ derived).bit_count()
        out.append((mask ^ derived, passed, -1 if odd & 1 else 1))
        if not derived:
            return tuple(out)
        derived = (derived - 1) & common


def _leibniz_sum(n: int, products: tuple, skip_juxtaposition: bool) -> "SuperDiffOp":
    """The sum of sign * A o B over the (A, B, sign) in products, by the graded Leibniz rule.

    Each block of A moves past each flat entry of B's coefficients; the
    entries moved to one key are multiplied by A's coefficient rows in one
    ``accumulate`` call.  With skip_juxtaposition the split in which A's
    whole block passes the entry untouched (the last split of both Leibniz
    tables) is left out.
    """
    guard = guard_mask(n)
    xs, nm = x_shift(n), (1 << n) - 1
    result: dict = {}
    for A, B, sign in products:
        b_terms = [  # each entry with its even exponents and its xi mask
            (kB, kB >> MASK_SHIFT & nm, kB >> xs << xs,
             [(k, c, k >> xs, k >> MASK_SHIFT & nm) for k, c in cB._terms.items()])
            for kB, cB in B._terms.items()
        ]
        for kA, cA in A._terms.items():
            dmaskA, dA = kA >> MASK_SHIFT & nm, kA >> xs
            evenA = dA << xs
            moved: dict = {}
            for kB, dmaskB, evenB, entries in b_terms:
                if (evenA + evenB) & guard:  # the even orders add, the xi masks may overlap
                    raise _overflow()
                for k, c, e, m in entries:
                    even = _even_leibniz(xs, dA, e)
                    for rest, passed, odd_sign in _odd_leibniz(dmaskA, m):
                        if passed & dmaskB:
                            continue
                        if passed and (dmaskB & _odd_above(passed)).bit_count() & 1:
                            odd_sign = -odd_sign
                        head = kB + (passed << MASK_SHIFT) if passed else kB
                        entry = k - ((m ^ rest) << MASK_SHIFT) if m != rest else k
                        splits = even[:-1] if skip_juxtaposition and passed == dmaskA else even
                        for loss, gain, factor in splits:
                            v = c * (factor * odd_sign)
                            if type(v) is not int and v.denominator == 1:
                                v = v.numerator
                            add_term(moved.setdefault(head + gain, {}), entry - loss, v)
            rows = product_rows(cA._terms, n, sign) if moved else None
            for key, table in moved.items():  # a cancelled table adds nothing
                accumulate(result.setdefault(key, {}), rows, table.items(), guard)
    return SuperDiffOp._wrap(n, {k: SuperPolynomial._wrap(n, t) for k, t in result.items() if t})


def apply_all(ops: Sequence["SuperDiffOp"], poly: SuperPolynomial) -> list[SuperPolynomial]:
    """[op.apply(poly) for op in ops], taking each derivative of poly once.

    The terms of all the operators are grouped by derivative key; each
    derivative is added into every image that reads it before the next
    is taken, so no derivative table is kept and the images are all that
    grows.  A derivative that no term of poly survives, as the bitwise or
    of poly's keys already shows, is not taken, and the coefficients that
    read it are not expanded.  The products add up in int arithmetic:
    poly and each operator's coefficients are scaled by the least common
    multiple of their denominators, and each image is divided back once.
    """
    n = poly.n
    source, scale = integral(poly._terms)
    images: list[tuple[dict, int]] = []
    readers: dict = {}
    for op in ops:
        if op.n != n:
            raise ValueError("dimension mismatch")
        terms: dict = {}
        d = op._denominator()
        images.append((terms, d * scale))
        for key, coeff in op._terms.items():
            group = readers.get(key)
            if group is None:
                readers[key] = (_derivative_plan(n, key), [(terms, coeff, d)])
            else:
                group[1].append((terms, coeff, d))
    support = 0
    for key in source:
        support |= key
    guard = guard_mask(n)
    for derivative, targets in readers.values():
        if derivative is None:
            derived = source
        elif not reaches(derivative, support):
            continue
        else:
            derived = derive_table(source, derivative)
        if derived:
            for terms, coeff, d in targets:
                accumulate(terms, product_rows(coeff._terms, n, d), derived.items(), guard)
    return [SuperPolynomial._wrap(n, divided(terms, d)) for terms, d in images]


class SuperDiffOp:
    """Finite-order differential operator on the supercotangent chart."""

    __slots__ = ("n", "_terms", "_lcm")

    def __init__(
        self, n: int, terms: Mapping[OpKey, SuperPolynomial] | Iterable[tuple[OpKey, SuperPolynomial]] = (),
    ):
        self.n = n
        table: dict = {}
        for (dxi, dx, dp), coeff in terms.items() if isinstance(terms, Mapping) else terms:
            if coeff.n != n:
                raise ValueError("coefficient dimension mismatch")
            if not coeff:
                continue
            sign, key = term_key(n, dx, dp, dxi)  # () stands for no derivative
            if not sign:
                continue
            if sign < 0:
                coeff = -coeff
            acc = table.get(key)
            coeff = coeff if acc is None else acc + coeff
            if coeff:
                table[key] = coeff
            else:
                del table[key]
        self._terms = table

    @staticmethod
    def _wrap(n: int, terms: dict) -> "SuperDiffOp":
        """An operator over a checked table that holds no zero coefficient."""
        out = SuperDiffOp.__new__(SuperDiffOp)
        out.n = n
        out._terms = terms
        return out

    # -- constructors ---------------------------------------------------

    @staticmethod
    def term(
        coeff: SuperPolynomial,
        dxi: Iterable[int] = (),
        dx: Iterable[int] = (),
        dp: Iterable[int] = (),
    ) -> "SuperDiffOp":
        return SuperDiffOp(coeff.n, {(tuple(dxi), tuple(dx), tuple(dp)): coeff})

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
        return SuperDiffOp._wrap(self.n, {k: -c for k, c in self._terms.items()})

    def scale(self, factor: Scalar | int | Fraction) -> "SuperDiffOp":
        # the scalar ring has no zero divisors: a nonzero factor keeps every term
        if not factor:
            return SuperDiffOp(self.n)
        return SuperDiffOp._wrap(self.n, {k: c.scale(factor) for k, c in self._terms.items()})

    # -- action and composition ----------------------------------------------

    def apply(self, poly: SuperPolynomial) -> SuperPolynomial:
        return apply_all((self,), poly)[0]

    def compose(self, other: "SuperDiffOp") -> "SuperDiffOp":
        """Operator product self o other in canonical form (graded Leibniz rule)."""
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        return _leibniz_sum(self.n, ((self, other, 1),), False)

    def commutator(self, other: "SuperDiffOp") -> "SuperDiffOp":
        """self o other - other o self for even operators; ValueError if a term is odd.

        Both products run the Leibniz loop of ``compose`` without the
        juxtaposition split (no derivative of one operator reaches the other's
        coefficient): for even terms it is the same in both orders and cancels.
        """
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        if not (self._is_even() and other._is_even()):
            raise ValueError("commutator needs even operators: a term's coefficient and xi word differ in parity")
        return _leibniz_sum(self.n, ((self, other, 1), (other, self, -1)), True)

    def _denominator(self) -> int:
        """The least common multiple of the coefficients' denominators, computed once."""
        try:
            return self._lcm
        except AttributeError:
            d = 1
            for coeff in self._terms.values():
                d = denominator(coeff._terms.values(), d)
            self._lcm = d
            return d

    def _is_even(self) -> bool:
        """Every term maps even to even: each coefficient entry has the parity of its xi word."""
        field = mask_field(self.n)
        return all(
            not ((key & field).bit_count() + (entry & field).bit_count()) & 1
            for key, coeff in self._terms.items() for entry in coeff._terms
        )

    # -- inspection ---------------------------------------------------------

    def order(self) -> int:
        field, xs = mask_field(self.n), x_shift(self.n)
        orders = ((key & field).bit_count() + slot_sum(key >> xs) for key in self._terms)
        return max(orders, default=0)

    def items(self):
        """((dxi, dx, dp), coeff) pairs in a deterministic order."""
        n = self.n
        out = []
        for key, coeff in self._terms.items():
            m, dxp, dpp = derivative_fields(key, n)
            out.append(((xi_word(m), unpack(dxp, n), unpack(dpp, n)), coeff))
        out.sort(key=lambda kv: (kv[0][0], term_sort_key((kv[0][1], kv[0][2], ()))))
        return iter(out)

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
