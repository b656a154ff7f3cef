"""Exact scalar arithmetic in the ring Q(i, sqrt2)[h, h^-1].

A Scalar is a Laurent polynomial in the formal central parameter ``h``
whose coefficients live in the commutative ring Q[i, s]/(i^2 + 1, s^2 - 2),
i.e. rational combinations of 1, i, s and i*s with i^2 = -1 and s^2 = 2.
Negative powers of h are allowed because the odd part of the graded
Poisson bracket divides by h.

Values are immutable and canonical: the defining relations are always
reduced away, zero terms are never stored, and each rational coefficient
is an ``int`` when it is integral and otherwise a fractions.Fraction in
lowest terms with a positive denominator.  The two types mix freely
(``Fraction(2) == 2`` and the two hash alike), so equality and hashing
stay structural; keeping integers as ``int`` lets the common products by
small integers skip Fraction arithmetic altogether.  A scalar equal to a
rational number compares and hashes like that number.

The (hpow, part) pairs are a basis of the ring over Q, and _PART_MUL is
its multiplication table.  SuperPolynomial stores no Scalar per term:
its flat term table keys each canonical rational by the monomial and
the (hpow, part) of this basis, and its kernels multiply the parts with
_PART_MUL directly.  Scalar is the coefficient type at its boundary.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Union

RationalLike = Union[int, Fraction]

# Basis parts of Q(i, s) over Q, indexed 0..3.
PART_ONE, PART_I, PART_S, PART_IS = 0, 1, 2, 3
PART_NAMES = ("1", "i", "s", "is")
_PART_BY_NAME = {name: k for k, name in enumerate(PART_NAMES)}

# _PART_MUL[p][q] = (rational factor, resulting part) for part_p * part_q.
_PART_MUL = (
    ((1, PART_ONE), (1, PART_I), (1, PART_S), (1, PART_IS)),
    ((1, PART_I), (-1, PART_ONE), (1, PART_IS), (-1, PART_S)),
    ((1, PART_S), (1, PART_IS), (2, PART_ONE), (2, PART_I)),
    ((1, PART_IS), (-1, PART_S), (2, PART_I), (-2, PART_ONE)),
)


def _rational(value: RationalLike) -> RationalLike:
    """Canonical coefficient: an int when integral, else a Fraction."""
    if type(value) is int:
        return value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else value
    if isinstance(value, int):
        return int(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


class Scalar:
    """Element of Q(i, sqrt2)[h, h^-1] in canonical form."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[tuple[int, int], RationalLike] | None = None):
        cleaned: dict[tuple[int, int], RationalLike] = {}
        if terms:
            for (hpow, part), coeff in terms.items():
                coeff = _rational(coeff)
                if coeff:
                    cleaned[(int(hpow), int(part))] = coeff
        self._terms = cleaned

    @staticmethod
    def _wrap(terms: dict) -> "Scalar":
        """A Scalar over a table that is already canonical."""
        out = Scalar.__new__(Scalar)
        out._terms = terms
        return out

    # -- constructors ------------------------------------------------

    @staticmethod
    def zero() -> "Scalar":
        return Scalar()

    @staticmethod
    def one() -> "Scalar":
        return Scalar({(0, PART_ONE): 1})

    @staticmethod
    def rational(value: RationalLike) -> "Scalar":
        return Scalar({(0, PART_ONE): value})

    @staticmethod
    def i() -> "Scalar":
        return Scalar({(0, PART_I): 1})

    @staticmethod
    def sqrt2() -> "Scalar":
        return Scalar({(0, PART_S): 1})

    @staticmethod
    def h(power: int = 1, coeff: RationalLike = 1) -> "Scalar":
        return Scalar({(power, PART_ONE): coeff})

    @staticmethod
    def coerce(value: "Scalar | RationalLike") -> "Scalar":
        if isinstance(value, Scalar):
            return value
        return Scalar.rational(value)

    # -- ring structure ----------------------------------------------

    def __add__(self, other: "Scalar | RationalLike") -> "Scalar":
        if type(other) is not Scalar:
            other = Scalar.coerce(other)
        if not other._terms:
            return self
        if not self._terms:
            return other
        terms = dict(self._terms)
        for key, coeff in other._terms.items():
            acc = terms.get(key)
            if acc is None:
                terms[key] = coeff
                continue
            acc = acc + coeff
            if not acc:
                del terms[key]
            elif type(acc) is not int and acc.denominator == 1:
                terms[key] = acc.numerator
            else:
                terms[key] = acc
        return Scalar._wrap(terms)

    __radd__ = __add__

    def __neg__(self) -> "Scalar":
        return Scalar._wrap({key: -coeff for key, coeff in self._terms.items()})

    def __sub__(self, other: "Scalar | RationalLike") -> "Scalar":
        return self + (-Scalar.coerce(other))

    def __rsub__(self, other: "Scalar | RationalLike") -> "Scalar":
        return Scalar.coerce(other) + (-self)

    def __mul__(self, other: "Scalar | RationalLike") -> "Scalar":
        if type(other) is not Scalar:
            other = Scalar.coerce(other)
        left, right = self._terms, other._terms
        terms: dict[tuple[int, int], RationalLike] = {}
        for (hp1, p1), c1 in left.items():
            for (hp2, p2), c2 in right.items():
                factor, part = _PART_MUL[p1][p2]
                key = (hp1 + hp2, part)
                acc = c1 * c2 * factor
                old = terms.get(key)
                if old is not None:
                    acc = old + acc
                if acc:
                    terms[key] = acc
                else:
                    del terms[key]
        for key, acc in terms.items():
            if type(acc) is not int and acc.denominator == 1:
                terms[key] = acc.numerator
        return Scalar._wrap(terms)

    __rmul__ = __mul__

    def __truediv__(self, other: "Scalar | RationalLike") -> "Scalar":
        return self * Scalar.coerce(other).inv()

    # -- comparisons and hashing --------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Scalar.rational(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        # a rational scalar hashes like the number it equals
        terms = self._terms
        if not terms:
            return hash(0)
        if len(terms) == 1 and (0, PART_ONE) in terms:
            return hash(terms[(0, PART_ONE)])
        return hash(frozenset(terms.items()))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    # -- involutions and evaluation ------------------------------------

    def _galois(self, flip_i: bool, flip_s: bool) -> "Scalar":
        """Field automorphism of Q(i, s) fixing h."""
        terms = {}
        for (hpow, part), coeff in self._terms.items():
            sign = 1
            if flip_i and part in (PART_I, PART_IS):
                sign = -sign
            if flip_s and part in (PART_S, PART_IS):
                sign = -sign
            terms[(hpow, part)] = coeff * sign
        return Scalar._wrap(terms)

    def specialize_h(self, value: RationalLike) -> "Scalar":
        """Substitute a rational number for h; i and s are untouched."""
        value = Fraction(_rational(value))  # a Fraction, so value**-k stays exact
        terms: dict[tuple[int, int], RationalLike] = {}
        for (hpow, part), coeff in self._terms.items():
            if hpow < 0 and value == 0:
                raise ZeroDivisionError("cannot specialize h := 0 on a pole in h")
            key = (0, part)
            terms[key] = terms.get(key, 0) + coeff * value**hpow
        return Scalar(terms)

    def inv(self) -> "Scalar":
        """Multiplicative inverse of h^k * w with w a nonzero element of Q(i, s).

        General Laurent polynomials in h are not invertible in the ring;
        those raise ValueError.
        """
        if not self._terms:
            raise ZeroDivisionError("scalar division by zero")
        hpows = {hpow for (hpow, _part) in self._terms}
        if len(hpows) != 1:
            raise ValueError("scalar is not invertible: mixed powers of h")
        (hpow,) = hpows
        base = self.mul_hpow(-hpow)
        conj_prod = Scalar.one()
        for flip_i, flip_s in ((True, False), (False, True), (True, True)):
            conj_prod = conj_prod * base._galois(flip_i, flip_s)
        norm = base * conj_prod
        norm_terms = norm._terms
        if set(norm_terms) != {(0, PART_ONE)}:
            raise AssertionError("norm of a Q(i,s) element must be rational")
        return conj_prod * Scalar.h(power=-hpow, coeff=Fraction(1, norm_terms[(0, PART_ONE)]))

    # -- inspection -----------------------------------------------------

    def mul_hpow(self, shift: int) -> "Scalar":
        return Scalar._wrap({(hpow + shift, part): c for (hpow, part), c in self._terms.items()})

    def components(self) -> dict[tuple[int, int], Fraction]:
        """The (hpow, part) -> rational table, every value a Fraction.

        Fraction, not the int of the canonical form, so that callers may
        divide the values with ``/`` and stay exact.
        """
        return {key: Fraction(c) for key, c in self._terms.items()}

    # -- serialization ----------------------------------------------------

    def to_json(self) -> list[dict]:
        records = []
        for (hpow, part), coeff in sorted(self._terms.items()):
            records.append(
                {
                    "hpow": hpow,
                    "part": PART_NAMES[part],
                    "num": coeff.numerator,
                    "den": coeff.denominator,
                }
            )
        return records

    @staticmethod
    def from_json(records: Iterable[Mapping]) -> "Scalar":
        terms: dict[tuple[int, int], RationalLike] = {}
        for record in records:
            key = (int(record["hpow"]), _PART_BY_NAME[record["part"]])
            coeff = Fraction(int(record["num"]), int(record["den"]))
            terms[key] = terms.get(key, 0) + coeff
        return Scalar(terms)

    # -- printing -------------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        chunks = []
        for (hpow, part), coeff in sorted(self._terms.items()):
            factors = []
            if hpow == 1:
                factors.append("h")
            elif hpow:
                factors.append(f"h^{hpow}")
            if part == PART_I:
                factors.append("i")
            elif part == PART_S:
                factors.append("s")
            elif part == PART_IS:
                factors.extend(("i", "s"))
            mag = abs(coeff)
            if mag != 1 or not factors:
                factors.insert(0, str(mag))
            body = "*".join(factors)
            if not chunks:
                chunks.append(body if coeff > 0 else f"-{body}")
            else:
                chunks.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(chunks)

    def __repr__(self) -> str:
        return f"Scalar({self})"

