"""Supercommutative polynomial algebra of the flat supercotangent chart.

Functions are polynomials in the even coordinates x^1..x^n, p_1..p_n and
the Grassmann coordinates xi^1..xi^n, with coefficients in the exact
scalar ring of coeff.Scalar.  At the public boundary (the constructor,
``monomial``, ``items``, JSON and printing) a monomial
key is ``(xexp, pexp, xi)``: xexp and pexp are exponent tuples of length
n, xi is a strictly increasing tuple of 1-based indices, and the
coefficient is a Scalar.  Any sign produced by reordering Grassmann
factors is absorbed into the coefficient, so keys are canonical and
equality is structural.

Inside, the term table is flat: one entry per monomial and basis element
h^hpow * {1, i, s, is} of the scalar ring, keyed by one packed int and
holding a canonical rational (an int when integral, otherwise a
Fraction, never zero).  From the low bits up, a key holds:

* part, the basis element of Q(i, s), in 2 bits;
* hpow + H_BIAS in a slot of SLOT_BITS bits from bit H_SHIFT;
* the xi mask, n bits from MASK_SHIFT, bit i-1 set when xi^i is present;
* the n x exponents, then the n p exponents, each in a slot of
  SLOT_BITS bits (``pack``), from ``x_shift(n)`` and ``p_shift(n)``.

So the key of a product of two terms with disjoint words is the sum of
their keys, less H_BIAS in the h slot and with the product's part; a
derivative subtracts one packed key of the same layout, whose h slot and
part are 0 (``derivative_key``), after checking the slot values.  Bits
above the p slots are free: the kernel search keeps its column tag there.

Every stored exponent is below SLOT_LIMIT = 2^(SLOT_BITS-1), and every h
power lies in -H_BIAS..H_BIAS-1, so each slot of a sum of two keys stays
in its slot, and any result past a limit sets the top bit of its slot:
each product tests its result against ``guard_mask`` in one ``&`` and
raises ValueError before it would store it.  ``pack_key``/``unpack_key``
convert at the boundary.

Two loops carry the operator layers.  ``derive_table`` (behind ``partial``
and the single-index ``derive``) applies a whole derivative multi-index to
every term in one pass: an even block lowers each exponent and multiplies
by the falling factorial, an odd block removes its xi indices with the
sign of their positions.  ``gradient`` gives every first derivative of a
table in one pass; the conformal-field builders read their Jacobians and
Hessians from it (``symplectic.jacobian``/``hessian``).
``accumulate`` (behind ``add_product``) adds the product of expanded
``product_rows`` and a table into a caller-owned term table, so a sum of
many products is built in one table instead of one copy per summand;
``__mul__`` is ``add_product`` into a fresh table.  A caller that sums
many products may scale its operands to int values first (``integral``)
and divide the sum back once (``divided``); ``reaches`` tells from the
bitwise or of a table's keys that a derivative leaves nothing of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, lcm, perm
from typing import Iterable, Iterator, Mapping

from .coeff import _PART_MUL, Scalar, _rational

Key = tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]

# _PART_ROWS[p][q] = (rational factor, product part - q) for part_p * part_q:
# adding the second entry to a key with part q gives the product's part.
_PART_ROWS = tuple(tuple((f, part - q) for q, (f, part) in enumerate(row)) for row in _PART_MUL)

SLOT_BITS = 32
SLOT_LIMIT = 1 << (SLOT_BITS - 1)  # every stored exponent is below this
_SLOT_MASK = (1 << SLOT_BITS) - 1
H_SHIFT = 2  # the part takes the two lowest bits of a key
H_BIAS = 1 << (SLOT_BITS - 2)  # h^hpow is stored as hpow + H_BIAS
MASK_SHIFT = H_SHIFT + SLOT_BITS
_H_UNIT = 1 << H_SHIFT
_BIASED = H_BIAS << H_SHIFT  # the h slot of h^0


def term_sort_key(key: Key):
    """Deterministic term order: higher powers of earlier variables first."""
    xexp, pexp, xi = key
    return (tuple(-e for e in xexp), tuple(-e for e in pexp), xi)


@dataclass(frozen=True)
class Signature:
    """Flat pseudo-Euclidean signature (p, q): eta = diag(+1 x p, -1 x q)."""

    p: int
    q: int

    def __post_init__(self):
        if self.p < 0 or self.q < 0 or self.p + self.q < 1:
            raise ValueError(f"invalid signature ({self.p},{self.q})")

    @property
    def n(self) -> int:
        return self.p + self.q

    def eta(self, i: int, j: int | None = None) -> int:
        """Metric entry eta_ij (equal to the inverse metric entry)."""
        if j is not None and j != i:
            return 0
        if not 1 <= i <= self.n:
            raise IndexError(f"index {i} out of range 1..{self.n}")
        return 1 if i <= self.p else -1


# -- packed keys ------------------------------------------------------------------


def pack(exps: Iterable[int]) -> int:
    """Exponent tuple -> packed int; raises ValueError on a bad or too large exponent."""
    packed = 0
    for k, e in enumerate(exps):
        if type(e) is not int or not 0 <= e < SLOT_LIMIT:
            raise ValueError(f"exponent {e!r} is not an int in 0..{SLOT_LIMIT - 1}")
        packed |= e << (SLOT_BITS * k)
    return packed


def unpack(packed: int, n: int) -> tuple[int, ...]:
    return tuple(packed >> (SLOT_BITS * k) & _SLOT_MASK for k in range(n))


def slot_sum(packed: int) -> int:
    """Total degree of a packed exponent vector."""
    total = 0
    while packed:
        total += packed & _SLOT_MASK
        packed >>= SLOT_BITS
    return total


def x_shift(n: int) -> int:
    """The bit at which the x slots of a packed key start."""
    return MASK_SHIFT + n


def p_shift(n: int) -> int:
    """The bit at which the p slots of a packed key start."""
    return MASK_SHIFT + n + SLOT_BITS * n


@lru_cache(maxsize=None)
def mask_field(n: int) -> int:
    """The xi-mask bits of a packed key."""
    return ((1 << n) - 1) << MASK_SHIFT


def _h_field(hpow: int) -> int:
    """The h slot of h^hpow; ValueError outside -H_BIAS..H_BIAS-1."""
    if not -H_BIAS <= hpow < H_BIAS:
        raise ValueError(f"h power {hpow} is outside {-H_BIAS}..{H_BIAS - 1}")
    return (hpow + H_BIAS) << H_SHIFT


def derivative_key(n: int, mask: int, xp: int, pp: int) -> int:
    """A xi mask and packed x and p exponents at their places in a key; h slot and part 0."""
    xs = MASK_SHIFT + n
    return mask << MASK_SHIFT | xp << xs | pp << (xs + SLOT_BITS * n)


def derivative_fields(key: int, n: int) -> tuple[int, int, int]:
    """(mask, packed x, packed p) of a key; the inverse of ``derivative_key``."""
    xs, slots = MASK_SHIFT + n, (1 << SLOT_BITS * n) - 1
    return key >> MASK_SHIFT & ((1 << n) - 1), key >> xs & slots, key >> (xs + SLOT_BITS * n) & slots


def pack_key(n: int, xp: int, pp: int, mask: int, hpow: int = 0, part: int = 0) -> int:
    """The key of the term h^hpow part x^xp p^pp xi^mask, exponents packed."""
    return derivative_key(n, mask, xp, pp) | _h_field(hpow) | part


def unpack_key(key: int, n: int) -> tuple[int, int, int, int, int]:
    """(packed x, packed p, mask, hpow, part) of a key; bits above the p slots are ignored."""
    mask, xp, pp = derivative_fields(key, n)
    return xp, pp, mask, (key >> H_SHIFT & _SLOT_MASK) - H_BIAS, key & 3


@lru_cache(maxsize=None)
def guard_mask(n: int) -> int:
    """The top bit of the h slot and of each x and p slot: set in a sum only past a limit."""
    top = SLOT_BITS - 1
    xs = MASK_SHIFT + n
    return 1 << (H_SHIFT + top) | sum(1 << (xs + SLOT_BITS * k + top) for k in range(2 * n))


def _overflow() -> ValueError:
    return ValueError(
        f"exponent reaches the slot limit {SLOT_LIMIT} of the packed term table,"
        f" or an h power leaves {-H_BIAS}..{H_BIAS - 1}"
    )


def xi_mask(word: Iterable[int]) -> int:
    mask = 0
    for i in word:
        mask |= 1 << (i - 1)
    return mask


def xi_word(mask: int) -> tuple[int, ...]:
    return tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


@lru_cache(maxsize=None)
def _odd_above(mask: int) -> int:
    """Bit b is set when mask has an odd number of bits above b.

    For disjoint words, xi^left xi^right = (-1)^k xi^(left | right) with
    k = popcount(right & _odd_above(left)): each right factor moves past
    the left factors above it.
    """
    out, odd = 0, 0
    for b in range(mask.bit_length() - 1, -1, -1):
        if odd:
            out |= 1 << b
        odd ^= mask >> b & 1
    return out


def sort_xi_word(word: Iterable[int]) -> tuple[int, tuple[int, ...]] | None:
    """Canonicalize an arbitrary product of xi factors; None when repeated."""
    word = list(word)
    sign = 1
    # insertion sort, counting transpositions
    for i in range(1, len(word)):
        j = i
        while j > 0 and word[j - 1] > word[j]:
            word[j - 1], word[j] = word[j], word[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(word, word[1:]):
        if a == b:
            return None
    return sign, tuple(word)


def denominator(values, d: int = 1) -> int:
    """The least common multiple of d and the denominators of canonical rationals."""
    for v in values:
        if type(v) is not int:
            d = lcm(d, v.denominator)
    return d


def integral(table: dict) -> tuple[dict, int]:
    """(d * table, d) with d the least common multiple of the table's denominators:
    a table of int values.  Sums of such products run in int arithmetic, and
    ``divided`` brings them back."""
    d = denominator(table.values())
    if d == 1:
        return table, 1
    return {key: v.numerator * (d // v.denominator) if type(v) is not int else v * d
            for key, v in table.items()}, d


def divided(terms: dict, d: int) -> dict:
    """Divide every value of a table by d in place; values stay canonical."""
    if d != 1:
        for key, v in terms.items():
            terms[key] = v // d if v % d == 0 else Fraction(v, d)
    return terms


def add_term(terms: dict, key: tuple, value) -> None:
    """Add a canonical nonzero rational at key of a flat table; a cancelled key is removed."""
    acc = terms.get(key)
    if acc is None:
        terms[key] = value
        return
    acc += value
    if not acc:
        del terms[key]
    elif type(acc) is not int and acc.denominator == 1:
        terms[key] = acc.numerator
    else:
        terms[key] = acc


class SuperPolynomial:
    """Sparse polynomial in (x, p, xi) over the exact scalar ring."""

    __slots__ = ("n", "_terms")

    def __init__(self, n: int, terms: Mapping[Key, Scalar] | None = None):
        if n < 1:
            raise ValueError("dimension must be >= 1")
        self.n = n
        table: dict = {}
        if terms:
            for key, coeff in terms.items():
                _check_key(key, n)
                xexp, pexp, xi = key
                head = derivative_key(n, xi_mask(xi), pack(xexp), pack(pexp))
                for (hpow, part), c in Scalar.coerce(coeff)._terms.items():
                    table[head | _h_field(hpow) | part] = c
        self._terms = table

    @staticmethod
    def _wrap(n: int, terms: dict) -> "SuperPolynomial":
        """A polynomial over a flat table that holds no zero and only canonical values."""
        out = SuperPolynomial.__new__(SuperPolynomial)
        out.n = n
        out._terms = terms
        return out

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(n: int) -> "SuperPolynomial":
        return SuperPolynomial(n)

    @staticmethod
    def constant(n: int, value: Scalar | int | Fraction) -> "SuperPolynomial":
        return SuperPolynomial.monomial(n, coeff=value)

    @staticmethod
    def one(n: int) -> "SuperPolynomial":
        return SuperPolynomial.constant(n, 1)

    @staticmethod
    def monomial(
        n: int,
        xexp: Iterable[int] = (),
        pexp: Iterable[int] = (),
        xi: Iterable[int] = (),
        coeff: Scalar | int | Fraction = 1,
    ) -> "SuperPolynomial":
        if n < 1:
            raise ValueError("dimension must be >= 1")
        xexp = tuple(xexp) or (0,) * n
        pexp = tuple(pexp) or (0,) * n
        if len(xexp) != n or len(pexp) != n:
            raise ValueError("exponent tuples must have length n")
        xp, pp = pack(xexp), pack(pexp)
        sorted_word = sort_xi_word(xi)
        if sorted_word is None:
            return SuperPolynomial.zero(n)
        sign, word = sorted_word
        if word and not (1 <= word[0] and word[-1] <= n):
            raise IndexError(f"xi index out of range 1..{n}")
        head = derivative_key(n, xi_mask(word), xp, pp)
        if type(coeff) is int:  # the common case: no Scalar to build
            terms = {(0, 0): coeff} if coeff else {}
        else:
            terms = Scalar.coerce(coeff)._terms
        return SuperPolynomial._wrap(n, {
            head | _h_field(hpow) | part: (c if sign > 0 else -c) for (hpow, part), c in terms.items()
        })

    @staticmethod
    def var_x(n: int, i: int) -> "SuperPolynomial":
        _check_index(i, n)
        return SuperPolynomial._wrap(n, {_BIASED | 1 << (x_shift(n) + SLOT_BITS * (i - 1)): 1})

    @staticmethod
    def var_p(n: int, i: int) -> "SuperPolynomial":
        _check_index(i, n)
        return SuperPolynomial._wrap(n, {_BIASED | 1 << (p_shift(n) + SLOT_BITS * (i - 1)): 1})

    @staticmethod
    def var_xi(n: int, i: int) -> "SuperPolynomial":
        _check_index(i, n)
        return SuperPolynomial._wrap(n, {_BIASED | 1 << (MASK_SHIFT + i - 1): 1})

    # -- linear structure ----------------------------------------------

    def _binop(self, other: "SuperPolynomial", negate: bool) -> "SuperPolynomial":
        if not isinstance(other, SuperPolynomial):
            return NotImplemented
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")
        terms = dict(self._terms)
        get = terms.get
        for key, c in other._terms.items():
            acc = get(key)
            if acc is None:
                terms[key] = -c if negate else c
                continue
            acc = acc - c if negate else acc + c
            if not acc:
                del terms[key]
            elif type(acc) is not int and acc.denominator == 1:
                terms[key] = acc.numerator
            else:
                terms[key] = acc
        return SuperPolynomial._wrap(self.n, terms)

    def __add__(self, other: "SuperPolynomial") -> "SuperPolynomial":
        return self._binop(other, negate=False)

    def __sub__(self, other: "SuperPolynomial") -> "SuperPolynomial":
        return self._binop(other, negate=True)

    def __neg__(self) -> "SuperPolynomial":
        return SuperPolynomial._wrap(self.n, {k: -c for k, c in self._terms.items()})

    def scale(self, factor: Scalar | int | Fraction) -> "SuperPolynomial":
        # the scalar ring has no zero divisors: a nonzero factor keeps every term
        if not factor:
            return SuperPolynomial(self.n)
        if type(factor) is not Scalar:
            factor = _rational(factor)
            if factor == 1:
                return self
            terms = {}
            for key, c in self._terms.items():
                c = c * factor
                terms[key] = c.numerator if type(c) is not int and c.denominator == 1 else c
            return SuperPolynomial._wrap(self.n, terms)
        terms: dict = {}
        add_product(terms, self, SuperPolynomial.one(self.n), factor)
        return SuperPolynomial._wrap(self.n, terms)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            return self.scale(other)
        if not isinstance(other, SuperPolynomial):
            return NotImplemented
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")
        terms: dict = {}
        if self._terms and other._terms:
            add_product(terms, self, other)
        return SuperPolynomial._wrap(self.n, terms)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            return self.scale(other)
        return NotImplemented

    # -- derivations ----------------------------------------------------

    def derive(self, kind: str, index: int) -> "SuperPolynomial":
        """Left partial derivative with respect to x^i, p_i or xi^i: ``derive_table``
        with a one-index plan."""
        n = self.n
        _check_index(index, n)
        if kind == "x":
            key = 1 << (x_shift(n) + SLOT_BITS * (index - 1))
        elif kind == "p":
            key = 1 << (p_shift(n) + SLOT_BITS * (index - 1))
        elif kind == "xi":
            key = 1 << (MASK_SHIFT + index - 1)
        else:
            raise ValueError(f"unknown variable kind {kind!r}")
        return SuperPolynomial._wrap(n, derive_table(self._terms, _derivative_plan(n, key)))

    def partial(
        self,
        dx: tuple[int, ...] = (),
        dp: tuple[int, ...] = (),
        dxi: tuple[int, ...] = (),
    ) -> "SuperPolynomial":
        """Apply dxi^I dx^a dp^b in one pass; dxi is a word in any order.

        d_xi^(i1,..,ik) is d_{xi^i1} o ... o d_{xi^ik}.  The xi derivatives
        anticommute, so a repeated index gives zero and a word is sorted
        with the sign of its permutation.  Removing the sorted indices
        from the largest down leaves the position of each smaller one
        unchanged, so the sign is (-1)^(sum of their slots in the word).
        An empty multi-index is no derivative.  A multi-index of another
        length, or an index outside 1..n, is refused: packed, it would
        reach the slots of other variables.
        """
        n = self.n
        if len(dx) not in (0, n) or len(dp) not in (0, n):
            raise ValueError("derivative multi-indices must have length n")
        for i in dxi:
            _check_index(i, n)
        sorted_word = sort_xi_word(dxi)
        if sorted_word is None:
            return SuperPolynomial.zero(n)
        sign, dxi = sorted_word
        plan = _derivative_plan(n, derivative_key(n, xi_mask(dxi), pack(dx), pack(dp)))
        if plan is None:
            return self
        out = SuperPolynomial._wrap(n, derive_table(self._terms, plan))
        return out if sign > 0 else -out

    # -- grading ---------------------------------------------------------

    def parity(self) -> int:
        """Z2-parity; raises on a non-homogeneous polynomial."""
        field = mask_field(self.n)
        parities = {(key & field).bit_count() & 1 for key in self._terms}
        if not parities:
            return 0
        if len(parities) > 1:
            raise ValueError("polynomial is not parity-homogeneous")
        return parities.pop()

    def _degrees(self):
        """(key, degree in p, degree in xi) per term."""
        n = self.n
        ps, field, slots = p_shift(n), mask_field(n), (1 << SLOT_BITS * n) - 1
        return ((key, slot_sum(key >> ps & slots), (key & field).bit_count()) for key in self._terms)

    def bidegrees(self) -> set[tuple[int, int]]:
        """Set of (degree in p, degree in xi) with nonzero components."""
        return {(k, kappa) for _key, k, kappa in self._degrees()}

    def bidegree_component(self, k: int, kappa: int) -> "SuperPolynomial":
        terms = self._terms
        return SuperPolynomial._wrap(self.n, {
            key: terms[key] for key, kp, kap in self._degrees() if kp == k and kap == kappa
        })

    def hamiltonian_components(self) -> dict[int, "SuperPolynomial"]:
        """Split by Hamiltonian degree 2k + kappa (k in p, kappa in xi)."""
        buckets: dict[int, dict] = {}
        terms = self._terms
        for key, k, kappa in self._degrees():
            buckets.setdefault(2 * k + kappa, {})[key] = terms[key]
        return {d: SuperPolynomial._wrap(self.n, t) for d, t in sorted(buckets.items())}

    def x_degree(self) -> int:
        xs, slots = x_shift(self.n), (1 << SLOT_BITS * self.n) - 1
        return max((slot_sum(key >> xs & slots) for key in self._terms), default=0)

    def is_even_free(self) -> bool:
        xs = x_shift(self.n)
        return all(not key >> xs for key in self._terms)

    # -- access ------------------------------------------------------------

    def _grouped(self) -> list[tuple[Key, Scalar]]:
        """The terms as (tuple key, Scalar) pairs in term order."""
        n = self.n
        groups: dict = {}
        for key, c in self._terms.items():
            groups.setdefault(key >> MASK_SHIFT << MASK_SHIFT, {})[
                ((key >> H_SHIFT & _SLOT_MASK) - H_BIAS, key & 3)] = c
        out = []
        for head, parts in groups.items():
            mask, xp, pp = derivative_fields(head, n)
            out.append(((unpack(xp, n), unpack(pp, n), xi_word(mask)), Scalar._wrap(parts)))
        out.sort(key=lambda kv: term_sort_key(kv[0]))
        return out

    def items(self) -> Iterator[tuple[Key, Scalar]]:
        return iter(self._grouped())

    def __len__(self) -> int:
        """The number of monomials with a nonzero coefficient."""
        return len({key >> MASK_SHIFT for key in self._terms})

    def __bool__(self) -> bool:
        return bool(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SuperPolynomial):
            return NotImplemented
        return self.n == other.n and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self.n, frozenset(self._terms.items())))

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "terms": [
                {
                    "x": list(key[0]),
                    "p": list(key[1]),
                    "xi": list(key[2]),
                    "coeff": coeff.to_json(),
                }
                for key, coeff in self._grouped()
            ],
        }

    @staticmethod
    def from_json(data: Mapping) -> "SuperPolynomial":
        """Inverse of to_json in one pass; records with equal monomials accumulate."""
        n = int(data["n"])
        if n < 1:
            raise ValueError("dimension must be >= 1")
        terms: dict = {}
        for record in data["terms"]:
            term = SuperPolynomial.monomial(
                n,
                xexp=tuple(int(e) for e in record["x"]),
                pexp=tuple(int(e) for e in record["p"]),
                xi=tuple(int(i) for i in record["xi"]),
                coeff=Scalar.from_json(record["coeff"]),
            )
            for key, c in term._terms.items():
                add_term(terms, key, c)
        return SuperPolynomial._wrap(n, terms)

    # -- printing -------------------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        rendered = [_render_term(key, coeff) for key, coeff in self._grouped()]
        first_neg, first_body = rendered[0]
        out = [f"-{first_body}" if first_neg else first_body]
        for negative, body in rendered[1:]:
            out.append(f"- {body}" if negative else f"+ {body}")
        return " ".join(out)

    def __repr__(self) -> str:
        return f"SuperPolynomial(n={self.n}, {self})"


def add_product(
    terms: dict,
    left: SuperPolynomial,
    right: SuperPolynomial,
    factor: Scalar | int | Fraction = 1,
) -> None:
    """Add factor * left * right into the flat table ``terms`` in place.

    Cancelled keys are removed and every stored value stays canonical.
    A Scalar factor is expanded once, into its basis elements.
    """
    if not factor:
        return
    accumulate(terms, product_rows(left._terms, left.n, factor), right._terms.items(), guard_mask(left.n))


def product_rows(table: dict, n: int, factor: Scalar | int | Fraction = 1) -> list[tuple]:
    """factor * table as the left operand of ``accumulate``, one row per term and basis
    element: (mask bits, odd-above mask bits, parts, value).  parts[q] is (rational
    factor, row key) for a right term of part q, whose key plus the row key is the key
    of the product: the row term's key less H_BIAS, with the part of the product."""
    if type(factor) is Scalar:  # (h slot shift, part, rational) per basis element
        factors = []
        for (fh, fq), fc in factor._terms.items():
            if not -H_BIAS <= fh < H_BIAS:
                raise _overflow()
            factors.append(((fh << H_SHIFT) - _BIASED, fq, fc))
    else:
        factors = ((-_BIASED, 0, _rational(factor)),)
    field = mask_field(n)
    rows = []
    for k1, c1 in table.items():
        m1 = k1 & field
        odd1 = _odd_above(m1) & field if m1 else 0
        q1 = k1 & 3
        for shift, fq, fc in factors:
            f1, q = _PART_MUL[q1][fq]
            a = c1 * fc * f1 if fc != 1 or f1 != 1 else c1
            if type(a) is not int and a.denominator == 1:
                a = a.numerator
            base = k1 + (shift - q1)
            if q:
                (e0, d0), (e1, d1), (e2, d2), (e3, d3) = _PART_ROWS[q]
                parts = ((e0, base + d0), (e1, base + d1), (e2, base + d2), (e3, base + d3))
            else:  # the part 1 keeps every part: one entry serves all four
                parts = ((1, base),) * 4
            rows.append((m1, odd1, parts, a))
    return rows


def accumulate(terms: dict, rows: list[tuple], right_items, guard: int) -> None:
    """The product loop: add rows * right into ``terms``; guard is ``guard_mask(n)``.

    Only a key new to ``terms`` is tested against the guard: a key past a
    limit has the top bit of some slot set, so it is never equal to a
    stored key.
    """
    get = terms.get
    for m1, odd1, parts, a in rows:
        for k2, c2 in right_items:
            if k2 & m1:
                continue
            f, base = parts[k2 & 3]
            key = base + k2
            c = a * c2 if f == 1 else a * c2 * f
            if odd1 and (k2 & odd1).bit_count() & 1:
                c = -c
            acc = get(key)
            if acc is None:
                if key & guard:
                    raise _overflow()
            else:
                c = acc + c
                if not c:
                    del terms[key]
                    continue
            if type(c) is not int and c.denominator == 1:
                c = c.numerator
            terms[key] = c


@lru_cache(maxsize=None)
def _derivative_plan(n: int, key: int):
    """The derivative dxi^I dx^a dp^b of a ``derivative_key`` as ``derive_table`` reads it;
    None for no derivative.

    Gives (slots, key, mask bits of I, sign bits): a slot is (bit shift in a
    key, order) for each nonzero order of a and b, and the parity of
    popcount(term key & sign bits) is that of the slots of I in the word.
    """
    if not key:
        return None
    xs = MASK_SHIFT + n
    orders = key >> xs
    slots = tuple(
        (xs + s, e) for s in range(0, orders.bit_length(), SLOT_BITS) if (e := orders >> s & _SLOT_MASK)
    )
    dmask = key & mask_field(n)
    return slots, key, dmask, _odd_above(dmask) & mask_field(n)


def reaches(plan: tuple, support: int) -> bool:
    """False when no term of a table whose keys, or-ed together, give support survives
    the plan: each exponent is at most its slot of support, bit by bit."""
    slots, _key, dmask, _below = plan
    if support & dmask != dmask:
        return False
    for shift, a in slots:
        if support >> shift & _SLOT_MASK < a:
            return False
    return True


def derive_table(table: dict, plan: tuple) -> dict:
    """The derivative loop: the flat table of a ``_derivative_plan`` applied to ``table``, in
    its term order; distinct monomials stay distinct, so no two terms merge or cancel."""
    slots, delta, dmask, below = plan
    terms: dict = {}
    for key, c in table.items():
        if key & dmask != dmask:
            continue
        factor = _falling(key, slots) if slots else 1
        if not factor:
            continue
        if dmask and (key & below).bit_count() & 1:
            factor = -factor
        if factor != 1:
            c = c * factor
            if type(c) is not int and c.denominator == 1:
                c = c.numerator
        terms[key - delta] = c
    return terms


def gradient(table: dict, n: int) -> dict[int, dict]:
    """Every nonzero first derivative of a flat table, in one pass.

    The derivative by x^i, p_i or xi^i is the table ``derive`` gives, in
    the same term order, stored under 3(i-1) plus 0, 1 or 2 respectively.
    """
    out: dict[int, dict] = {}
    xs, nm = MASK_SHIFT + n, (1 << n) - 1
    for key, c in table.items():
        rest, unit, slot = key >> xs, 1 << xs, 0  # the x slots, then the p slots
        while rest and slot < 2 * n:
            e = rest & _SLOT_MASK
            if e:
                v = c if e == 1 else c * e
                if type(v) is not int and v.denominator == 1:
                    v = v.numerator
                out.setdefault(3 * (slot % n) + slot // n, {})[key - unit] = v
            rest >>= SLOT_BITS
            unit <<= SLOT_BITS
            slot += 1
        m = key >> MASK_SHIFT & nm
        odd = False
        for i in range(m.bit_length()):
            if m >> i & 1:
                out.setdefault(3 * i + 2, {})[key - (1 << (MASK_SHIFT + i))] = -c if odd else c
                odd = not odd
    return out


def _falling(key: int, slots: tuple) -> int:
    """prod e!/(e - a)! over the (shift, a) slots of a key; 0 if some e < a."""
    factor = 1
    for shift, a in slots:
        e = key >> shift & _SLOT_MASK
        if e < a:
            return 0
        factor *= e if a == 1 else perm(e, a)
    return factor


def _slot_leibniz(d: int, e: int) -> list:
    """(e - d + g, g, prod C(d, g) e!/(e - d + g)!), packed, for the g <= d with d - g <= e,
    in lexicographic order of g with slot 0 most significant, so g = 0 comes first."""
    out, shift = [(e, 0, 1)], 0
    while d:
        a, top = d & _SLOT_MASK, e >> shift & _SLOT_MASK
        if a:
            out = [
                (rest - ((a - g) << shift), gain + (g << shift), f * comb(a, g) * perm(top, a - g))
                for rest, gain, f in out for g in range(max(0, a - top), a + 1)
            ]
        d >>= SLOT_BITS
        shift += SLOT_BITS
    return out


def _check_key(key, n: int) -> None:
    """Reject a monomial key that is not (xexp, pexp, xi) in canonical form."""
    if not (isinstance(key, tuple) and len(key) == 3):
        raise ValueError(f"monomial key {key!r} is not (xexp, pexp, xi)")
    xexp, pexp, xi = key
    for exp in (xexp, pexp):
        if not (isinstance(exp, tuple) and len(exp) == n
                and all(type(e) is int and 0 <= e < SLOT_LIMIT for e in exp)):
            raise ValueError(f"exponents {exp!r} must be a tuple of {n} ints in 0..{SLOT_LIMIT - 1}")
    if not (isinstance(xi, tuple) and all(type(i) is int for i in xi)
            and list(xi) == sorted(set(xi)) and set(xi) <= set(range(1, n + 1))):
        raise ValueError(f"xi word {xi!r} must be strictly increasing within 1..{n}")


def _check_index(index: int, n: int) -> None:
    if not 1 <= index <= n:
        raise IndexError(f"index {index} out of range 1..{n}")


def _render_term(key: Key, coeff: Scalar) -> tuple[bool, str]:
    """Return (is_negative, body) for one monomial, parser-compatible."""
    xexp, pexp, xi = key
    factors = []
    for pos, e in enumerate(xexp):
        if e == 1:
            factors.append(f"x{pos + 1}")
        elif e:
            factors.append(f"x{pos + 1}^{e}")
    for pos, e in enumerate(pexp):
        if e == 1:
            factors.append(f"p{pos + 1}")
        elif e:
            factors.append(f"p{pos + 1}^{e}")
    factors.extend(f"xi{i}" for i in xi)

    parts = coeff.components()
    if len(parts) == 1:
        ((hpow, part), value) = next(iter(parts.items()))
        negative = value < 0
        mag_str = str(Scalar({(hpow, part): abs(value)}))
        if mag_str == "1" and factors:
            return negative, "*".join(factors)
        if factors:
            return negative, "*".join([mag_str] + factors)
        return negative, mag_str
    body = f"({coeff})"
    if factors:
        body += "*" + "*".join(factors)
    return False, body
