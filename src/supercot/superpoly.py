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
of the scalar ring, ``(xp, pp, mask, hpow, part) -> rational``.

* xp and pp pack the exponent tuples into one int each, slot k at bits
  [SLOT_BITS*k, SLOT_BITS*(k+1)); adding two packed keys adds the
  exponents slot by slot.
* mask has bit i-1 set when xi^i is present.
* (hpow, part) is the basis element h^hpow * {1, i, s, is} of the
  Scalar ring, and the value is canonical as in coeff: an int when
  integral, otherwise a Fraction, never zero.

Every stored exponent is below SLOT_LIMIT = 2^(SLOT_BITS-1), so the sum
of two packed keys never carries from one slot into the next; each
product tests the top bit of every slot of its result (``guard_mask``)
and raises ValueError before it would store an exponent at the limit.

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
``__mul__`` is ``add_product`` into a fresh table.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, perm
from typing import Iterable, Iterator, Mapping

from .coeff import _PART_MUL, Scalar, _rational

Key = tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]

SLOT_BITS = 32
SLOT_LIMIT = 1 << (SLOT_BITS - 1)  # every stored exponent is below this
_SLOT_MASK = (1 << SLOT_BITS) - 1


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


@lru_cache(maxsize=None)
def guard_mask(n: int) -> int:
    """The top bit of each of the n slots: set in a sum only at or above SLOT_LIMIT."""
    return sum(1 << (SLOT_BITS * k + SLOT_BITS - 1) for k in range(n))


def _overflow() -> ValueError:
    return ValueError(f"exponent reaches the slot limit {SLOT_LIMIT} of the packed term table")


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


def _factor_terms(factor: Scalar | int | Fraction) -> tuple:
    """((hpow, part), rational) pairs of a nonzero factor, canonical rationals."""
    if type(factor) is Scalar:
        return tuple(factor._terms.items())
    return (((0, 0), _rational(factor)),)


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
                head = (pack(xexp), pack(pexp), xi_mask(xi))
                for basis, c in Scalar.coerce(coeff)._terms.items():
                    table[head + basis] = c
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
        head = (pack(xexp), pack(pexp))
        sorted_word = sort_xi_word(xi)
        if sorted_word is None:
            return SuperPolynomial.zero(n)
        sign, word = sorted_word
        if word and not (1 <= word[0] and word[-1] <= n):
            raise IndexError(f"xi index out of range 1..{n}")
        head += (xi_mask(word),)
        if type(coeff) is int:  # the common case: no Scalar to build
            terms = {(0, 0): coeff} if coeff else {}
        else:
            terms = Scalar.coerce(coeff)._terms
        return SuperPolynomial._wrap(
            n, {head + basis: (c if sign > 0 else -c) for basis, c in terms.items()}
        )

    @staticmethod
    def var_x(n: int, i: int) -> "SuperPolynomial":
        _check_index(i, n)
        return SuperPolynomial._wrap(n, {(1 << SLOT_BITS * (i - 1), 0, 0, 0, 0): 1})

    @staticmethod
    def var_p(n: int, i: int) -> "SuperPolynomial":
        _check_index(i, n)
        return SuperPolynomial._wrap(n, {(0, 1 << SLOT_BITS * (i - 1), 0, 0, 0): 1})

    @staticmethod
    def var_xi(n: int, i: int) -> "SuperPolynomial":
        _check_index(i, n)
        return SuperPolynomial._wrap(n, {(0, 0, 1 << (i - 1), 0, 0): 1})

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
        _check_index(index, self.n)
        unit = 1 << SLOT_BITS * (index - 1)
        if kind == "x":
            plan = _derivative_plan(0, unit, 0)
        elif kind == "p":
            plan = _derivative_plan(0, 0, unit)
        elif kind == "xi":
            plan = _derivative_plan(1 << index - 1, 0, 0)
        else:
            raise ValueError(f"unknown variable kind {kind!r}")
        return SuperPolynomial._wrap(self.n, derive_table(self._terms, plan))

    def partial(
        self,
        dx: tuple[int, ...] = (),
        dp: tuple[int, ...] = (),
        dxi: tuple[int, ...] = (),
    ) -> "SuperPolynomial":
        """Apply dxi^I dx^a dp^b in one pass; dxi is a strictly increasing word.

        d_xi^(i1,..,ik) is d_{xi^i1} o ... o d_{xi^ik}.  Removing its
        indices from the largest down leaves the position of each smaller
        one unchanged, so the sign is (-1)^(sum of their slots in the
        word).  An empty multi-index is no derivative.
        """
        plan = _derivative_plan(xi_mask(dxi), pack(dx), pack(dp))
        if plan is None:
            return self
        return SuperPolynomial._wrap(self.n, derive_table(self._terms, plan))

    # -- grading ---------------------------------------------------------

    def parity(self) -> int:
        """Z2-parity; raises on a non-homogeneous polynomial."""
        parities = {key[2].bit_count() & 1 for key in self._terms}
        if not parities:
            return 0
        if len(parities) > 1:
            raise ValueError("polynomial is not parity-homogeneous")
        return parities.pop()

    def bidegrees(self) -> set[tuple[int, int]]:
        """Set of (degree in p, degree in xi) with nonzero components."""
        return {(slot_sum(key[1]), key[2].bit_count()) for key in self._terms}

    def bidegree_component(self, k: int, kappa: int) -> "SuperPolynomial":
        return SuperPolynomial._wrap(self.n, {
            key: c for key, c in self._terms.items()
            if slot_sum(key[1]) == k and key[2].bit_count() == kappa
        })

    def hamiltonian_components(self) -> dict[int, "SuperPolynomial"]:
        """Split by Hamiltonian degree 2k + kappa (k in p, kappa in xi)."""
        buckets: dict[int, dict] = {}
        for key, c in self._terms.items():
            degree = 2 * slot_sum(key[1]) + key[2].bit_count()
            buckets.setdefault(degree, {})[key] = c
        return {d: SuperPolynomial._wrap(self.n, t) for d, t in sorted(buckets.items())}

    def x_degree(self) -> int:
        return max((slot_sum(key[0]) for key in self._terms), default=0)

    def is_even_free(self) -> bool:
        return all(not key[0] and not key[1] for key in self._terms)

    # -- access ------------------------------------------------------------

    def _grouped(self) -> list[tuple[Key, Scalar]]:
        """The terms as (tuple key, Scalar) pairs in term order."""
        n = self.n
        groups: dict = {}
        for (xp, pp, m, h, q), c in self._terms.items():
            groups.setdefault((xp, pp, m), {})[(h, q)] = c
        out = [
            ((unpack(xp, n), unpack(pp, n), xi_word(m)), Scalar._wrap(parts))
            for (xp, pp, m), parts in groups.items()
        ]
        out.sort(key=lambda kv: term_sort_key(kv[0]))
        return out

    def items(self) -> Iterator[tuple[Key, Scalar]]:
        return iter(self._grouped())

    def __len__(self) -> int:
        """The number of monomials with a nonzero coefficient."""
        return len({key[:3] for key in self._terms})

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
    accumulate(terms, product_rows(left._terms, factor), right._terms.items(), guard_mask(left.n))


def product_rows(table: dict, factor: Scalar | int | Fraction = 1) -> list[tuple]:
    """factor * table as the left operand of ``accumulate``, one row per term and
    basis element: (xp, pp, mask, odd-above mask, hpow, row of _PART_MUL, value)."""
    factors = _factor_terms(factor)
    rows = []
    for (x1, p1, m1, h1, q1), c1 in table.items():
        odd1 = _odd_above(m1) if m1 else 0
        for (fh, fq), fc in factors:
            f1, q = _PART_MUL[q1][fq]
            a = c1 * fc * f1 if fc != 1 or f1 != 1 else c1
            rows.append((x1, p1, m1, odd1, h1 + fh, _PART_MUL[q], a))
    return rows


def accumulate(terms: dict, rows: list[tuple], right_items, guard: int) -> None:
    """The product loop: add rows * right into ``terms``; guard is ``guard_mask(n)``."""
    get = terms.get
    for x1, p1, m1, odd1, h, row, a in rows:
        for (x2, p2, m2, h2, q2), c2 in right_items:
            if m1 & m2:
                continue
            xp = x1 + x2
            pp = p1 + p2
            if (xp | pp) & guard:
                raise _overflow()
            f, part = row[q2]
            c = a * c2 if f == 1 else a * c2 * f
            if odd1 and (m2 & odd1).bit_count() & 1:
                c = -c
            key = (xp, pp, m1 | m2, h + h2, part)
            acc = get(key)
            if acc is not None:
                c = acc + c
                if not c:
                    del terms[key]
                    continue
            if type(c) is not int and c.denominator == 1:
                c = c.numerator
            terms[key] = c


@lru_cache(maxsize=None)
def _derivative_plan(dmask: int, dxp: int, dpp: int):
    """Packed form of dxi^I dx^a dp^b for ``derive_table``; None for no derivative.

    Takes the mask of I and packed a and b, and gives (x slots, packed a,
    p slots, packed b, mask of I, sign mask): a slot is (bit shift, order)
    for each nonzero order, and the parity of popcount(word & sign mask)
    is that of the slots of I in the word.
    """
    if not (dxp or dpp or dmask):
        return None
    xs, ps = (
        tuple((s, e) for s in range(0, v.bit_length(), SLOT_BITS) if (e := v >> s & _SLOT_MASK))
        for v in (dxp, dpp)
    )
    return xs, dxp, ps, dpp, dmask, _odd_above(dmask)


def derive_table(table: dict, plan: tuple) -> dict:
    """The derivative loop: the flat table of a ``_derivative_plan`` applied to ``table``, in
    its term order; distinct monomials stay distinct, so no two terms merge or cancel."""
    xs, dxp, ps, dpp, dmask, below = plan
    terms: dict = {}
    for (xp, pp, m, h, q), c in table.items():
        if m & dmask != dmask:
            continue
        factor = 1
        if xs:
            factor = _falling(xp, xs)
            if not factor:
                continue
            xp -= dxp
        if ps:
            pfactor = _falling(pp, ps)
            if not pfactor:
                continue
            factor *= pfactor
            pp -= dpp
        if dmask:
            if (m & below).bit_count() & 1:
                factor = -factor
            m ^= dmask
        c = c * factor
        if type(c) is not int and c.denominator == 1:
            c = c.numerator
        terms[(xp, pp, m, h, q)] = c
    return terms


def gradient(table: dict) -> dict[int, dict]:
    """Every nonzero first derivative of a flat table, in one pass.

    The derivative by x^i, p_i or xi^i is the table ``derive`` gives, in
    the same term order, stored under 3(i-1) plus 0, 1 or 2 respectively.
    """
    out: dict[int, dict] = {}
    for (xp, pp, m, h, q), c in table.items():
        for on_x, code, rest in ((True, 0, xp), (False, 1, pp)):
            unit = 1
            while rest:
                e = rest & _SLOT_MASK
                if e:
                    v = c if e == 1 else c * e
                    if type(v) is not int and v.denominator == 1:
                        v = v.numerator
                    key = (xp - unit, pp, m, h, q) if on_x else (xp, pp - unit, m, h, q)
                    out.setdefault(code, {})[key] = v
                rest >>= SLOT_BITS
                unit <<= SLOT_BITS
                code += 3
        odd = False
        for i in range(m.bit_length()):
            if m >> i & 1:
                out.setdefault(3 * i + 2, {})[(xp, pp, m ^ (1 << i), h, q)] = -c if odd else c
                odd = not odd
    return out


def _falling(packed: int, slots: tuple) -> int:
    """prod e!/(e - a)! over the (shift, a) slots of a packed vector; 0 if some e < a."""
    factor = 1
    for shift, a in slots:
        e = packed >> shift & _SLOT_MASK
        if e < a:
            return 0
        factor *= perm(e, a)
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
