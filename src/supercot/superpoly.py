"""Supercommutative polynomial algebra of the flat supercotangent chart.

Functions are polynomials in the even coordinates x^1..x^n, p_1..p_n and
the Grassmann coordinates xi^1..xi^n, with coefficients in the exact
scalar ring of coeff.Scalar.  Storage is sparse: a monomial key is
``(xexp, pexp, xi)`` where xexp and pexp are exponent tuples of length n
and xi is a strictly increasing tuple of 1-based indices.  Any sign
produced by reordering Grassmann factors is absorbed into the
coefficient, so keys are canonical and equality is structural.

Two kernels carry the operator layers.  ``partial`` applies a whole
derivative multi-index to every term in one pass: an even block lowers
each exponent and multiplies by the falling factorial, an odd block
removes its xi indices with the sign of their positions.  ``add_product``
accumulates ``factor * left * right`` into a caller-owned term table, so
a sum of many products is built in one table instead of one copy per
summand; ``__mul__`` is ``add_product`` into a fresh table.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import perm
from operator import add
from typing import Iterable, Iterator, Mapping

from .coeff import Scalar

Key = tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]


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


def merge_xi(left: tuple[int, ...], right: tuple[int, ...]) -> tuple[int, tuple[int, ...]] | None:
    """Merge two ascending xi-index tuples; returns (koszul_sign, merged).

    None signals a repeated Grassmann factor, i.e. a vanishing product.
    """
    if set(left) & set(right):
        return None
    merged = []
    sign = 1
    i = j = 0
    while i < len(left) and j < len(right):
        if left[i] < right[j]:
            merged.append(left[i])
            i += 1
        else:
            # right[j] jumps over the len(left)-i remaining left factors
            if (len(left) - i) % 2:
                sign = -sign
            merged.append(right[j])
            j += 1
    merged.extend(left[i:])
    merged.extend(right[j:])
    return sign, tuple(merged)


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


class SuperPolynomial:
    """Sparse polynomial in (x, p, xi) over the exact scalar ring."""

    __slots__ = ("n", "_terms")

    def __init__(self, n: int, terms: Mapping[Key, Scalar] | None = None):
        if n < 1:
            raise ValueError("dimension must be >= 1")
        self.n = n
        cleaned: dict[Key, Scalar] = {}
        if terms:
            for key, coeff in terms.items():
                _check_key(key, n)
                if coeff:
                    cleaned[key] = coeff
        self._terms = cleaned

    @staticmethod
    def _wrap(n: int, terms: dict[Key, Scalar]) -> "SuperPolynomial":
        """A polynomial over a table that holds no zero coefficient."""
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
        if any(type(e) is not int or e < 0 for e in xexp + pexp):
            raise ValueError("exponents must be non-negative ints")
        sorted_word = sort_xi_word(xi)
        if sorted_word is None:
            return SuperPolynomial.zero(n)
        sign, word = sorted_word
        if word and not (1 <= word[0] and word[-1] <= n):
            raise IndexError(f"xi index out of range 1..{n}")
        coeff = Scalar.coerce(coeff) * sign
        return SuperPolynomial._wrap(n, {(xexp, pexp, word): coeff} if coeff else {})

    @staticmethod
    def var_x(n: int, i: int) -> "SuperPolynomial":
        _check_index(i, n)
        exp = tuple(1 if k == i - 1 else 0 for k in range(n))
        return SuperPolynomial.monomial(n, xexp=exp)

    @staticmethod
    def var_p(n: int, i: int) -> "SuperPolynomial":
        _check_index(i, n)
        exp = tuple(1 if k == i - 1 else 0 for k in range(n))
        return SuperPolynomial.monomial(n, pexp=exp)

    @staticmethod
    def var_xi(n: int, i: int) -> "SuperPolynomial":
        _check_index(i, n)
        return SuperPolynomial.monomial(n, xi=(i,))

    # -- linear structure ----------------------------------------------

    def _binop(self, other: "SuperPolynomial", negate: bool) -> "SuperPolynomial":
        if not isinstance(other, SuperPolynomial):
            return NotImplemented
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")
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
        return SuperPolynomial._wrap(self.n, {k: c * factor for k, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            return self.scale(other)
        if not isinstance(other, SuperPolynomial):
            return NotImplemented
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")
        terms: dict[Key, Scalar] = {}
        add_product(terms, self, other)
        return SuperPolynomial._wrap(self.n, terms)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            return self.scale(other)
        return NotImplemented

    # -- derivations ----------------------------------------------------

    def derive(self, kind: str, index: int) -> "SuperPolynomial":
        """Left partial derivative with respect to x^i, p_i or xi^i.

        Each derivative maps distinct monomials to distinct monomials and
        multiplies by a nonzero integer, so no two terms merge or cancel.
        """
        _check_index(index, self.n)
        terms: dict[Key, Scalar] = {}
        pos = index - 1
        if kind == "x":
            for (xexp, pexp, xi), coeff in self._terms.items():
                e = xexp[pos]
                if e:
                    terms[(_dec(xexp, pos), pexp, xi)] = coeff * e
        elif kind == "p":
            for (xexp, pexp, xi), coeff in self._terms.items():
                e = pexp[pos]
                if e:
                    terms[(xexp, _dec(pexp, pos), xi)] = coeff * e
        elif kind == "xi":
            for (xexp, pexp, xi), coeff in self._terms.items():
                if index in xi:
                    slot = xi.index(index)
                    terms[(xexp, pexp, xi[:slot] + xi[slot + 1 :])] = -coeff if slot % 2 else coeff
        else:
            raise ValueError(f"unknown variable kind {kind!r}")
        return SuperPolynomial._wrap(self.n, terms)

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
        word).  An empty multi-index is no derivative; as in ``derive``
        no two terms merge, so the table is built without accumulation.
        """
        xs = [(pos, a) for pos, a in enumerate(dx) if a]
        ps = [(pos, a) for pos, a in enumerate(dp) if a]
        if not (xs or ps or dxi):
            return self
        terms: dict[Key, Scalar] = {}
        for (xexp, pexp, xi), coeff in self._terms.items():
            factor = 1
            if xs:
                lowered = _lower(xexp, xs)
                if lowered is None:
                    continue
                xexp, factor = lowered
            if ps:
                lowered = _lower(pexp, ps)
                if lowered is None:
                    continue
                pexp, pfactor = lowered
                factor *= pfactor
            if dxi:
                if not all(index in xi for index in dxi):
                    continue
                if sum(map(xi.index, dxi)) % 2:
                    factor = -factor
                xi = tuple(i for i in xi if i not in dxi)
            terms[(xexp, pexp, xi)] = coeff * factor
        return SuperPolynomial._wrap(self.n, terms)

    def euler_odd(self) -> "SuperPolynomial":
        """Odd Euler operator: multiplies each term by its xi-degree."""
        return SuperPolynomial(
            self.n, {k: c * len(k[2]) for k, c in self._terms.items() if k[2]}
        )

    # -- grading ---------------------------------------------------------

    def parity(self) -> int:
        """Z2-parity; raises on a non-homogeneous polynomial."""
        parities = {len(xi) % 2 for (_x, _p, xi) in self._terms}
        if not parities:
            return 0
        if len(parities) > 1:
            raise ValueError("polynomial is not parity-homogeneous")
        return parities.pop()

    def is_parity_homogeneous(self) -> bool:
        return len({len(xi) % 2 for (_x, _p, xi) in self._terms}) <= 1

    def bidegrees(self) -> set[tuple[int, int]]:
        """Set of (degree in p, degree in xi) with nonzero components."""
        return {(sum(pexp), len(xi)) for (_x, pexp, xi) in self._terms}

    def bidegree_component(self, k: int, kappa: int) -> "SuperPolynomial":
        return SuperPolynomial(
            self.n,
            {
                key: c
                for key, c in self._terms.items()
                if sum(key[1]) == k and len(key[2]) == kappa
            },
        )

    def hamiltonian_components(self) -> dict[int, "SuperPolynomial"]:
        """Split by Hamiltonian degree 2k + kappa (k in p, kappa in xi)."""
        buckets: dict[int, dict[Key, Scalar]] = {}
        for key, coeff in self._terms.items():
            degree = 2 * sum(key[1]) + len(key[2])
            buckets.setdefault(degree, {})[key] = coeff
        return {d: SuperPolynomial(self.n, t) for d, t in sorted(buckets.items())}

    def x_degree(self) -> int:
        return max((sum(x) for (x, _p, _xi) in self._terms), default=0)

    def is_x_free(self) -> bool:
        return all(not any(x) for (x, _p, _xi) in self._terms)

    def is_even_free(self) -> bool:
        return all(not any(x) and not any(p) for (x, p, _xi) in self._terms)

    # -- metric index gymnastics -----------------------------------------

    def raise_lower(self, sig: Signature, kind: str, index: int) -> "SuperPolynomial":
        """Contract one variable slot with the flat metric.

        With eta diagonal, moving the index of x^i, p_i or xi^i multiplies
        every occurrence of that variable by eta_ii; raising and lowering
        are the same operation and are mutually inverse.
        """
        if sig.n != self.n:
            raise ValueError("signature dimension mismatch")
        _check_index(index, self.n)
        factor = sig.eta(index)
        if factor == 1:
            return self
        terms = {}
        for key, coeff in self._terms.items():
            xexp, pexp, xi = key
            count = {
                "x": xexp[index - 1],
                "p": pexp[index - 1],
                "xi": 1 if index in xi else 0,
            }[kind]
            terms[key] = coeff * (-1 if count % 2 else 1)
        return SuperPolynomial(self.n, terms)

    # -- access ------------------------------------------------------------

    def coefficient(self, key: Key) -> Scalar:
        return self._terms.get(key, Scalar.zero())

    def items(self) -> Iterator[tuple[Key, Scalar]]:
        return iter(sorted(self._terms.items(), key=lambda kv: term_sort_key(kv[0])))

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SuperPolynomial):
            return NotImplemented
        return self.n == other.n and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self.n, frozenset((k, c) for k, c in self._terms.items())))

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
                for key, coeff in sorted(self._terms.items(), key=lambda kv: term_sort_key(kv[0]))
            ],
        }

    @staticmethod
    def from_json(data: Mapping) -> "SuperPolynomial":
        n = int(data["n"])
        poly = SuperPolynomial.zero(n)
        for record in data["terms"]:
            poly = poly + SuperPolynomial.monomial(
                n,
                xexp=tuple(int(e) for e in record["x"]),
                pexp=tuple(int(e) for e in record["p"]),
                xi=tuple(int(i) for i in record["xi"]),
                coeff=Scalar.from_json(record["coeff"]),
            )
        return poly

    # -- printing -------------------------------------------------------------

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        rendered = []
        for key, coeff in sorted(self._terms.items(), key=lambda kv: term_sort_key(kv[0])):
            rendered.append(_render_term(key, coeff))
        first_neg, first_body = rendered[0]
        out = [f"-{first_body}" if first_neg else first_body]
        for negative, body in rendered[1:]:
            out.append(f"- {body}" if negative else f"+ {body}")
        return " ".join(out)

    def __repr__(self) -> str:
        return f"SuperPolynomial(n={self.n}, {self})"


def add_product(
    terms: dict[Key, Scalar],
    left: SuperPolynomial,
    right: SuperPolynomial,
    factor: Scalar | int | Fraction = 1,
) -> None:
    """Add factor * left * right into ``terms`` in place; cancelled keys are removed."""
    if not factor:
        return
    scaled = type(factor) is not int or factor != 1
    right_items = right._terms.items()
    for (x1, p1, xi1), c1 in left._terms.items():
        if scaled:
            c1 = c1 * factor
        for (x2, p2, xi2), c2 in right_items:
            if xi1 and xi2:
                merged = merge_xi(xi1, xi2)
                if merged is None:
                    continue
                sign, word = merged
            else:
                sign, word = 1, xi1 or xi2
            key = (tuple(map(add, x1, x2)), tuple(map(add, p1, p2)), word)
            coeff = c1 * c2
            if sign < 0:
                coeff = -coeff
            acc = terms.get(key)
            if acc is None:
                terms[key] = coeff
                continue
            acc = acc + coeff
            if acc:
                terms[key] = acc
            else:
                del terms[key]


def _check_key(key, n: int) -> None:
    """Reject a monomial key that is not (xexp, pexp, xi) in canonical form."""
    if not (isinstance(key, tuple) and len(key) == 3):
        raise ValueError(f"monomial key {key!r} is not (xexp, pexp, xi)")
    xexp, pexp, xi = key
    for exp in (xexp, pexp):
        if not (isinstance(exp, tuple) and len(exp) == n and all(type(e) is int and e >= 0 for e in exp)):
            raise ValueError(f"exponents {exp!r} must be a tuple of {n} non-negative ints")
    if not (isinstance(xi, tuple) and all(type(i) is int for i in xi)
            and list(xi) == sorted(set(xi)) and set(xi) <= set(range(1, n + 1))):
        raise ValueError(f"xi word {xi!r} must be strictly increasing within 1..{n}")


def _lower(exp: tuple[int, ...], slots: list[tuple[int, int]]):
    """(exp - a, prod e!/(e - a)!) for the nonzero slots of a, or None if it vanishes."""
    out = list(exp)
    factor = 1
    for pos, a in slots:
        e = out[pos]
        if e < a:
            return None
        out[pos] = e - a
        factor *= perm(e, a)
    return tuple(out), factor


def _check_index(index: int, n: int) -> None:
    if not 1 <= index <= n:
        raise IndexError(f"index {index} out of range 1..{n}")


def _dec(exp: tuple[int, ...], pos: int) -> tuple[int, ...]:
    return exp[:pos] + (exp[pos] - 1,) + exp[pos + 1 :]


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
