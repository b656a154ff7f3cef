"""Recursive-descent parser for supercotangent polynomial expressions.

Grammar (whitespace insignificant)::

    expr     := ['-'] term (('+'|'-') term)*
    term     := factor (('*'|'/') factor)*
    factor   := uint | const ('^' sint)? | var ('^' uint)? | '(' expr ')'
    const    := 'h' | 'i' | 's'
    var      := ('x'|'p'|'xi') uint

'/' divides by any invertible constant (a nonzero rational, i, s, a power
of h or a product of these), so ``2/3``, ``2/h`` and ``h/2 * xi1*xi2``
all parse.  Exponents on h may be negative, matching the Laurent scalar
ring.  No exponent may exceed MAX_EXPONENT (1000) in absolute value: a
larger one is a ParseError, so that an input like ``p1^99999999999`` is
rejected instead of expanded.  Parentheses nest at most MAX_DEPTH (100)
deep, since each level recurses through ``expr``: a deeper input is a
ParseError, not a RecursionError.  A product is a ParseError, before
any of it is built, when len(left) * len(right), a bound on its size,
exceeds MAX_PRODUCT_TERMS (30,000): otherwise ten factors
``(x1+...+x20)`` at n = 20, 729 characters, would expand to 20 million
terms.  The worst admitted product, 173 by 173 distinct terms in indices
near 282 (packed keys of about 1 KB), takes 0.6 s and 87 MB peak RSS
(2-core x86-64, Python 3.11).
"""

from __future__ import annotations

from .coeff import Scalar
from .superpoly import SuperPolynomial, add_term


MAX_EXPONENT = 1000
MAX_DEPTH = 100
MAX_PRODUCT_TERMS = 30_000


class ParseError(ValueError):
    """Syntax or range error, carrying the 0-based input position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_CONSTS = {
    "h": lambda: Scalar.h(),
    "i": Scalar.i,
    "s": Scalar.sqrt2,
}


class _Tokenizer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take_uint(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected a number", start)
        try:
            return int(self.text[start : self.pos])
        except ValueError:  # more digits than int() converts
            raise ParseError("number too long", start) from None

    def take_exponent(self) -> int:
        self.skip_ws()
        start = self.pos
        power = self.take_uint()
        if power > MAX_EXPONENT:
            raise ParseError(f"exponent {power} exceeds the maximum {MAX_EXPONENT}", start)
        return power

    def take_name(self) -> tuple[str, int]:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isalpha():
            self.pos += 1
        return self.text[start : self.pos], start

    def accept(self, char: str) -> bool:
        if self.peek() == char:
            self.pos += 1
            return True
        return False

    def expect(self, char: str) -> None:
        if not self.accept(char):
            raise ParseError(f"expected {char!r}", self.pos)


class _Parser:
    def __init__(self, text: str, n: int):
        self.tok = _Tokenizer(text)
        self.n = n
        self.depth = 0

    def parse(self) -> SuperPolynomial:
        value = self.expr()
        self.tok.skip_ws()
        if self.tok.pos < len(self.tok.text):
            raise ParseError("unexpected trailing input", self.tok.pos)
        return value

    def expr(self) -> SuperPolynomial:
        """The sum, accumulated in one flat table so that N terms cost O(N)."""
        terms: dict = {}
        negate = self.tok.accept("-")
        while True:
            for key, c in self.term()._terms.items():
                add_term(terms, key, -c if negate else c)
            if self.tok.accept("+"):
                negate = False
            elif self.tok.accept("-"):
                negate = True
            else:
                return SuperPolynomial._wrap(self.n, terms)

    def term(self) -> SuperPolynomial:
        value = self.factor()
        while True:
            if self.tok.accept("*"):
                at = self.tok.pos
                right = self.factor()
                if len(value._terms) * len(right._terms) > MAX_PRODUCT_TERMS:
                    raise ParseError(
                        f"product of {len(value._terms)} by {len(right._terms)} terms exceeds "
                        f"the maximum {MAX_PRODUCT_TERMS}", at,
                    )
                value = value * right
            elif self.tok.accept("/"):
                at = self.tok.pos
                divisor = self.factor()
                value = value * _constant_inverse(divisor, at)
            else:
                return value

    def factor(self) -> SuperPolynomial:
        tok = self.tok
        char = tok.peek()
        if char == "(":
            if self.depth == MAX_DEPTH:
                raise ParseError(f"parentheses nested deeper than the maximum {MAX_DEPTH}", tok.pos)
            tok.pos += 1
            self.depth += 1
            inner = self.expr()
            tok.expect(")")
            self.depth -= 1
            return inner
        if char.isdigit():
            return SuperPolynomial.constant(self.n, tok.take_uint())
        if char.isalpha():
            name, start = tok.take_name()
            if name in _CONSTS:
                base = _CONSTS[name]()
                if tok.accept("^"):
                    negative = tok.accept("-")
                    power = tok.take_exponent()
                    if name != "h" and negative:
                        raise ParseError("negative power only allowed on h", start)
                    base = _scalar_power(base, -power if negative else power, name)
                return SuperPolynomial.constant(self.n, base)
            if name in ("x", "p", "xi"):
                index = tok.take_uint()
                if index < 1:
                    raise ParseError(f"variable index {index} is below 1", start)
                if index > self.n:
                    raise ParseError(
                        f"variable index {index} exceeds dimension {self.n}", start
                    )
                if name == "x":
                    var = SuperPolynomial.var_x(self.n, index)
                elif name == "p":
                    var = SuperPolynomial.var_p(self.n, index)
                else:
                    var = SuperPolynomial.var_xi(self.n, index)
                if tok.accept("^"):
                    power = tok.take_exponent()
                    result = SuperPolynomial.one(self.n)
                    for _ in range(power):
                        result = result * var
                    return result
                return var
            raise ParseError(f"unknown symbol {name!r}", start)
        raise ParseError("expected a factor", tok.pos)


def _scalar_power(base: Scalar, power: int, name: str) -> Scalar:
    if name == "h":
        return Scalar.h(power=power)
    result = Scalar.one()
    for _ in range(power):
        result = result * base
    return result


def _constant_inverse(divisor: SuperPolynomial, position: int) -> SuperPolynomial:
    items = list(divisor.items())
    n = divisor.n
    zero_key = ((0,) * n, (0,) * n, ())
    if len(items) != 1 or items[0][0] != zero_key:
        raise ParseError("divisor must be an invertible constant", position)
    try:
        inverse = items[0][1].inv()
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"cannot divide: {exc}", position) from None
    return SuperPolynomial.constant(n, inverse)


def sp_parse(text: str, n: int) -> SuperPolynomial:
    """Parse an expression into canonical form in dimension n.

    Raises ParseError on a syntax error, an out-of-range index, an
    exponent above MAX_EXPONENT, parentheses nested deeper than MAX_DEPTH
    or a product past MAX_PRODUCT_TERMS.
    """
    return _Parser(text, n).parse()
