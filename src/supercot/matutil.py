"""Square matrices over the exact scalar ring as sparse rows, and exact sparse elimination.

A Matrix is a list of rows {column: nonzero entry}, one per row index;
every operation cancels to no stored zero, so two matrices are equal
exactly when their rows are, and a matrix is zero exactly when no row
has an entry.  The eliminator consumes rows of the same shape.  Rows are
expanded to dense grids only for output, by ``dense``.

There is one elimination loop, ``_reduce`` under ``_row_echelon``; given a
prime modulus it runs on residues.  ``rank`` eliminates exactly.
``kernel`` first eliminates modulo the prime PRIME = 2^61 - 1 and uses
the result as a certificate: full column rank modulo PRIME means an empty
kernel over Q; otherwise only the rows that gave pivots modulo PRIME are
eliminated exactly, and their kernel basis is returned once every other
row annihilates it exactly.  When PRIME divides a denominator, or a row
fails that check, every row is eliminated exactly.  The basis is the
unique reduced one in every case, so which path ran never shows in it.
``kernel`` takes its rows sparsest first, so its fill-in does not depend
on the order in which the caller lists them.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from fractions import Fraction
from heapq import heapify, heappop, heappush

from .coeff import Scalar

Matrix = list[dict[int, Scalar]]


def identity(size: int, factor: Scalar | int = 1) -> Matrix:
    scale = Scalar.coerce(factor)
    return [{k: scale} for k in range(size)] if scale else [{} for _ in range(size)]


def _add_into(row: dict, col: int, value: Scalar) -> None:
    """row[col] += value, deleting the entry when the sum cancels."""
    old = row.get(col)
    if old is None:
        row[col] = value
    elif new := old + value:
        row[col] = new
    else:
        del row[col]


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    out = []
    for ra, rb in zip(a, b):
        row = dict(ra)
        for col, value in rb.items():
            _add_into(row, col, value)
        out.append(row)
    return out


def mat_scale(a: Matrix, factor: Scalar | int) -> Matrix:
    factor = Scalar.coerce(factor)
    if not factor:
        return [{} for _ in a]
    # the scalar ring has no zero divisors: a nonzero product stays nonzero
    return [{col: value * factor for col, value in row.items()} for row in a]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    out = []
    for row_a in a:
        row = {}
        for k, left in row_a.items():
            for col, right in b[k].items():
                _add_into(row, col, left * right)
        out.append(row)
    return out


def anticommutator(a: Matrix, b: Matrix) -> Matrix:
    return mat_add(mat_mul(a, b), mat_mul(b, a))


def dense(a: Matrix) -> list[list[Scalar]]:
    """The rows as a dense grid, for output only."""
    zero = Scalar.zero()
    return [[row.get(col, zero) for col in range(len(a))] for row in a]


# -- exact elimination on sparse rows ----------------------------------------------
#
# A row is a dict {column: nonzero entry} over any exact field whose
# elements support +, -, * and /: int or Fraction for Q, or Scalar
# restricted to h-free elements of Q(i, sqrt2).  An int pivot becomes a
# Fraction before it divides, so `/` never yields a float.  With a prime
# modulus the same loop runs on residues: rational rows are reduced mod
# that prime as they are consumed, and every entry stays an int in
# 0..modulus-1.

PRIME = (1 << 61) - 1  # the Mersenne prime 2^61 - 1: the kernel's certificate modulus


def _reduce(row: dict, pivots: dict[int, dict], modulus: int = 0) -> None:
    """Subtract pivot rows from `row` in place until no pivot column is left in it.

    Pivot rows have no entry left of their pivot column, so eliminating
    pivot columns in increasing order never refills one already cleared.
    A nonzero modulus reduces every new entry modulo it.
    """
    todo = [col for col in row if col in pivots]
    heapify(todo)
    while todo:
        col = heappop(todo)
        factor = row.pop(col, None)
        if factor is None:
            continue
        for c, v in pivots[col].items():
            if c == col:
                continue
            old = row.get(c)
            new = -(factor * v) if old is None else old - factor * v
            if modulus:
                new %= modulus
            if new:
                if old is None and c in pivots:
                    heappush(todo, c)
                row[c] = new
            else:
                del row[c]


def _row_echelon(
    rows: Iterable[Mapping[int, object]], ncols: int, modulus: int = 0
) -> tuple[dict[int, dict], list[int]]:
    """Echelon form of the row space, as {pivot column: row with a 1 there}, and
    the indices of the rows that gave the pivots, in order.

    Rows are consumed one at a time and reduced against the pivots found
    so far; consumption stops once the rank equals `ncols`.  With a prime
    modulus, the rows must be rational and the echelon form is that of
    their residues; ValueError when the modulus divides a denominator.
    """
    pivots: dict[int, dict] = {}
    used: list[int] = []
    for index, row in enumerate(rows):
        if modulus:
            row = {
                c: r for c, v in row.items()
                if (r := v % modulus if type(v) is int else _residue(v, modulus))
            }
        else:
            row = {c: v for c, v in row.items() if v}
        _reduce(row, pivots, modulus)
        if not row:
            continue
        lead = min(row)
        head = row[lead]
        if modulus:
            inverse = pow(head, -1, modulus)
            pivots[lead] = {c: v * inverse % modulus for c, v in row.items()}
        else:
            if type(head) is int:
                head = Fraction(head)
            pivots[lead] = {c: v / head for c, v in row.items()}
        used.append(index)
        if len(pivots) == ncols:
            break
    return pivots, used


def _residue(value: Fraction, modulus: int) -> int:
    """A Fraction mod a prime; pow raises ValueError when the prime divides the denominator."""
    return value.numerator * pow(value.denominator, -1, modulus) % modulus


def rank(rows: Iterable[Mapping[int, object]], ncols: int) -> int:
    return len(_row_echelon(rows, ncols)[0])


def kernel(rows: Iterable[Mapping[int, int | Fraction]], ncols: int) -> list[dict[int, Fraction]]:
    """Reduced kernel basis of a rational matrix, one sparse vector per free column.

    The basis is exact; elimination modulo PRIME only decides how much
    exact work it takes.  A residue minor that is nonzero is a nonzero
    rational minor, so full column rank modulo PRIME is full rank over Q
    and the kernel is empty.  Otherwise the rows that gave pivots modulo
    PRIME have rank r over Q too, so their kernel has dimension ncols - r
    and contains the kernel of all rows; when each of its vectors also
    annihilates every other row exactly, the two kernels are equal and
    the subset's reduced basis is the answer.  When PRIME divides a
    denominator, or a vector fails its check (the rank over Q exceeds
    the rank modulo PRIME), all rows are eliminated exactly.  Rows are
    taken sparsest first, so the fill-in does not depend on their order
    in `rows`.
    """
    rows = sorted(rows, key=len)  # consumed twice
    try:
        pivots, used = _row_echelon(rows, ncols, PRIME)
    except ValueError:
        return _reduced_kernel(rows, ncols)
    if len(pivots) == ncols:
        return []
    basis = _reduced_kernel([rows[i] for i in used], ncols)
    chosen = set(used)
    if _annihilates(basis, [row for index, row in enumerate(rows) if index not in chosen]):
        return basis
    return _reduced_kernel(rows, ncols)


def _annihilates(basis: list[dict[int, Fraction]], rows: list[Mapping]) -> bool:
    """Whether every row has a zero product with every basis vector, exactly."""
    for vec in basis:
        support = vec.keys()
        for row in rows:
            if support.isdisjoint(row):
                continue
            if sum(v * vec[c] for c, v in row.items() if c in vec):
                return False
    return True


def _reduced_kernel(rows: list[Mapping[int, int | Fraction]], ncols: int) -> list[dict[int, Fraction]]:
    """Exact elimination of every row, brought to the reduced kernel basis.

    Back-substitution brings the echelon form to the unique reduced one,
    so each vector has a 1 in its own free column, 0 in the other free
    columns and minus the reduced entries in the pivot columns: the
    basis depends on the row space only, not on the order of the rows.
    """
    pivots, _used = _row_echelon(rows, ncols)
    for col in sorted(pivots, reverse=True):
        row = pivots[col]
        one = row.pop(col)
        _reduce(row, pivots)
        row[col] = one
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = {free: Fraction(1)}
        for col, row in pivots.items():
            if free in row:
                vec[col] = -row[free]
        basis.append(dict(sorted(vec.items())))
    return basis


def to_json(a: Matrix) -> list[list[list[dict]]]:
    return [[entry.to_json() for entry in row] for row in dense(a)]
