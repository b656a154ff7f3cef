"""Square matrices over the exact scalar ring as sparse rows, and exact sparse elimination.

A Matrix is a list of rows {column: nonzero entry}, one per row index;
every operation cancels to no stored zero, so two matrices are equal
exactly when their rows are, and a matrix is zero exactly when no row
has an entry.  The eliminator consumes rows of the same shape.  Rows are
expanded to dense grids only for output, by ``dense``.
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
# Fraction before it divides, so `/` never yields a float.


def _reduce(row: dict, pivots: dict[int, dict]) -> None:
    """Subtract pivot rows from `row` in place until no pivot column is left in it.

    Pivot rows have no entry left of their pivot column, so eliminating
    pivot columns in increasing order never refills one already cleared.
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
            if new:
                if old is None and c in pivots:
                    heappush(todo, c)
                row[c] = new
            else:
                del row[c]


def _row_echelon(rows: Iterable[Mapping[int, object]], ncols: int) -> dict[int, dict]:
    """Echelon form of the row space, as {pivot column: row with a 1 there}.

    Rows are consumed one at a time and reduced against the pivots found
    so far; consumption stops once the rank equals `ncols`.
    """
    pivots: dict[int, dict] = {}
    for row in rows:
        row = {c: v for c, v in row.items() if v}
        _reduce(row, pivots)
        if not row:
            continue
        lead = min(row)
        head = row[lead]
        if type(head) is int:
            head = Fraction(head)
        pivots[lead] = {c: v / head for c, v in row.items()}
        if len(pivots) == ncols:
            break
    return pivots


def rank(rows: Iterable[Mapping[int, object]], ncols: int) -> int:
    return len(_row_echelon(rows, ncols))


def kernel(rows: Iterable[Mapping[int, int | Fraction]], ncols: int) -> list[dict[int, Fraction]]:
    """Reduced kernel basis of a rational matrix, one sparse vector per free column.

    Back-substitution brings the echelon form to the unique reduced one,
    so each vector has a 1 in its own free column, 0 in the other free
    columns and minus the reduced entries in the pivot columns: the
    basis depends on the row space only, not on the order of the rows.
    """
    pivots = _row_echelon(rows, ncols)
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
