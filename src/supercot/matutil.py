"""Small dense matrices over the exact scalar ring, and exact sparse elimination."""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from fractions import Fraction
from heapq import heapify, heappop, heappush

from .coeff import Scalar

Matrix = list[list[Scalar]]


_ZERO = Scalar.zero()  # immutable, so every zero entry may share it


def zeros(rows: int, cols: int) -> Matrix:
    return [[_ZERO] * cols for _ in range(rows)]


def identity(size: int, factor: Scalar | int = 1) -> Matrix:
    mat = zeros(size, size)
    scale = Scalar.coerce(factor)
    for k in range(size):
        mat[k][k] = scale
    return mat


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a: Matrix, factor: Scalar | int) -> Matrix:
    factor = Scalar.coerce(factor)
    return [[x * factor if x else _ZERO for x in row] for row in a]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    rows, inner, cols = len(a), len(b), len(b[0])
    out = zeros(rows, cols)
    for i in range(rows):
        for k in range(inner):
            left = a[i][k]
            if not left:
                continue
            row_b = b[k]
            row_out = out[i]
            for j in range(cols):
                if row_b[j]:
                    row_out[j] = row_out[j] + left * row_b[j]
    return out


def anticommutator(a: Matrix, b: Matrix) -> Matrix:
    return mat_add(mat_mul(a, b), mat_mul(b, a))


def mat_eq(a: Matrix, b: Matrix) -> bool:
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def is_zero(a: Matrix) -> bool:
    return all(not x for row in a for x in row)


# -- exact elimination on sparse rows ----------------------------------------------
#
# A row is a dict {column: nonzero entry} over any exact field whose
# elements support +, -, * and /: Fraction for Q, or Scalar restricted to
# h-free elements of Q(i, sqrt2).


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
        pivots[lead] = {c: v / head for c, v in row.items()}
        if len(pivots) == ncols:
            break
    return pivots


def rank(rows: Iterable[Mapping[int, object]], ncols: int) -> int:
    return len(_row_echelon(rows, ncols))


def kernel(rows: Iterable[Mapping[int, Fraction]], ncols: int) -> list[dict[int, Fraction]]:
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
    return [[entry.to_json() for entry in row] for row in a]
