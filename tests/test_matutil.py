"""The sparse exact eliminator against sympy, an independent implementation.

sympy's ``Matrix.nullspace`` returns the same canonical basis as
``matutil.kernel``: one vector per free column, 1 there, 0 in the other
free columns and minus the reduced-echelon entries in the pivot columns.
``kernel`` decides with a pass modulo PRIME how much exact elimination it
needs; every oracle case also runs through the full exact elimination it
falls back to, and a spy shows which of the three paths a case took.
"""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st
from sympy.polys.matrices import DomainMatrix

from supercot.coeff import PART_I, PART_IS, PART_ONE, PART_S, Scalar
from supercot import matutil
from supercot.invariants import Weights, _ansatz_monomials, _linear_system, search_invariants
from supercot.matutil import PRIME, kernel, rank
from supercot.superpoly import Signature


def _sympy_matrix(rows, ncols):
    # with no rows sympy would build a 0 x 0 matrix; one zero row keeps ncols
    rows = rows or [{}]
    return sympy.Matrix(
        [[sympy.Rational(*_pair(row.get(c, 0))) for c in range(ncols)] for row in rows]
    )


def _pair(value):
    value = Fraction(value)
    return value.numerator, value.denominator


def _oracle_kernel(rows, ncols):
    return [
        {c: Fraction(int(x.p), int(x.q)) for c, x in enumerate(vec) if x != 0}
        for vec in _sympy_matrix(rows, ncols).nullspace()
    ]


def _check(rows, ncols):
    want = _oracle_kernel(rows, ncols)
    assert kernel(rows, ncols) == want
    assert matutil._reduced_kernel(rows, ncols) == want
    assert rank(rows, ncols) == _sympy_matrix(rows, ncols).rank()


@pytest.fixture
def exact_runs(monkeypatch):
    """The row count of each full exact elimination that kernel runs, in order."""
    runs = []
    reduced_kernel = matutil._reduced_kernel

    def spy(rows, ncols):
        runs.append(len(rows))
        return reduced_kernel(rows, ncols)

    monkeypatch.setattr(matutil, "_reduced_kernel", spy)
    return runs


def _random_rows(rng, nrows, cols, density=0.5):
    return [
        {c: Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for c in cols if rng.random() < density}
        for _ in range(nrows)
    ]


def test_kernel_matches_sympy_on_seeded_sparse_matrices():
    rng = random.Random(1595)
    for _ in range(12):
        ncols = rng.randint(1, 9)
        cols = range(ncols)
        rows = _random_rows(rng, rng.randint(1, 9), cols)
        _check(rows, ncols)
        # zero rows, empty or with explicit zero entries
        _check(rows + [{}, dict.fromkeys(cols, Fraction(0))] + rows, ncols)
        # duplicate and proportional rows
        dup = rows + [dict(r) for r in rows] + [{c: 3 * v for c, v in r.items()} for r in rows]
        rng.shuffle(dup)
        _check(dup, ncols)
        # full rank: a unit upper-triangular square block, fed in random order
        tri = [{i: Fraction(1), **_random_rows(rng, 1, range(i + 1, ncols))[0]} for i in cols]
        rng.shuffle(tri)
        assert kernel(tri, ncols) == [] and rank(tri, ncols) == ncols
        _check(tri, ncols)
        # zero columns: columns that no row touches
        used = [c for c in cols if rng.random() < 0.6]
        _check(_random_rows(rng, rng.randint(1, 6), used), ncols)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    st.integers(1, 7).flatmap(
        lambda ncols: st.tuples(
            st.just(ncols),
            st.lists(
                st.dictionaries(
                    st.integers(0, ncols - 1),
                    st.fractions(min_value=-4, max_value=4, max_denominator=5),
                ),
                max_size=8,
            ),
        )
    )
)
def test_kernel_matches_sympy_property(case):
    ncols, rows = case
    _check(rows, ncols)


def test_kernel_matches_sympy_on_search_systems():
    cases = [
        (Signature(2, 0), 1, 1, "S", Weights.symbol(Fraction(1, 2))),
        (Signature(2, 0), 0, 2, "T", Weights.symbol(0)),
        (Signature(1, 1), 3, 1, "D", Weights.operator(Fraction(-1, 4), Fraction(5, 4))),
        (Signature(3, 1), 1, 1, "D", Weights.operator(Fraction(3, 8), Fraction(5, 8))),
        (Signature(4, 0), 2, 0, "S", Weights.symbol(Fraction(1, 2))),
    ]
    found = 0
    for sig, k, kappa, tag, w in cases:
        monomials = _ansatz_monomials(sig, k, kappa, 0, 0)
        rows = _linear_system(sig, tag, w, monomials)
        _check(rows, len(monomials))
        found += len(kernel(rows, len(monomials)))
    assert found > 0


def test_rank_over_q_i_sqrt2_matches_sympy():
    rng = random.Random(2)
    field = sympy.QQ.algebraic_field(sympy.sqrt(2), sympy.I)
    i, s = field.from_sympy(sympy.I), field.from_sympy(sympy.sqrt(2))
    part_values = {PART_ONE: field.one, PART_I: i, PART_S: s, PART_IS: i * s}

    def to_field(value: Scalar):
        out = field.zero
        for (_h, part), c in Scalar.coerce(value).components().items():
            out += field.convert(sympy.Rational(*_pair(c))) * part_values[part]
        return out

    def element():
        return Scalar({(0, part): Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for part in range(4)})

    for ncols in (2, 3, 4):
        for _ in range(3):
            base = [{c: element() for c in range(ncols) if rng.random() < 0.8} for _ in range(2)]
            a, b = element(), element()
            combo = {c: a * base[0].get(c, 0) + b * base[1].get(c, 0) for c in range(ncols)}
            rows = base + [combo] + [{c: element() for c in range(ncols)}]
            dense = [[to_field(r.get(c, 0)) for c in range(ncols)] for r in rows]
            want = DomainMatrix(dense, (len(rows), ncols), field).rank()
            assert rank(rows, ncols) == want


def test_int_rows_match_sympy_and_kernels_stay_fraction():
    # int rows agree with sympy, and the eliminator alone keeps `/` exact, so
    # every kernel value is a Fraction
    rng = random.Random(20)
    found = 0
    for _ in range(12):
        ncols = rng.randint(1, 9)
        rows = [
            {c: rng.randint(-9, 9) for c in range(ncols) if rng.random() < 0.5}
            for _ in range(rng.randint(1, 9))
        ]
        _check(rows, ncols)
        basis = kernel(rows, ncols)
        assert all(type(v) is Fraction for vec in basis for v in vec.values())
        found += len(basis)
    assert found


def test_search_rows_and_kernels_stay_fraction():
    # the search feeds the table's canonical values, int when integral; the
    # kernels it gets back must still be Fractions, or `/` would produce floats
    for sig, k, kappa, tag, w, has_kernel in [
        (Signature(2, 0), 1, 1, "S", Weights.symbol(Fraction(1, 2)), True),
        (Signature(2, 0), 1, 1, "D", Weights.operator(0, 1), False),
        (Signature(3, 1), 1, 1, "D", Weights.operator(Fraction(3, 8), Fraction(5, 8)), True),
    ]:
        monomials = _ansatz_monomials(sig, k, kappa, 0, 1)
        rows = _linear_system(sig, tag, w, monomials)
        values = [v for row in rows for v in row.values()]
        assert all(v and (type(v) is int or type(v) is Fraction and v.denominator > 1) for v in values)
        assert any(type(v) is int for v in values)
        _check(rows, len(monomials))
        basis = kernel(rows, len(monomials))
        assert bool(basis) == has_kernel
        assert all(type(v) is Fraction for vec in basis for v in vec.values())


def test_full_rank_modulo_the_prime_needs_no_exact_elimination(exact_runs):
    rows = [{0: 2, 1: Fraction(1, 3)}, {0: 1, 1: 1}, {1: 5}]
    assert kernel(rows, 2) == [] == _oracle_kernel(rows, 2)
    sig = Signature(3, 1)
    result = search_invariants(sig, 2, 1, "D", Weights.operator(Fraction(1, 4), Fraction(3, 4)))
    assert result.dimension == 0
    assert exact_runs == []


def test_the_certified_subset_is_the_kernel(exact_runs):
    # the third row is the sum of the first two: one exact run on two rows
    rows = [{0: 1, 2: Fraction(-1, 2)}, {1: 3, 2: 1}, {0: 1, 1: 3, 2: Fraction(1, 2)}]
    assert kernel(rows, 3) == _oracle_kernel(rows, 3) == [{0: Fraction(1, 2), 1: Fraction(-1, 3), 2: 1}]
    assert exact_runs == [2]
    # a search system with an invariant: the exact run sees the pivot rows only
    sig, w = Signature(2, 0), Weights.symbol(Fraction(1, 2))
    monomials = _ansatz_monomials(sig, 1, 1, 0, 0)
    system = _linear_system(sig, "S", w, monomials)
    exact_runs.clear()
    assert kernel(system, len(monomials)) == _oracle_kernel(system, len(monomials)) != []
    assert len(exact_runs) == 1 and exact_runs[0] < len(system)


@pytest.mark.parametrize(
    "rows,ncols",
    [
        ([{0: PRIME, 1: 0}, {0: 0, 1: 1}], 2),  # determinant PRIME: rank 2 over Q, 1 mod PRIME
        ([{0: PRIME}, {1: 1}], 3),  # rank drops mod PRIME and the kernel stays nonempty
        ([{0: 1, 1: 1}, {0: 1, 1: 1 + PRIME}], 2),
        ([{0: PRIME + 2, 1: 3}, {0: 4, 1: 6}, {2: 1}], 3),  # determinant 6 PRIME
    ],
)
def test_a_rank_drop_modulo_the_prime_fails_the_check_and_falls_back(exact_runs, rows, ncols):
    assert kernel(rows, ncols) == _oracle_kernel(rows, ncols)
    # the certified subset misses a row, its check fails, then all rows run exactly
    assert len(exact_runs) == 2 and exact_runs[0] < exact_runs[1] == len(rows)


@pytest.mark.parametrize(
    "rows,ncols",
    [
        ([{0: Fraction(1, PRIME), 1: 1}, {1: 2}], 2),
        ([{0: 1, 1: Fraction(3, 2 * PRIME)}, {0: 2, 1: Fraction(3, PRIME)}], 2),
        ([{0: 1}, {1: Fraction(PRIME + 1, PRIME)}, {0: 1, 2: Fraction(1, 7 * PRIME)}], 4),
    ],
)
def test_a_denominator_divisible_by_the_prime_takes_the_exact_path(exact_runs, rows, ncols):
    assert kernel(rows, ncols) == _oracle_kernel(rows, ncols)
    assert exact_runs == [len(rows)]


def test_a_search_at_weight_one_over_the_prime_takes_the_exact_path(exact_runs):
    sig, w = Signature(2, 0), Weights.symbol(Fraction(1, PRIME))
    monomials = _ansatz_monomials(sig, 1, 1, 0, 0)
    system = _linear_system(sig, "T", w, monomials)
    assert any(type(v) is Fraction and v.denominator % PRIME == 0 for row in system for v in row.values())
    assert kernel(system, len(monomials)) == _oracle_kernel(system, len(monomials))
    assert exact_runs == [len(system)]
    exact_runs.clear()
    assert search_invariants(sig, 1, 1, "T", w).dimension == 0
    assert len(exact_runs) == 1


@pytest.mark.parametrize(
    "sig,k,kappa,tag,w,x_degree,h_degree",
    [
        (Signature(3, 1), 3, 1, "D", Weights.operator(Fraction(1, 8), Fraction(7, 8)), 3, 0),
        (Signature(5, 1), 2, 2, "D", Weights.operator(Fraction(1, 3), Fraction(2, 3)), 1, 1),
        (Signature(4, 0), 3, 1, "T", Weights.symbol(Fraction(3, 4)), 2, 0),
    ],
)
def test_the_fill_in_does_not_depend_on_the_row_order(monkeypatch, sig, k, kappa, tag, w, x_degree, h_degree):
    # fill-in: the entry count of the pivot rows of the modular pass
    fill = []
    row_echelon = matutil._row_echelon

    def spy(rows, ncols, modulus=0):
        pivots, used = row_echelon(rows, ncols, modulus)
        if modulus:
            fill.append(sum(map(len, pivots.values())))
        return pivots, used

    monkeypatch.setattr(matutil, "_row_echelon", spy)
    monomials = _ansatz_monomials(sig, k, kappa, x_degree, h_degree)
    system = _linear_system(sig, tag, w, monomials)
    orders = [system, system[::-1]]
    for seed in range(3):
        shuffled = list(system)
        random.Random(seed).shuffle(shuffled)
        orders.append(shuffled)
    bases = [kernel(rows, len(monomials)) for rows in orders]
    assert all(basis == bases[0] for basis in bases)
    assert len(fill) == len(orders) and max(fill) <= 1.01 * min(fill)
