"""The batched search build against the per-monomial loop it replaced.

``_linear_system`` tags each ansatz monomial with its column in a slot
above the p slots of its packed key and applies each generating-set operator once to the
tagged table.  The reference below applies every operator to every
monomial on its own; both must give the same rows, in any order.
"""

import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from supercot import invariants
from supercot.diffop import SuperDiffOp
from supercot.invariants import (
    Weights, _action_operator, _ansatz_monomials, _linear_system, search_invariants,
)
from supercot.superpoly import Signature, unpack_key
from supercot.symplectic import conformal_generating_set

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import classify_cases  # noqa: E402


def per_monomial_rows(sig, tag, weights, monomials):
    """The rows as built before the batched build: one apply per (monomial, operator)."""
    ops = [
        (gen.name, _action_operator(tag, gen, weights, sig))
        for gen in conformal_generating_set(sig)
    ]
    rows = {}
    for col, mono in enumerate(monomials):
        for name, op in ops:
            for key, value in op.apply(mono)._terms.items():
                rows.setdefault((name, unpack_key(key, sig.n)), {})[col] = value
    return list(rows.values())


def row_multiset(rows):
    # the value's type is part of the entry: both builds store canonical values
    return Counter(tuple(sorted((c, v, type(v)) for c, v in row.items())) for row in rows)


def _weights(delta, lam):
    return Weights.symbol(delta) if lam is None else Weights.operator(lam, lam + delta)


def test_batched_rows_equal_the_per_monomial_rows_on_the_classify_grid():
    cases = list(classify_cases(1))
    assert len(cases) == 280
    for p, q, k, kappa, tag, delta, lam in cases:
        sig, weights = Signature(p, q), _weights(delta, lam)
        monomials = _ansatz_monomials(sig, k, kappa, 0, 0)
        got = _linear_system(sig, tag, weights, monomials)
        want = per_monomial_rows(sig, tag, weights, monomials)
        assert row_multiset(got) == row_multiset(want), (p, q, k, kappa, tag, delta, lam)


@pytest.mark.parametrize(
    "sig,k,kappa,tag,weights,x_degree,h_degree",
    [
        (Signature(3, 1), 1, 1, "D", Weights.operator(Fraction(3, 8), Fraction(5, 8)), 2, 1),
        (Signature(1, 1), 2, 1, "S", Weights.symbol(Fraction(1, 3)), 3, 2),
        (Signature(2, 0), 1, 2, "T", Weights.symbol(Fraction(1, 2)), 1, 0),
    ],
)
def test_batched_rows_equal_the_per_monomial_rows_with_x_and_h_degree(
    sig, k, kappa, tag, weights, x_degree, h_degree
):
    monomials = _ansatz_monomials(sig, k, kappa, x_degree, h_degree)
    got = _linear_system(sig, tag, weights, monomials)
    assert got
    assert row_multiset(got) == row_multiset(per_monomial_rows(sig, tag, weights, monomials))


@pytest.mark.parametrize("sig", [Signature(2, 0), Signature(3, 1), Signature(2, 3)], ids=str)
def test_a_search_makes_n_plus_one_applies(monkeypatch, sig):
    weights = Weights.operator(Fraction(1, 8), Fraction(5, 8))
    search_invariants(sig, 1, 1, "D", weights, x_degree=1)  # build the cached operators
    calls = []
    apply = SuperDiffOp.apply

    def counted(self, poly):
        calls.append(poly)
        return apply(self, poly)

    monkeypatch.setattr(SuperDiffOp, "apply", counted)
    search_invariants(sig, 1, 1, "D", weights, x_degree=1)
    assert len(_ansatz_monomials(sig, 1, 1, 1, 0)) > sig.n + 1
    assert len(calls) == sig.n + 1


def test_the_column_tag_refuses_a_column_count_at_the_slot_limit(monkeypatch):
    sig = Signature(2, 0)
    weights = Weights.symbol(Fraction(1, 2))
    monomials = _ansatz_monomials(sig, 1, 1, 0, 0)
    assert len(monomials) == 4
    monkeypatch.setattr(invariants, "SLOT_LIMIT", 5)
    assert _linear_system(sig, "S", weights, monomials)
    monkeypatch.setattr(invariants, "SLOT_LIMIT", 4)
    with pytest.raises(ValueError, match="slot limit 4"):
        _linear_system(sig, "S", weights, monomials)
