"""The conformal-field builders, pinned.

``verify`` prints only ``ok`` and case counts, so the CLI digests do not
see the operators and polynomials built from a conformal field.  This
digest covers the printed form of each of them, for every generator and
every bracket of two generators, at (3,1) and (2,2).

Printers sort, so that digest does not see the order of the terms in a
table.  A search's rows follow the order of its operators' terms, and row
order steers the fill-in of exact elimination, so a second digest pins
the tables of the same builders in their stored order.
"""

import hashlib
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from supercot.clifford import kosmann_lie
from supercot.confmod import hamiltonian_operator, operator_symbol_action, tensorial_operator
from supercot.superpoly import Signature
from supercot.symplectic import (
    comoment_even,
    comoment_odd,
    conformal_generators,
    conformal_killing_factor,
    divergence,
    hamiltonian_lift,
    vf_bracket,
)

# recorded before the builders read their derivatives from superpoly.gradient
BUILDER_DIGEST = "5d1a299cb98e90e822869fb93788c89caa9d4ab7a7eb82f1844693b58d92036a"
# recorded once comoment_odd was no longer cached: a bracket equal to a generator keeps its own
# odd comoment order rather than the generator's
TABLE_ORDER_DIGEST = "5cb9f46a2ef62b431a789ced53d83c3417c88523f2f803b1e9b71378a89a17fb"

DELTA, LAM, MU, WEIGHT = Fraction(1, 3), Fraction(1, 5), Fraction(8, 15), Fraction(1, 2)


def _fields(sig):
    gens = conformal_generators(sig)
    return gens + [vf_bracket(X, Y) for X in gens for Y in gens]


def _printed(sig):
    for X in _fields(sig):
        yield str(X)
        yield str(divergence(X))
        yield str(conformal_killing_factor(X, sig))
        yield str(hamiltonian_lift(X, sig))
        yield str(comoment_even(X, sig))
        yield str(comoment_odd(X, sig))
        yield str(tensorial_operator(X, DELTA, sig))
        yield str(hamiltonian_operator(X, DELTA, sig))
        yield str(operator_symbol_action(X, LAM, MU, sig))
        yield str(kosmann_lie(X, sig, WEIGHT).symbol)


def test_builders_match_pinned_digest():
    text = [line for sig in (Signature(3, 1), Signature(2, 2)) for line in _printed(sig)]
    assert hashlib.sha256("\n".join(text).encode()).hexdigest() == BUILDER_DIGEST


def _stored(sig):
    for X in _fields(sig):
        ops = (hamiltonian_lift(X, sig), tensorial_operator(X, DELTA, sig), hamiltonian_operator(X, DELTA, sig),
               operator_symbol_action(X, LAM, MU, sig))
        for op in ops:
            yield repr([(key, list(coeff._terms.items())) for key, coeff in op._terms.items()])
        for poly in (comoment_even(X, sig), comoment_odd(X, sig), kosmann_lie(X, sig, WEIGHT).symbol):
            yield repr(list(poly._terms.items()))


def stored_digest() -> str:
    text = [line for sig in (Signature(3, 1), Signature(2, 2)) for line in _stored(sig)]
    return hashlib.sha256("\n".join(text).encode()).hexdigest()


def test_builders_keep_their_pinned_term_order():
    # In a fresh interpreter: the builder caches are keyed by field value, so a field that an
    # earlier test built equal to a generator, with its terms in another order, would lend the
    # generator the table order built from it.
    path = os.pathsep.join(filter(None, [str(Path(__file__).resolve().parent), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "from test_builders_pinned import stored_digest; print(stored_digest())"],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, check=True,
    )
    assert proc.stdout.strip() == TABLE_ORDER_DIGEST
