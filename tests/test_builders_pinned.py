"""The conformal-field builders, pinned.

``verify`` prints only ``ok`` and case counts, so the CLI digests do not
see the operators and polynomials built from a conformal field.  This
digest covers the printed form of each of them, for every generator and
every bracket of two generators, at (3,1) and (2,2).
"""

import hashlib
from fractions import Fraction

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
