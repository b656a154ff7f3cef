"""Set-up cost seen by one fresh interpreter.

    python3 perfbench/setup_probe.py P,Q [P,Q ...]

Imports the supercot CLI (which loads every module), then builds the
fixed per-signature objects: the conformal generators, and the spin
representation for even n.  Prints the seconds from just before the
import to just after the last build.
"""

from time import perf_counter

start = perf_counter()

import sys  # noqa: E402

import supercot.cli  # noqa: E402,F401
from supercot.clifford import build_spin_rep  # noqa: E402
from supercot.superpoly import Signature  # noqa: E402
from supercot.symplectic import conformal_generators  # noqa: E402

for text in sys.argv[1:]:
    sig = Signature(*map(int, text.split(",")))
    conformal_generators(sig)
    if sig.n % 2 == 0:
        build_spin_rep(sig)
print(perf_counter() - start)
