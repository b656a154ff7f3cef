"""Checks of the benchmark itself; run from the root of a supercot checkout.

    python3 perfbench/selfcheck.py [--seed N] [--workload W ...]

1. Failure accounting: a deliberately wrong expectation and an operation
   that raises are both counted as failed.
2. The classification rule the classify workload expects
   (``workloads.expected_dimension``) agrees with supercot's own
   ``predicted_dimension`` on every classify operation.
3. Transparent tracing: an untraced and a traced pass give identical
   exact results op by op, which for ``verify`` is the CLI's JSON text.
4. Exact counts: two traced passes with the same seed give identical
   ``*.calls``, ``confmod.cache.*`` and ``invariants.kernel_dim_sum``.

Checks 3 and 4 run three passes per workload (a few minutes in all).
Exits 0 when every check passes.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(Path.cwd() / "src"))

from run import Runner  # noqa: E402
from worker import namespace, run_ops  # noqa: E402
from workloads import WORKLOADS, search_op, classify_cases, expected_dimension  # noqa: E402


def check_failure_accounting(sc) -> list[str]:
    sig = sc.Signature(2, 0)
    weights = sc.Weights.symbol(Fraction(0))
    ops = [
        ("right", search_op(sc, sig, 0, 0, "T", weights, 1)),
        ("wrong expectation", search_op(sc, sig, 0, 0, "T", weights, 2)),
        ("raises", search_op(sc, sig, 0, 0, "no-such-module", weights, 0)),
    ]
    failed = [rec["label"] for rec in run_ops(ops) if not rec["ok"]]
    if failed != ["wrong expectation", "raises"]:
        return [f"failure accounting counted {failed}"]
    return []


def check_expected_dimension(sc, seed: int) -> list[str]:
    from supercot.invariants import predicted_dimension

    problems = []
    for p, q, k, kappa, tag, delta, lam in classify_cases(seed):
        weights = sc.Weights.symbol(delta) if lam is None else sc.Weights.operator(lam, lam + delta)
        mine = expected_dimension(p + q, k, kappa, tag, delta, lam)
        theirs = predicted_dimension(sc.Signature(p, q), k, kappa, tag, weights)
        if mine != theirs:
            problems.append(f"({p},{q}) {tag}({k},{kappa}) {weights}: {mine} != {theirs}")
    return problems


def check_tracing(runner: Runner, workload: str, seed: int) -> list[str]:
    plain = runner.run_pass(workload, seed, trace=False)
    first = runner.run_pass(workload, seed, trace=True)
    second = runner.run_pass(workload, seed, trace=True)
    problems = []
    digests = [[op["digest"] for op in r["ops"]] for r in (plain, first, second)]
    if not digests[0] == digests[1] == digests[2]:
        problems.append(f"{workload}: traced and untraced results differ")
    for name, value in first["layers"].items():
        exact = name.endswith(".calls") or name.startswith("confmod.cache.") or \
            name == "invariants.kernel_dim_sum"
        if exact and value != second["layers"][name]:
            problems.append(f"{workload}: {name} {value} != {second['layers'][name]}")
    if any(not op["ok"] for r in (plain, first, second) for op in r["ops"]):
        problems.append(f"{workload}: an operation failed")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args()
    sc = namespace()
    problems = check_failure_accounting(sc) + check_expected_dimension(sc, args.seed)
    print(f"failure accounting and expected dimensions: {'ok' if not problems else problems}")
    runner = Runner(Path.cwd(), deadline=perf_counter() + 3600)
    runner.out.mkdir(exist_ok=True)
    for workload in args.workload or sorted(WORKLOADS):
        start = perf_counter()
        found = check_tracing(runner, workload, args.seed)
        print(f"{workload}: tracing transparent, counts exact: {'ok' if not found else found}"
              f" ({perf_counter() - start:.0f} s)")
        problems += found
    for line in problems:
        print(f"FAILED {line}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
