"""One pass of one workload, in a fresh interpreter so the confmod caches start cold.

    python3 perfbench/worker.py WORKLOAD SEED TRACE RESULT_JSON [SPANS_JSON]

Runs the workload's operations one after another (a closed loop with one
caller), times each, and writes the per-op records, the pass wall time
and the peak RSS to RESULT_JSON.  With TRACE=1 the tracer is installed
first, and the per-layer metrics go into RESULT_JSON and the spans into
SPANS_JSON.  ``supercot`` must be importable (run.py puts ``src`` on
PYTHONPATH).
"""

from __future__ import annotations

import json
import resource
import sys
import traceback
import types
from time import perf_counter

from tracer import Tracer, confmod_cache_metrics
from workloads import WORKLOADS


def namespace():
    """The entry points the workloads call, read after any patching."""
    from supercot import cli, confmod, invariants, superpoly, symplectic

    return types.SimpleNamespace(
        Signature=superpoly.Signature,
        Weights=invariants.Weights,
        search_invariants=invariants.search_invariants,
        check_invariance=invariants.check_invariance,
        dirac_power=invariants.dirac_power,
        conformal_generators=symplectic.conformal_generators,
        act_D_direct=confmod.act_D_direct,
        act_D_symbolside=confmod.act_D_symbolside,
        normal_order=confmod.normal_order,
        normal_order_inverse=confmod.normal_order_inverse,
        cli_main=cli.main,
    )


def run_ops(ops, tracer: Tracer | None = None) -> list[dict]:
    """Run each (label, op) in order; an op that raises counts as failed."""
    records = []
    for index, (label, op) in enumerate(ops):
        if tracer is not None:
            tracer.op = index
        start = perf_counter()
        try:
            ok, digest = op()
        except Exception as exc:  # one failing op must not stop the pass
            traceback.print_exc(file=sys.stderr)
            ok, digest = False, f"raised {type(exc).__name__}: {exc}"
        records.append({"label": label, "ok": bool(ok), "digest": digest,
                        "seconds": perf_counter() - start})
    return records


def main(argv: list[str]) -> int:
    workload, seed, trace, result_path = argv[0], int(argv[1]), argv[2] == "1", argv[3]
    import supercot.cli  # noqa: F401  (loads every module the tracer patches)
    from supercot import confmod

    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()
    ops = WORKLOADS[workload](namespace(), seed)
    start = perf_counter()
    records = run_ops(ops, tracer)
    wall = perf_counter() - start
    result = {
        "ops": records,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = {**tracer.metrics(), **confmod_cache_metrics(confmod)}
        with open(argv[4], "w") as fh:
            json.dump({"fields": ["name", "op", "start", "end", "parent"],
                       "spans": tracer.spans}, fh, separators=(",", ":"))
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
