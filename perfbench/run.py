"""supercot benchmark: time to a verified answer on three exact workloads.

    python3 perfbench/run.py --workload classify|verify|operators --seed N \
        --seconds S --trace 0|1

Run it from the root of a supercot checkout: the package is imported
from ``./src`` and nothing is installed.  The run is a closed loop with
one caller.  Each pass of the workload runs in a fresh interpreter
(``worker.py``), so the ``lru_cache`` operator caches in ``confmod`` start
cold, as they do for each CLI call.  Every operation's result is checked
against an independent expectation (see ``workloads.py``); an operation
that raises counts as failed.

``--trace 0`` runs passes for ``--seconds`` (at least one pass; another
starts only if it is expected to end in time) and reports the end-to-end
metrics, each the median over the passes:

* ``wall_s``: time for one pass of the workload, every check included;
* ``peak_rss_mb``: peak resident memory of the worker;
* ``setup_s``: median over several fresh interpreters of importing
  supercot and building the per-signature objects (``setup_probe.py``).

The latency per operation, ``op_p50_ms`` and ``op_p90_ms`` of each pass,
goes into the provenance line and is not gated: ``verify`` has only 16
operations, too few for a 90th percentile, and on a shared 2-core
machine both percentiles read 10-40 % apart between runs, more than the
largest bound a gate may hold.

``--trace 1`` runs one untraced and one traced pass and reports the
per-layer metrics of the traced pass (``tracer.py``) plus
``trace_overhead_frac``, traced wall time over untraced minus one.  The
two passes must agree op by op on the exact results.

The last line of stdout is the JSON result.  The line before it holds the
provenance (Python version, nproc, git sha, seed), ``failed_frac`` and
every raw value; the same record, and the spans of a traced run, go to
``perfbench/out/``.  Without ``src/supercot`` the run exits with code 2
before printing a result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import SIGNATURES, WORKLOADS  # noqa: E402

SETUP_PROBES = 9
DEADLINE_S = 170.0  # every run must end within 180 s


class BenchError(Exception):
    pass


class Runner:
    def __init__(self, root: Path, deadline: float):
        self.root = root
        self.out = HERE / "out"
        self.deadline = deadline
        # A fixed hash seed keeps set iteration order, and so every count, repeatable.
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")

    def child(self, script: str, *args: str) -> str:
        """Run a perfbench script in a fresh interpreter; return its stdout."""
        remaining = self.deadline - perf_counter()
        if remaining <= 0:
            raise BenchError("out of time before starting " + script)
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / script), *args], cwd=self.root, env=self.env,
                stdout=subprocess.PIPE, text=True, timeout=remaining,
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"{script} {' '.join(args)} did not finish in time")
        if proc.returncode != 0:
            raise BenchError(f"{script} {' '.join(args)} exited with {proc.returncode}")
        return proc.stdout

    def setup_samples(self, workload: str) -> list[float]:
        sigs = [f"{p},{q}" for p, q in SIGNATURES[workload]]
        self.child("setup_probe.py", *sigs)  # untimed: writes the bytecode caches
        return [float(self.child("setup_probe.py", *sigs)) for _ in range(SETUP_PROBES)]

    def run_pass(self, workload: str, seed: int, trace: bool) -> dict:
        tag = f"{workload}-seed{seed}-trace{int(trace)}"
        result_path = self.out / f"pass-{tag}.json"
        args = [workload, str(seed), str(int(trace)), str(result_path)]
        if trace:
            args.append(str(self.out / f"spans-{workload}-seed{seed}.json"))
        self.child("worker.py", *args)
        with open(result_path) as fh:
            result = json.load(fh)
        result_path.unlink()
        return result


def percentile_ms(seconds: list[float], pct: int) -> float:
    return statistics.quantiles(seconds, n=100, method="inclusive")[pct - 1] * 1000


def pass_summary(result: dict) -> dict:
    seconds = [op["seconds"] for op in result["ops"]]
    return {
        "wall_s": result["wall_s"],
        "op_p50_ms": percentile_ms(seconds, 50),
        "op_p90_ms": percentile_ms(seconds, 90),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def failed_ops(result: dict) -> list[str]:
    return [op["label"] for op in result["ops"] if not op["ok"]]


def git_sha(root: Path) -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env, timeout=10,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(runner: Runner, args) -> tuple[dict, dict, int, list[str]]:
    """Untraced passes for --seconds, plus the set-up probes."""
    setup = runner.setup_samples(args.workload)
    passes, failures = [], []
    longest = 0.0
    start = perf_counter()
    # Another pass starts only if it is expected to end within --seconds.
    while not passes or perf_counter() - start + longest <= args.seconds:
        began = perf_counter()
        result = runner.run_pass(args.workload, args.seed, trace=False)
        longest = max(longest, perf_counter() - began)
        passes.append(pass_summary(result) | {"ops": len(result["ops"])})
        failures += failed_ops(result)
    metrics = {
        "wall_s": metric(statistics.median(p["wall_s"] for p in passes), "s"),
        "peak_rss_mb": metric(statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
        "setup_s": metric(statistics.median(setup), "s"),
    }
    raw = {"passes": passes, "setup_s_samples": setup}
    return metrics, raw, sum(p["ops"] for p in passes), failures


def measure_traced(runner: Runner, args) -> tuple[dict, dict, int, list[str]]:
    """One untraced and one traced pass; the traced one gives the layer metrics."""
    plain = runner.run_pass(args.workload, args.seed, trace=False)
    traced = runner.run_pass(args.workload, args.seed, trace=True)
    failures = failed_ops(plain) + failed_ops(traced)
    failures += [f"traced result differs: {a['label']}"
                 for a, b in zip(plain["ops"], traced["ops"]) if a["digest"] != b["digest"]]
    if len(plain["ops"]) != len(traced["ops"]):
        failures.append("traced pass ran a different number of ops")
    metrics = {name: metric(value, "s" if name.endswith("_s") or name.endswith(".s") else "count")
               for name, value in traced["layers"].items()}
    metrics["confmod.cache.hit_ratio"]["unit"] = "ratio"
    metrics["trace_overhead_frac"] = metric(traced["wall_s"] / plain["wall_s"] - 1, "ratio")
    raw = {"untraced": pass_summary(plain), "traced": pass_summary(traced)}
    return metrics, raw, len(plain["ops"]) + len(traced["ops"]), failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = perf_counter() + DEADLINE_S

    root = Path.cwd()
    if not (root / "src" / "supercot" / "__init__.py").is_file():
        print(f"perfbench: no src/supercot under {root}; run from a supercot checkout",
              file=sys.stderr)
        return 2
    runner = Runner(root, deadline)
    runner.out.mkdir(exist_ok=True)
    try:
        measured = (measure_traced if args.trace else measure)(runner, args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    metrics, raw, attempted, failures = measured
    for label in failures:
        print(f"perfbench: FAILED {label}", file=sys.stderr)

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(root),
        "attempted": attempted,
        "failed_frac": len(failures) / attempted,
        "raw": raw,
    }
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(runner.out / f"run-{tag}.json", "w") as fh:
        json.dump({"provenance": provenance, "result": result}, fh, indent=1)
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
