"""Span and count recording around the public entry points of each supercot module.

The package itself is untouched: ``Tracer.install`` replaces each traced
function or method with a wrapper, in the module that defines it and in
every supercot module that imported the name (``star_mul`` is bound by
name in ``invariants``, ``spinop``, ``clifford`` and ``verify``).  Only the
traced pass installs it.

A span is ``(name, op, start, end, parent)``: ``op`` is the index of the
benchmark operation it belongs to (spans of one operation share it) and
``parent`` the index of the enclosing span, or -1.  Self time is a span's
duration minus the time its child spans cover; children of one span never
overlap, because the program runs on one thread.

``SuperPolynomial`` mul/add/derive run about a million times per pass:
they are timed (calls and self time) but keep no span record, which
would cost hundreds of megabytes.  ``Scalar`` ring operations are only
counted: at about 9 microseconds each, timing them would cost as much as
the operation.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

from workloads import VERIFY_SUITES

# (metric prefix, module, attribute path); several entries may share a prefix.
TIMED = (
    ("superpoly.mul", "superpoly", "SuperPolynomial.__mul__"),
    ("superpoly.add", "superpoly", "SuperPolynomial.__add__"),
    ("superpoly.derive", "superpoly", "SuperPolynomial.derive"),
)
SPANNED = (
    ("diffop.apply", "diffop", "SuperDiffOp.apply"),
    ("diffop.compose", "diffop", "SuperDiffOp.compose"),
    ("spinop.compose", "spinop", "SpinorDiffOp.compose"),
    ("star.star_mul", "star", "star_mul"),
    ("symplectic.poisson", "symplectic", "poisson"),
    ("symplectic.hamiltonian_lift", "symplectic", "hamiltonian_lift"),
    ("clifford.kosmann_lie", "clifford", "kosmann_lie"),
    ("clifford.build_spin_rep", "clifford", "build_spin_rep"),
    ("matutil.mat_mul", "matutil", "mat_mul"),
    ("confmod.act", "confmod", "act_T"),
    ("confmod.act", "confmod", "act_S"),
    ("confmod.act", "confmod", "act_D_symbolside"),
    ("confmod.act_D_direct", "confmod", "act_D_direct"),
    ("confmod.normal_order", "confmod", "normal_order"),
    ("invariants.search", "invariants", "search_invariants"),
    ("invariants.check", "invariants", "check_invariance"),
    ("invariants.dirac_power", "invariants", "dirac_power"),
    ("verify.suite", "verify", "run_suite"),
    ("cli.main", "cli", "main"),
)
COUNTED = (
    ("coeff.scalar_mul", "coeff", "Scalar.__mul__"),
    ("coeff.scalar_add", "coeff", "Scalar.__add__"),
)
# lru_cache'd operator builders whose cache_info() gives the confmod cache metrics.
CONFMOD_CACHES = ("tensorial_operator", "hamiltonian_operator", "operator_symbol_action")


class Tracer:
    def __init__(self):
        self.op = -1
        self.spans: list = []
        self._stack: list = []  # [index of nearest kept span, time covered by children]
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.kernel_dim_sum = 0
        self._undo: list = []

    # -- wrappers -------------------------------------------------------------

    def _timed_wrapper(self, prefix, fn, keep_span=False):
        """Count calls and add self and total time; keep_span also records the span."""
        spans, stack, calls = self.spans, self._stack, self.calls
        self_s, total_s = self.self_s, self.total_s
        suite_name = prefix == "verify.suite"
        search = prefix == "invariants.search"

        def wrapper(*args, **kwargs):
            name = f"verify.suite.{args[0]}" if suite_name else prefix
            parent = stack[-1][0] if stack else -1
            if keep_span:
                idx = len(spans)
                spans.append(None)
            frame = [idx if keep_span else parent, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                calls[name] += 1
                self_s[name] += duration - frame[1]
                total_s[name] += duration
                if keep_span:
                    spans[idx] = (name, self.op, start, end, parent)
            if search:
                self.kernel_dim_sum += result.dimension
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _span_wrapper(self, prefix, fn):
        return self._timed_wrapper(prefix, fn, keep_span=True)

    def _count_wrapper(self, prefix, fn):
        calls = self.calls

        def wrapper(*args):
            calls[prefix] += 1
            return fn(*args)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Patch every traced name wherever a supercot module holds it."""
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "supercot" or name.startswith("supercot.")}
        entries = [(p, m, a, self._span_wrapper) for p, m, a in SPANNED]
        entries += [(p, m, a, self._timed_wrapper) for p, m, a in TIMED]
        entries += [(p, m, a, self._count_wrapper) for p, m, a in COUNTED]
        for prefix, module, path, make in entries:
            owner = mods[f"supercot.{module}"]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            wrapper = make(prefix, original)
            self._set(owner, attr, wrapper)
            if not outer:
                for mod in mods.values():
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, key, wrapper)

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- results ----------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric; a layer the workload never reached reads 0.

        ``verify.suite.<name>.s`` is a suite's inclusive time, every other
        time is self time.
        """
        out: dict[str, float] = {}
        for prefix in dict.fromkeys(p for p, _m, _a in TIMED + SPANNED):
            if prefix == "verify.suite":
                for suite in VERIFY_SUITES:
                    out[f"verify.suite.{suite}.s"] = self.total_s.get(f"verify.suite.{suite}", 0.0)
                continue
            if prefix != "cli.main":
                out[f"{prefix}.calls"] = self.calls.get(prefix, 0)
            out[f"{prefix}.self_s"] = self.self_s.get(prefix, 0.0)
        for prefix, _m, _a in COUNTED:
            out[f"{prefix}.calls"] = self.calls.get(prefix, 0)
        out["invariants.kernel_dim_sum"] = self.kernel_dim_sum
        return out


def confmod_cache_metrics(confmod) -> dict[str, float]:
    """Hits and misses summed over the confmod operator caches, from cache_info()."""
    hits = misses = 0
    for name in CONFMOD_CACHES:
        info = getattr(confmod, name).cache_info()
        hits += info.hits
        misses += info.misses
    total = hits + misses
    return {
        "confmod.cache.hits": hits,
        "confmod.cache.misses": misses,
        "confmod.cache.hit_ratio": hits / total if total else 0.0,
    }
