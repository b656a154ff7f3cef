"""Command-line surface: verification suites, invariance checks and exports.

Exit codes: 0 on success (or verified invariance), 1 when a verification
or invariance check fails, 2 on usage, parse or consistency errors, 141
(128 + SIGPIPE) when the reader closes stdout before the output ends.  A
refusal is a ValueError (ParseError among them) or ZeroDivisionError,
raised by the library or by this module, and one handler in ``main`` maps
it to an ``error:`` line on stderr and exit code 2.  All
numeric output is exact; rationals print as num/den.  The randomised
suites of verify take --seed (default 0), which no other subcommand
accepts, and identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from math import isqrt

from .clifford import build_spin_rep
from .invariants import (
    MAX_DIRAC_TERMS,
    Weights,
    check_invariance,
    dirac_power,
    search_invariants,
)
from .matutil import dense, to_json as matrix_to_json
from .parse import ParseError, sp_parse
from .superpoly import Signature, SuperPolynomial
from .verify import SUITES, check_suite, run_suite

USAGE_ERROR, CHECK_FAILED, OK = 2, 1, 0
BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a process killed by it

MAX_DIM = isqrt(MAX_DIRAC_TERMS)
"""Largest --dim any subcommand accepts: 282, the largest n of any limit below.

dirac-power --s 0 has n terms of n exponents each, so MAX_DIRAC_TERMS
admits n <= 282; every other limit is lower.  Without the cap, parse x1
--dim 10000000 takes 4.7 s and 323 MB (2-core x86-64, Python 3.11);
with it, every --dim above 282 exits 2 at once.
"""


def _signature(args) -> Signature:
    dim = args.dim
    if dim > MAX_DIM:
        raise ValueError(f"dimension {dim} exceeds the limit MAX_DIM = {MAX_DIM}")
    if args.signature:
        try:
            p, q = (int(part) for part in args.signature.split(","))
        except ValueError:
            raise ValueError(f"cannot parse signature {args.signature!r}, expected p,q") from None
        if p + q != dim:
            raise ValueError(f"signature {p},{q} does not sum to dimension {dim}")
    else:
        p, q = dim, 0
    return Signature(p, q)


def _fraction(text: str, label: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"cannot parse {label} {text!r} as a rational") from None


def _weights(args, module: str) -> Weights:
    delta = _fraction(args.delta, "--delta") if args.delta is not None else None
    lam = _fraction(args.lam, "--lambda") if args.lam is not None else None
    mu = _fraction(args.mu, "--mu") if args.mu is not None else None
    if module == "D":
        if lam is None or mu is None:
            raise ValueError("module D requires --lambda and --mu")
    elif lam is not None or mu is not None:
        raise ValueError(f"module {module} takes --delta only: --lambda and --mu weigh module D")
    elif delta is None:
        raise ValueError(f"module {module} requires --delta")
    return Weights(delta=delta, lam=lam, mu=mu)  # checks delta = mu - lambda


def _read_expression(raw: str) -> str:
    if raw.startswith("@"):
        try:
            with open(raw[1:], "r", encoding="utf-8") as handle:
                return handle.read()
        except OSError as exc:
            raise ValueError(f"cannot read {raw[1:]!r}: {exc.strerror or exc}") from None
    return raw


def _print_json(payload) -> None:
    """Write the bytes of print(json.dumps(payload, indent=2)) in batches of chunks.

    Joining a batch at a time keeps memory bounded by the batch, not the
    document, and makes one write per batch rather than per chunk, which
    matters when stdout writes through (python -u).
    """
    chunks = json.JSONEncoder(indent=2).iterencode(payload)
    while batch := "".join(islice(chunks, 4096)):  # the encoder yields no empty chunk
        sys.stdout.write(batch)
    sys.stdout.write("\n")


def _specialize_poly(poly: SuperPolynomial, value: Fraction) -> SuperPolynomial:
    terms = {}
    for key, coeff in poly.items():
        terms[key] = coeff.specialize_h(value)
    return SuperPolynomial(poly.n, terms)


# -- subcommands ------------------------------------------------------------------


def cmd_verify(args) -> int:
    sig = _signature(args)
    if args.suite == "all":
        names = [name for name, (_f, needs_even) in SUITES.items() if not (needs_even and sig.n % 2)]
    else:
        if args.suite not in SUITES:
            raise ValueError(f"unknown suite {args.suite!r}; choose from {', '.join(SUITES)} or all")
        names = [args.suite]
    for name in names:  # every limit is checked before any suite runs
        check_suite(name, sig)
    results = [(name, run_suite(name, sig, args.seed)) for name in names]
    all_ok = all(row.ok for _name, rows in results for row in rows)
    if args.format == "json":
        payload = {
            "dim": sig.n,
            "signature": [sig.p, sig.q],
            "seed": args.seed,
            "suites": [
                {"suite": name, "checks": [row.to_json() for row in rows]}
                for name, rows in results
            ],
            "ok": all_ok,
        }
        _print_json(payload)
    else:
        for name, rows in results:
            for row in rows:
                status = "PASS" if row.ok else "FAIL"
                line = f"[{status}] {row.name} ({row.cases} cases)"
                if row.detail:
                    line += f" :: {row.detail}"
                print(line)
        print(f"verify: {'all checks passed' if all_ok else 'FAILURES detected'}")
    return OK if all_ok else CHECK_FAILED


def cmd_check(args) -> int:
    sig = _signature(args)
    weights = _weights(args, args.module)
    poly = sp_parse(_read_expression(args.expr), sig.n)
    report = check_invariance(poly, args.module, weights, sig)
    if args.format == "json":
        payload = {
            "candidate": poly.to_json(),
            "module": args.module,
            "weights": weights.to_json(),
            "residuals": [
                {"generator": name, "zero": res.is_zero(), "residual": res.to_json()}
                for name, res in report.residuals
            ],
            "invariant": report.invariant,
        }
        _print_json(payload)
    else:
        for name, res in report.residuals:
            print(f"{name}: {res}")
        print(f"verdict: {'invariant' if report.invariant else 'non-invariant'}")
    return OK if report.invariant else CHECK_FAILED


def cmd_search(args) -> int:
    sig = _signature(args)
    weights = _weights(args, args.module)
    try:
        k_str, kappa_str = args.bidegree.split(",")
        k, kappa = int(k_str), int(kappa_str)
    except ValueError:
        raise ValueError(f"cannot parse bidegree {args.bidegree!r}, expected k,kappa") from None
    result = search_invariants(
        sig, k, kappa, args.module, weights, x_degree=args.x_degree, h_degree=args.h_degree,
    )
    basis = list(result.basis)
    if args.specialize_h is not None:
        value = _fraction(args.specialize_h, "--specialize-h")
        basis = [_specialize_poly(b, value) for b in basis]
    if args.format == "json":
        payload = result.to_json()
        payload["basis"] = [b.to_json() for b in basis]
        _print_json(payload)
    else:
        print(
            f"module {args.module}, signature ({sig.p},{sig.q}), bidegree ({k},{kappa}), "
            f"weights {weights.to_json()}"
        )
        print(f"invariant dimension: {result.dimension}")
        for b in basis:
            print(f"  {b}")
    return OK


def cmd_dirac_power(args) -> int:
    sig = _signature(args)
    power = dirac_power(args.s, sig)
    op = power.operator
    if args.format == "json":
        payload = {
            "s": power.power,
            "weights": power.weights.to_json(),
            "symbol": power.symbol.to_json(),
            "operator": op.to_json(),
        }
        _print_json(payload)
    else:
        print(f"weights: lambda = {power.weights.lam}, mu = {power.weights.mu}")
        print(f"symbol: {power.symbol}")
        print(f"operator (gamma normalisation): {op.render_gamma()}")
    return OK


def cmd_spin_rep(args) -> int:
    sig = _signature(args)
    rep = build_spin_rep(sig)
    matrix = rep.gamma_matrix if args.normalization == "gamma" else rep.c_matrix
    mats = [matrix(i) for i in range(1, sig.n + 1)]
    if args.format == "json":
        payload = {
            "signature": [sig.p, sig.q],
            "normalization": args.normalization,
            "size": rep.size,
            "matrices": [matrix_to_json(mat) for mat in mats],
        }
        _print_json(payload)
    else:
        label = "gamma" if args.normalization == "gamma" else "c"
        for i, mat in enumerate(mats, start=1):
            print(f"{label}{i}:")
            for row in dense(mat):
                print("  [" + ", ".join(str(entry) for entry in row) + "]")
    return OK


def cmd_parse(args) -> int:
    """Print the canonical form; exponents above parse.MAX_EXPONENT exit 2."""
    sig = _signature(args)
    poly = sp_parse(_read_expression(args.expr), sig.n)
    if args.specialize_h is not None:
        poly = _specialize_poly(poly, _fraction(args.specialize_h, "--specialize-h"))
    if args.format == "json":
        _print_json(poly.to_json())
    else:
        print(poly)
    return OK


# -- argument plumbing ----------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dim", type=int, default=2, help="dimension n (default 2)")
    parser.add_argument(
        "--signature", default=None, help="metric signature p,q (default Euclidean n,0)"
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")


def _add_specialize_h(parser: argparse.ArgumentParser) -> None:
    """Only for subcommands that emit polynomials with h in them."""
    parser.add_argument(
        "--specialize-h", default=None, metavar="RAT",
        help="substitute a rational value for h in emitted polynomials",
    )


def _add_weight_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--module", choices=("T", "S", "D"), required=True)
    parser.add_argument("--delta", default=None, help="symbol weight (rational)")
    parser.add_argument("--lambda", dest="lam", default=None, help="operator source weight")
    parser.add_argument("--mu", default=None, help="operator target weight")


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process.  It holds no command
    function: ``main`` looks ``cmd_<command>`` up when it runs one."""
    parser = argparse.ArgumentParser(
        prog="supercot",
        description="Exact symbolic calculus on the flat supercotangent chart",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run a named property suite")
    p.add_argument("--suite", required=True, help=f"one of {', '.join(SUITES)}, or all")
    p.add_argument("--seed", type=int, default=0, help="seed for randomised suites")
    _add_common(p)

    p = sub.add_parser("check", help="check conformal invariance of an expression")
    p.add_argument("expr", help="expression, or @path to read from a file")
    _add_weight_flags(p)
    _add_common(p)

    p = sub.add_parser("search", help="search invariants in a fixed bidegree")
    p.add_argument("--bidegree", required=True, help="k,kappa")
    p.add_argument("--x-degree", type=int, default=0, help="allow x-dependence up to this degree")
    p.add_argument("--h-degree", type=int, default=0, help="allow h-powers up to this degree")
    _add_weight_flags(p)
    _add_common(p)
    _add_specialize_h(p)

    p = sub.add_parser("dirac-power", help="emit the conformal odd power N(Delta R^s)")
    p.add_argument("--s", type=int, default=0, help="power of the free Hamiltonian R")
    _add_common(p)

    p = sub.add_parser("spin-rep", help="emit the spinor representation matrices")
    p.add_argument(
        "--normalization", choices=("c", "gamma"), default="gamma",
        help="matrix normalisation: c (stars of xi) or gamma = sqrt2 c",
    )
    _add_common(p)

    p = sub.add_parser("parse", help="parse an expression to canonical form")
    p.add_argument("expr", help="expression, or @path to read from a file")
    _add_common(p)
    _add_specialize_h(p)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = globals()["cmd_" + args.command.replace("-", "_")](args)
        sys.stdout.flush()  # a closed reader raises here, not at interpreter exit
        return code
    except ParseError as exc:
        print(f"error: parse error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (ValueError, ZeroDivisionError) as exc:  # every refusal, the library's and our own
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except BrokenPipeError:
        # Output is cut short by the reader, not by a failed check.  What is
        # still buffered goes to devnull, so the exit-time flush cannot raise.
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, OSError, ValueError):  # an in-memory stdout
            return BROKEN_PIPE
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)
        return BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
