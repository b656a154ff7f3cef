import hashlib
import json
import os
import subprocess
import sys
import time

import pytest

from supercot.cli import main
from supercot.superpoly import SuperPolynomial


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_golden_check_commands(capsys):
    code, out, _ = run_cli(
        capsys, "check", "p1*xi1+p2*xi2", "--module", "S", "--delta", "1/2", "--dim", "2"
    )
    assert code == 0 and "verdict: invariant" in out
    code, out, _ = run_cli(
        capsys, "check", "p1^2+p2^2", "--module", "S", "--delta", "1", "--dim", "2"
    )
    assert code == 1 and "verdict: non-invariant" in out
    code, out, _ = run_cli(
        capsys, "check", "p1^2+p2^2", "--module", "T", "--delta", "1", "--dim", "2"
    )
    assert code == 0 and "verdict: invariant" in out


def test_usage_errors(capsys):
    code, _, err = run_cli(
        capsys, "check", "p1*(", "--module", "S", "--delta", "1", "--dim", "2"
    )
    assert code == 2 and "parse error" in err
    code, _, err = run_cli(
        capsys, "check", "p1", "--module", "D", "--delta", "1", "--dim", "2"
    )
    assert code == 2 and "lambda" in err
    code, _, err = run_cli(
        capsys, "check", "p1", "--module", "S", "--delta", "1",
        "--dim", "3", "--signature", "2,2",
    )
    assert code == 2 and "sum" in err
    code, _, err = run_cli(capsys, "verify", "--suite", "bogus")
    assert code == 2 and "unknown suite" in err
    code, _, err = run_cli(capsys, "dirac-power", "--s", "1", "--dim", "3")
    assert code == 2
    code, _, err = run_cli(capsys, "verify", "--suite", "kosmann", "--dim", "3")
    assert code == 2 and "even" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("check", "p1", "--module", "S", "--delta", "1", "--dim", "1"),
        ("verify", "--suite", "spinrep", "--dim", "0"),
        ("search", "--bidegree", "1,1", "--module", "S", "--delta", "1/2", "--dim", "0"),
        ("check", "@{missing}", "--module", "S", "--delta", "1", "--dim", "2"),
    ],
)
def test_bad_inputs_exit_2_without_traceback(capsys, tmp_path, argv):
    argv = [arg.format(missing=tmp_path / "missing.txt") for arg in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("module", ["T", "S"])
@pytest.mark.parametrize("flags", [("--lambda", "5", "--mu", "9"), ("--lambda", "5"), ("--mu", "9")], ids=" ".join)
@pytest.mark.parametrize(
    "argv",
    [("check", "p1*xi1+p2*xi2"), ("search", "--bidegree", "1,1")],
    ids=lambda argv: argv[0],
)
def test_operator_weights_are_rejected_outside_module_d(capsys, argv, flags, module):
    code, out, err = run_cli(capsys, *argv, "--module", module, "--delta", "1/2", *flags, "--dim", "2")
    assert code == 2 and out == ""
    assert err.startswith(f"error: module {module} takes --delta only") and "Traceback" not in err


def test_module_d_weights_must_satisfy_delta_is_mu_minus_lambda(capsys):
    base = ("check", "p1*xi1+p2*xi2", "--module", "D", "--lambda", "1/4", "--mu", "3/4", "--dim", "2")
    code, out, err = run_cli(capsys, *base, "--delta", "1/3")
    assert code == 2 and out == "" and "delta must equal mu - lambda" in err
    code, out, _ = run_cli(capsys, *base, "--delta", "1/2")
    assert code == 0 and out == run_cli(capsys, *base)[1]


def test_check_json_and_file_input(capsys, tmp_path):
    path = tmp_path / "expr.txt"
    path.write_text("p1*xi1 + p2*xi2\n")
    code, out, _ = run_cli(
        capsys, "check", f"@{path}", "--module", "S", "--delta", "1/2",
        "--dim", "2", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["invariant"] is True
    assert payload["weights"] == {"delta": "1/2"}
    assert all(entry["zero"] for entry in payload["residuals"])
    assert len(payload["residuals"]) == 6


def test_search_json_schema(capsys):
    code, out, _ = run_cli(
        capsys, "search", "--dim", "2", "--bidegree", "1,1", "--module", "S",
        "--delta", "1/2", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["dimension"] == 2
    assert payload["signature"] == [2, 0]
    rebuilt = [SuperPolynomial.from_json(b) for b in payload["basis"]]
    assert len(rebuilt) == 2


def test_search_rejects_negative_ansatz_degrees(capsys):
    # an empty ansatz used to print "invariant dimension: 0" and exit 0
    for flag in ("--h-degree", "--x-degree"):
        code, out, err = run_cli(
            capsys, "search", "--dim", "2", "--bidegree", "1,1", "--module", "S",
            "--delta", "1/2", flag, "-1",
        )
        assert code == 2 and out == "" and "non-negative" in err


@pytest.mark.parametrize("bidegree,x_degree", [("2,1", "100000"), ("100000,0", "0")])
def test_search_refuses_an_ansatz_above_the_limit(capsys, monkeypatch, bidegree, x_degree):
    from supercot import invariants

    def never(*args):
        raise AssertionError("the ansatz must be sized before any monomial is built")

    monkeypatch.setattr(invariants, "_ansatz_monomials", never)
    code, out, err = run_cli(
        capsys, "search", "--dim", "4", "--bidegree", bidegree, "--module", "S",
        "--delta", "1/2", "--x-degree", x_degree,
    )
    assert code == 2 and out == ""
    assert err.startswith("error: ") and str(invariants.MAX_ANSATZ) in err


@pytest.mark.parametrize("s,dim", [("200", "4"), ("3", "40")])
def test_dirac_power_refuses_a_symbol_above_the_limit(capsys, monkeypatch, s, dim):
    from supercot import invariants

    def never(*args):
        raise AssertionError("Delta R^s must be sized before any symbol is built")

    monkeypatch.setattr(invariants, "canonical_symbol", never)
    code, out, err = run_cli(capsys, "dirac-power", "--s", s, "--dim", dim)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and f"MAX_DIRAC_TERMS = {invariants.MAX_DIRAC_TERMS}" in err


def test_spin_rep_refuses_a_module_above_the_limit(capsys, monkeypatch):
    from supercot import clifford

    def never(*args):
        raise AssertionError("the spin module must be sized before any matrix is built")

    monkeypatch.setattr(clifford, "_ladder_matrix", never)
    code, out, err = run_cli(capsys, "spin-rep", "--dim", "24")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and f"MAX_SPIN_SIDE = {clifford.MAX_SPIN_SIDE}" in err


@pytest.mark.parametrize("suite,dim,refused", [
    ("spinrep", "16", "spinrep"), ("all", "14", "poisson"), ("spinrep", "12", "spinrep"),
])
def test_verify_refuses_a_suite_above_its_limit(capsys, monkeypatch, suite, dim, refused):
    from supercot import verify

    def never(*args):
        raise AssertionError("every suite limit must be checked before any suite runs")

    monkeypatch.setattr(verify, "SUITES", {name: (never, even) for name, (_f, even) in verify.SUITES.items()})
    code, out, err = run_cli(capsys, "verify", "--suite", suite, "--dim", dim)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and f"suite {refused!r} in dimension {dim}" in err
    assert f"MAX_SUITE_DIM = {verify.MAX_SUITE_DIM}" in err


@pytest.mark.parametrize("suite", ["spinrep", "all"])
def test_verify_refuses_spinrep_at_p_below_q_before_any_suite_runs(capsys, monkeypatch, suite):
    from supercot import verify

    def never(*args):
        raise AssertionError("every suite limit must be checked before any suite runs")

    monkeypatch.setattr(verify, "SUITES", {name: (never, even) for name, (_f, even) in verify.SUITES.items()})
    code, out, err = run_cli(capsys, "verify", "--suite", suite, "--dim", "4", "--signature", "1,3")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "suite 'spinrep' requires a signature with p >= q" in err


def test_suite_limits_admit_the_largest_case_of_each_suite():
    from supercot import verify
    from supercot.superpoly import Signature

    limit = verify.MAX_SUITE_DIM
    for name, (_suite, needs_even) in verify.SUITES.items():
        verify.check_suite(name, Signature(limit, 0))
        over = limit + 2 if needs_even else limit + 1  # spin suites need even n
        with pytest.raises(ValueError, match="MAX_SUITE_DIM"):
            verify.check_suite(name, Signature(over, 0))


@pytest.mark.parametrize("argv", [
    ("check", "p1", "--module", "D", "--lambda", "0", "--mu", "1", "--dim", "30"),
    ("check", "p1", "--module", "T", "--delta", "1", "--dim", "200"),
    ("search", "--bidegree", "0,0", "--module", "T", "--delta", "0", "--dim", "200"),
], ids=lambda argv: f"{argv[0]}-{argv[-1]}")
def test_conformal_paths_refuse_a_dimension_above_the_limit(capsys, monkeypatch, argv):
    from supercot import invariants

    def never(*args):
        raise AssertionError("the dimension must be checked before any generator or monomial is built")

    for name in ("conformal_generators", "conformal_generating_set", "_ansatz_monomials"):
        monkeypatch.setattr(invariants, name, never)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and f"MAX_CONFORMAL_DIM = {invariants.MAX_CONFORMAL_DIM}" in err


@pytest.mark.parametrize("argv", [
    ("parse", "x1", "--dim", "100000000"),
    ("check", "p1", "--module", "T", "--delta", "1", "--dim", "400"),
    ("dirac-power", "--s", "0", "--dim", "283"),
    ("spin-rep", "--dim", "300", "--signature", "150,150"),
], ids=lambda argv: f"{argv[0]}-{argv[-1]}")
def test_cli_refuses_a_dimension_above_the_cap(capsys, monkeypatch, argv):
    from supercot import cli

    def never(*args):
        raise AssertionError("--dim must be checked before anything is built")

    for name in ("Signature", "sp_parse", "dirac_power", "build_spin_rep"):
        monkeypatch.setattr(cli, name, never)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and f"MAX_DIM = {cli.MAX_DIM}" in err


def test_dim_cap_admits_the_largest_case_of_each_limit(capsys):
    from supercot import cli
    from supercot.clifford import MAX_SPIN_SIDE
    from supercot.invariants import MAX_CONFORMAL_DIM, MAX_DIRAC_TERMS
    from supercot.verify import MAX_SUITE_DIM

    # dirac-power --s 0 is the widest: n terms of n exponents
    assert cli.MAX_DIM ** 2 <= MAX_DIRAC_TERMS < (cli.MAX_DIM + 1) ** 2
    spin_dim = 2 * (MAX_SPIN_SIDE.bit_length() - 1)
    assert max(MAX_CONFORMAL_DIM, MAX_SUITE_DIM, spin_dim) < cli.MAX_DIM
    code, out, err = run_cli(capsys, "dirac-power", "--s", "0", "--dim", str(cli.MAX_DIM))
    assert code == 0 and out.startswith("weights: ") and err == ""


def test_ansatz_size_matches_the_enumeration():
    from supercot.invariants import _ansatz_monomials, _ansatz_size
    from supercot.superpoly import Signature

    for p, q in ((2, 0), (3, 1), (3, 0)):
        sig = Signature(p, q)
        for k, kappa, x_degree, h_degree in ((0, 0, 0, 0), (3, 1, 2, 1), (2, sig.n, 1, 2)):
            monomials = _ansatz_monomials(sig, k, kappa, x_degree, h_degree)
            assert _ansatz_size(sig.n, k, kappa, x_degree, h_degree) == len(monomials)


@pytest.mark.parametrize(
    "argv",
    [
        ("check", "h^-1*p1", "--dim", "4", "--module", "T", "--delta", "1/4"),
        ("verify", "--suite", "comoment", "--dim", "2"),
        ("dirac-power", "--s", "1", "--dim", "4"),
        ("spin-rep", "--dim", "2"),
    ],
    ids=lambda argv: argv[0],
)
def test_specialize_h_is_rejected_where_it_is_not_honoured(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--specialize-h", "0"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--specialize-h" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ("check", "p1", "--dim", "2", "--module", "T", "--delta", "1/2"),
        ("search", "--bidegree", "1,0", "--dim", "2", "--module", "T", "--delta", "1/2"),
        ("dirac-power", "--s", "0", "--dim", "2"),
        ("spin-rep", "--dim", "2"),
        ("parse", "x1", "--dim", "2"),
    ],
    ids=lambda argv: argv[0],
)
def test_seed_is_rejected_where_nothing_is_drawn(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--seed", "5"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--seed" in captured.err


def test_verify_passes_its_seed_to_every_suite(capsys, monkeypatch):
    from supercot import cli

    seeds = []
    real = cli.run_suite

    def recording(name, sig, seed):
        seeds.append(seed)
        return real(name, sig, seed)

    monkeypatch.setattr(cli, "run_suite", recording)
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "poisson", "--dim", "2", "--seed", "5", "--format", "json"
    )
    assert code == 0 and json.loads(out)["seed"] == 5 and seeds == [5]
    code, out, _ = run_cli(capsys, "verify", "--suite", "poisson", "--dim", "2", "--format", "json")
    assert code == 0 and json.loads(out)["seed"] == 0 and seeds == [5, 0]


_ONE_PROCESS = [
    ("verify", "--suite", "poisson", "--dim", "2", "--seed", "3"),
    ("parse", "p1*xi1", "--dim", "2"),
    ("check", "p1^2+p2^2", "--module", "S", "--delta", "1", "--dim", "2"),
    ("parse", "x1", "--dim", "2", "--seed", "5"),
    ("dirac-power", "--s", "1", "--dim", "2", "--format", "json"),
    ("verify", "--suite", "poisson", "--dim", "2", "--format", "json"),
    ("search", "--bidegree", "1,0", "--dim", "2", "--module", "T", "--delta", "1/2"),
    ("parse", "p1*(", "--dim", "2"),
    ("spin-rep", "--dim", "2"),
    ("check", "p1", "--module", "D", "--delta", "1", "--dim", "2"),
]


def _outcomes(capsys, argvs):
    outcomes = []
    for argv in argvs:
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse's own refusals
            code = f"exit {exc.code}"
        captured = capsys.readouterr()
        outcomes.append((code, captured.out, captured.err))
    return outcomes


def test_one_parser_serves_every_call_in_a_process(capsys, monkeypatch):
    from supercot import cli

    assert cli.build_parser() is cli.build_parser()
    shared = _outcomes(capsys, _ONE_PROCESS)
    assert {code for code, _out, _err in shared} == {0, 1, 2, "exit 2"}
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)  # a fresh parser per call
    assert _outcomes(capsys, _ONE_PROCESS) == shared


def test_a_command_is_looked_up_when_it_runs(monkeypatch):
    """The parser is built once, but a command patched after that build still runs."""
    from supercot import cli

    cli.build_parser()
    monkeypatch.setattr(cli, "cmd_parse", lambda args: 7)
    assert main(["parse", "x1", "--dim", "2"]) == 7


def test_dirac_power_output(capsys):
    code, out, _ = run_cli(capsys, "dirac-power", "--s", "1", "--dim", "4")
    assert code == 0
    assert "lambda = 1/8" in out and "mu = 7/8" in out
    code, out, _ = run_cli(
        capsys, "dirac-power", "--s", "0", "--dim", "2", "--format", "json"
    )
    payload = json.loads(out)
    assert payload["weights"] == {"delta": "1/2", "lambda": "1/4", "mu": "3/4"}
    assert len(payload["operator"]["terms"]) == 2


def test_spin_rep_output(capsys):
    code, out, _ = run_cli(
        capsys, "spin-rep", "--dim", "2", "--signature", "1,1", "--format", "json",
        "--normalization", "c",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["size"] == 2 and len(payload["matrices"]) == 2
    code, out2, _ = run_cli(
        capsys, "spin-rep", "--dim", "2", "--signature", "1,1", "--format", "json",
        "--normalization", "c",
    )
    assert out == out2  # byte-identical reruns


def test_parse_command(capsys):
    code, out, _ = run_cli(capsys, "parse", "xi2*xi1", "--dim", "2")
    assert code == 0 and out.strip() == "-xi1*xi2"
    code, out, _ = run_cli(
        capsys, "parse", "h^2*x1 + x1", "--dim", "2", "--specialize-h", "2"
    )
    assert code == 0 and out.strip() == "5*x1"
    code, _, err = run_cli(
        capsys, "parse", "h^-1*x1", "--dim", "2", "--specialize-h", "0"
    )
    assert code == 2


def test_verify_small_suite(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "comoment", "--dim", "2", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    code, out2, _ = run_cli(
        capsys, "verify", "--suite", "comoment", "--dim", "2", "--format", "json"
    )
    assert out == out2


def test_console_script_entrypoint():
    proc = subprocess.run(
        [sys.executable, "-m", "supercot.cli", "parse", "p1*xi1", "--dim", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "p1*xi1"


@pytest.mark.parametrize(
    "argv",
    [
        ["parse", "p1*xi1", "--dim", "2"],  # buffered: the final flush meets the closed pipe
        ["dirac-power", "--s", "8", "--dim", "4", "--format", "json"],  # a write meets it
    ],
)
def test_a_closed_reader_ends_with_exit_141_and_no_traceback(argv):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "supercot.cli", *argv], stdout=write_end, stderr=subprocess.PIPE
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == b""


@pytest.mark.parametrize(
    "expr",
    ["p1^99999999999", "s^99999999999", "h^-99999999999", "x1^1001", "p1^" + "9" * 5000],
)
def test_parse_rejects_exponents_above_the_maximum(capsys, expr):
    code, out, err = run_cli(capsys, "parse", expr, "--dim", "2")
    assert code == 2 and out == ""
    assert err.startswith("error: parse error: ") and "Traceback" not in err
    code, _, err = run_cli(capsys, "check", expr, "--module", "S", "--delta", "1", "--dim", "2")
    assert code == 2 and err.startswith("error: parse error: ")


@pytest.mark.parametrize(
    "expr", ["(" * 10_000 + "x1" + ")" * 10_000, "x1*(" * 10_000 + "x1" + ")" * 10_000],
    ids=["parens", "product-chain"],
)
def test_parse_rejects_deep_nesting(capsys, expr):
    code, out, err = run_cli(capsys, "parse", expr, "--dim", "2")
    assert code == 2 and out == ""
    assert err.startswith("error: parse error: parentheses nested deeper") and "Traceback" not in err
    code, _, err = run_cli(capsys, "check", expr, "--module", "S", "--delta", "1", "--dim", "2")
    assert code == 2 and err.startswith("error: parse error: ") and "Traceback" not in err


def test_parse_and_check_refuse_a_product_past_the_limit(capsys):
    from supercot.parse import MAX_PRODUCT_TERMS

    def linear(k):
        return "(" + "+".join(f"x{i}" for i in range(1, k + 1)) + ")"

    cube = "*".join([linear(20)] * 3)  # 1,540 terms at n = 20
    assert 1540 * 20 > MAX_PRODUCT_TERMS >= 1540 * 19
    for argv in (("parse",), ("check", "--module", "S", "--delta", "1")):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv, f"{cube}*{linear(20)}", "--dim", "20")
        assert time.perf_counter() - start < 2
        assert code == 2 and out == "" and "Traceback" not in err
        assert err.startswith("error: parse error: product of 1540 by 20 terms exceeds the maximum")
    code, out, _ = run_cli(capsys, "parse", f"{cube}*{linear(19)}", "--dim", "20")
    assert code == 0 and out.startswith("x1^4 + ")


def test_parse_index_zero_exits_2(capsys):
    code, out, err = run_cli(capsys, "parse", "x0", "--dim", "2")
    assert code == 2 and out == ""
    assert err.startswith("error: parse error: variable index 0 is below 1")


def test_parse_accepts_the_maximum_exponent(capsys):
    from supercot.parse import MAX_EXPONENT

    code, out, _ = run_cli(capsys, "parse", f"x1^{MAX_EXPONENT}*h^-{MAX_EXPONENT}", "--dim", "2")
    assert code == 0 and out.strip() == f"h^-{MAX_EXPONENT}*x1^{MAX_EXPONENT}"


# SHA-256 of stdout, recorded before the derivative and product kernels were
# rewritten; any change to values, canonical keys or rendering shows here.
PINNED_STDOUT = [
    (
        ("dirac-power", "--s", "3", "--dim", "4", "--format", "json"),
        "3dd188e453d3276445852800eacf0577b7eae1082d6d5eca64c2c1ed427343f2",
    ),
    (
        ("search", "--dim", "4", "--signature", "3,1", "--bidegree", "3,1", "--module", "D",
         "--lambda", "1/8", "--mu", "7/8", "--format", "json"),
        "b1f0205f548d61db944bac1b9872435f2e2fc0ca8f8f43336df5fa7a5e52b504",
    ),
    # both verify digests recorded when the module morphisms, the lift's Hamiltonian
    # consistency and two more modules rows became exact operator identities
    (
        ("verify", "--suite", "all", "--dim", "2", "--format", "json"),
        "602f2651e6fcc20fe2606fd810bfed9dc0ab5aa0641dca17d9b07c0be2e19ec0",
    ),
    (
        ("verify", "--suite", "all", "--dim", "4", "--signature", "3,1", "--format", "json"),
        "a633d3dd9decb01b60464c57b962551d33ffdec04313384d291bdb505b7d5741",
    ),
    # odd n and a Lorentzian signature, where the spin suites are skipped; recorded
    # before the Lie-morphism, anticommutation and sampled-row checkers were merged
    (
        ("verify", "--suite", "all", "--dim", "3", "--signature", "2,1", "--format", "json"),
        "4ebd5e9a7d16bc4191c4b404c89b43eb56243a98f24fe013c8c7cbfb8e432367",
    ),
    # text mode, through render_gamma; recorded before SpinorDiffOp was stored as its symbol
    (
        ("dirac-power", "--s", "2", "--dim", "4", "--signature", "3,1"),
        "38c61b1302623e2db4db4e3cf25bb8ce0cc5f66d3020bf78f6c7b6a1417184d3",
    ),
    # the spin module, in both normalisations; recorded before the ladder matrices were built in one pass
    (
        ("spin-rep", "--dim", "4", "--signature", "3,1", "--format", "json"),
        "1d02834df94ac4c703e885b12f1cd4cd23754ca18a7408c5b6599a4f2be36262",
    ),
    (
        ("spin-rep", "--dim", "6", "--signature", "4,2", "--normalization", "c"),
        "602fc3fe13253fcea2ec975be8709ebb73cda7fa76b09c689b170f4c198204cf",
    ),
]


def _pinned_id(argv):
    """The subcommand, with the signature of a verify or spin-rep run that names one, and -text in text mode."""
    name = argv[0]
    if name in ("verify", "spin-rep") and "--signature" in argv:
        name = f"{name}-{argv[argv.index('--signature') + 1]}"
    return name if "--format" in argv else f"{name}-text"


@pytest.mark.parametrize("argv,digest", PINNED_STDOUT, ids=[_pinned_id(argv) for argv, _ in PINNED_STDOUT])
def test_stdout_matches_pinned_digest(capsys, argv, digest):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
