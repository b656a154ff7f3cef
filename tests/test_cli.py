import json
import subprocess
import sys

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
