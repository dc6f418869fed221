"""Command-line behaviour: parsing, outputs, exit codes and determinism."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import modschwarz
from modschwarz import cli, closed_forms
from modschwarz.cli import build_parser, run
from modschwarz.series import LaurentSeries
from modschwarz.solver import MAX_ORDER, MAX_R, minimum_order


def capture(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_parse_defaults():
    args = build_parser().parse_args(["solve", "--r", "2"])
    assert args.command == "solve"
    assert args.r == 2
    assert args.order == 40
    assert args.format == "text"


def test_parse_verify_defaults():
    args = build_parser().parse_args(["verify", "--r", "3"])
    assert args.tolerance == 1e-6
    assert args.numeric is False


def test_invalid_r_exits_2():
    code, _, _ = capture(["verify", "--r", "0"])
    assert code == 2


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_r_above_the_limit_exits_2_before_solving(command, monkeypatch):
    def refuse(r, N):
        raise AssertionError("solve_ode was called")

    monkeypatch.setattr(cli, "solve_ode", refuse)
    assert_usage_error(
        [command, "--r", str(MAX_R + 1), "--order", "1000"], f"--r must be <= {MAX_R}"
    )


COMMANDS = {
    "series": ["series", "e4"],
    "solve": ["solve", "--r", "2"],
    "verify": ["verify", "--r", "2"],
    "examples": ["examples", "--r", "2"],
    "identities": ["identities"],
}


def refuse_every_command(monkeypatch):
    def refuse(args, out):
        raise AssertionError(f"{args.command} ran")

    for command in COMMANDS:
        monkeypatch.setattr(cli, f"_cmd_{command}", refuse)


@pytest.mark.parametrize("command", COMMANDS)
def test_order_above_the_limit_exits_2_before_running(command, monkeypatch):
    refuse_every_command(monkeypatch)
    assert_usage_error(
        [*COMMANDS[command], "--order", str(MAX_ORDER + 1)],
        f"--order must be <= {MAX_ORDER}",
    )


def test_the_slowest_input_passes_validation(monkeypatch):
    monkeypatch.setattr(cli, "_cmd_solve", lambda args, out: 0)
    argv = ["solve", "--r", str(MAX_R), "--order", str(MAX_ORDER)]
    assert capture(argv) == (0, "", "")


def test_too_small_order_exits_2():
    code, _, _ = capture(["solve", "--r", "6", "--order", "3"])
    assert code == 2


def test_order_below_the_minimum_at_the_r_limit_exits_2(monkeypatch):
    # r = MAX_R itself is accepted, so the refusal names --order, not --r.
    def refuse(r, N):
        raise AssertionError("solve_ode was called")

    monkeypatch.setattr(cli, "solve_ode", refuse)
    least = minimum_order(MAX_R)
    assert_usage_error(
        ["solve", "--r", str(MAX_R), "--order", str(least - 1)],
        f"--order must be >= {least} for r={MAX_R}",
    )


def test_unknown_series_name_exits_2():
    code, _, _ = capture(["series", "e8"])
    assert code == 2


def test_missing_command_exits_2():
    code, _, _ = capture([])
    assert code == 2


def assert_usage_error(argv, needle):
    code, out, err = capture(argv)
    assert code == 2
    assert out == ""
    doc = json.loads(err)
    assert doc["error"]["type"] == "UsageError"
    assert needle in doc["error"]["message"]


def test_series_negative_order_with_pole_exits_2():
    assert_usage_error(["series", "hauptmodul-full", "--order", "-3"], "--order")


def test_series_negative_order_exits_2():
    assert_usage_error(["series", "e4", "--order", "-5"], "--order")


def test_series_order_zero_is_valid():
    code, out, _ = capture(["series", "e4", "--order", "0"])
    assert code == 0
    assert "1 + O(p^1)" in out


def test_series_coarser_lattice_exits_2():
    assert_usage_error(["series", "eta12", "--lattice", "1"], "--lattice")


def test_identities_order_zero_exits_2():
    assert_usage_error(["identities", "--order", "0"], "--order")


def test_identities_order_too_short_for_cross_ratio_exits_2():
    assert_usage_error(["identities", "--order", "3"], "--order")


def test_verify_zero_tolerance_exits_2():
    assert_usage_error(
        ["verify", "--r", "2", "--order", "50", "--numeric", "--tolerance", "0"],
        "--tolerance",
    )


def test_verify_nan_tolerance_exits_2():
    assert_usage_error(
        ["verify", "--r", "2", "--order", "50", "--numeric", "--tolerance", "nan"],
        "--tolerance",
    )


def test_parse_errors_are_reported_as_json():
    assert_usage_error(["series", "e8"], "invalid choice")


def test_examples_accepts_exactly_the_r_of_the_claims():
    # The parser names them without importing ``closed_forms``.
    assert set(cli.EXAMPLE_RS) == {claim.r for claim in closed_forms.CLAIMS}


@pytest.mark.parametrize(
    "bad",
    [
        ["series", "e8"],                     # the subparser rejects a choice
        ["solve", "--r", "2", "--bogus"],     # an unknown option
        ["verify", "--order", "50"],          # a missing required option
        ["solve", "--r", "x"],                # a failed type conversion
        ["examples", "--r", "99"],            # a choice out of range
        [],                                   # no command at all
    ],
)
def test_a_usage_error_leaves_the_next_run_unchanged(bad):
    # The shared parser must not carry state from a failed parse into the
    # next one: every command prints what it printed before the failure.
    argvs = [
        ["series", "e4", "--order", "6"],
        ["solve", "--r", "2", "--order", "10", "--format", "json"],
        ["verify", "--r", "3", "--order", "20"],
    ]
    before = [capture(argv) for argv in argvs]
    code, out, err = capture(bad)
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["type"] == "UsageError"
    assert [capture(argv) for argv in argvs] == before


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def test_series_text_output():
    code, out, _ = capture(["series", "e4", "--order", "5"])
    assert code == 0
    assert "e4 (weight 4" in out
    assert "240*p" in out


def test_series_json_and_lattice():
    code, out, _ = capture(["series", "e4", "--order", "3", "--lattice", "2",
                            "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["m"] == 2
    assert doc["coeffs"]["2"] == "240"


def test_solve_json_contains_golden_eigenvector():
    code, out, _ = capture(["solve", "--r", "3", "--order", "40",
                            "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["X"] == ["-270", "0", "1"]
    assert doc["group"] == "squares"
    assert doc["ode_residual_zero"] is True
    assert doc["schwarz_residual_zero"] is True


def test_solve_text_output():
    code, out, _ = capture(["solve", "--r", "1", "--order", "12"])
    assert code == 0
    assert "group = squares" in out
    assert "ode residual zero: True" in out


def test_verify_passes_for_r5():
    code, out, _ = capture(["verify", "--r", "5", "--order", "50"])
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert doc["ode_residual_zero"] and doc["schwarz_residual_zero"]


def test_verify_numeric():
    code, out, _ = capture(["verify", "--r", "2", "--order", "50", "--numeric"])
    assert code == 0
    doc = json.loads(out)
    assert doc["numeric"]["equivariance_S"]["pass"] is True
    assert doc["numeric"]["equivariance_T"]["pass"] is True
    assert doc["numeric"]["schwarzian"]["pass"] is True


def test_verify_numeric_passes_where_coefficients_of_r_exceed_a_double():
    # For r = 2 at order 200, R's last coefficient (at p^204) exceeds
    # 1.8e308, and more of its theta images' do.
    code, out, _ = capture(["verify", "--r", "2", "--order", "200", "--numeric"])
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert all(check["pass"] for check in doc["numeric"].values())


def test_verify_numeric_refusal_names_check_r_and_order():
    code, out, err = capture(["verify", "--r", "5", "--order", "80", "--numeric"])
    assert code == 1
    assert out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "TailTooLarge"
    assert error["message"].startswith(
        "equivariance under [0, -1, 1, 1] for r=5 at order 80: tail estimate "
    )


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_examples_pass(r):
    code, out, _ = capture(["examples", "--r", str(r), "--order", "40"])
    assert code == 0, out
    assert "FAIL" not in out
    assert "PASS" in out


def test_examples_r3_reports_misprint():
    code, out, _ = capture(["examples", "--r", "3"])
    assert code == 0
    assert "1226 variant rejected" in out
    assert "NOTE" in out


def test_identities_suite():
    code, out, _ = capture(["identities", "--order", "30"])
    assert code == 0, out
    assert out.count("PASS") == 8
    assert "== mu" in out


def test_identities_reports_each_ramanujan_identity(monkeypatch):
    real = cli.ramanujan_residuals

    def one_broken(N):
        residuals = real(N)
        residuals["theta(E4)-(E2*E4-E6)/3"] = LaurentSeries.from_terms(1, {3: 7}, N)
        return residuals

    monkeypatch.setattr(cli, "ramanujan_residuals", one_broken)
    code, out, _ = capture(["identities", "--order", "30"])
    assert code == 1
    lines = [line for line in out.splitlines() if "ramanujan" in line]
    assert lines == [
        "PASS ramanujan theta(Delta)=E2*Delta",
        "PASS ramanujan theta(E2)=(E2^2-E4)/12",
        "FAIL ramanujan theta(E4)=(E2*E4-E6)/3 (coefficient 7 at p^3)",
        "PASS ramanujan theta(E6)=(E2*E6-E4^2)/2",
    ]

    # The Jacobi residual goes through the same loop.
    monkeypatch.setattr(cli, "ramanujan_residuals", real)
    real_jacobi = cli.jacobi_residual
    monkeypatch.setattr(
        cli, "jacobi_residual",
        lambda N: real_jacobi(N) + LaurentSeries.from_terms(2, {5: -3}, N),
    )
    code, out, _ = capture(["identities", "--order", "30"])
    assert code == 1
    assert [line for line in out.splitlines() if not line.startswith("PASS")] == [
        "FAIL jacobi theta2^4+theta4^4=theta3^4 (coefficient -3 at p^5)",
    ]


# ---------------------------------------------------------------------------
# determinism and process-level behaviour
# ---------------------------------------------------------------------------


def test_solve_json_is_byte_identical_across_runs():
    _, first, _ = capture(["solve", "--r", "6", "--order", "50",
                           "--format", "json"])
    _, second, _ = capture(["solve", "--r", "6", "--order", "50",
                            "--format", "json"])
    assert first.encode() == second.encode()


def test_cli_entry_point_runs_in_subprocess():
    # The child imports the package this process imported, installed or not.
    env = {**os.environ, "PYTHONPATH": str(Path(modschwarz.__file__).parent.parent)}
    proc = subprocess.run(
        [sys.executable, "-m", "modschwarz.cli", "series", "delta",
         "--order", "4"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "delta" in proc.stdout
