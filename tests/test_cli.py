"""CLI behavior: every row of tools/sweep.py against its golden, tests/fixtures/sweep.jsonl
(exit status, stdout and error message of about 1520 commands), which is also where the
readable golden files and the benchmark's references are checked; payload semantics and
the full usage text; no work before a refusal, and each stage only where its command's
output reads it."""

import collections
import hashlib
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cmlinv.cli import _COMMANDS, _build_parser, main
from cmlinv.kl import MAX_CLOSED_FORM_COST, _closed_form_plan
from cmlinv.sympower import _DECOMPOSE_OVERHEAD, MAX_DECOMPOSE_DIGITS
from probe import stage_probe

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(__file__).parent.parent / "src"
PERFBENCH = Path(__file__).parent.parent / "perfbench"
TOOLS = Path(__file__).parent.parent / "tools"


sys.path.insert(0, str(TOOLS))
SWEEP = importlib.import_module("sweep")
sys.path.remove(str(TOOLS))


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse's usage errors
        code = exc.code
    out = capsys.readouterr().out
    return code, out


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    """tools/sweep.py's rows, written once as the script writes them, under the stage
    probe: each row also holds "stages", the work its command did."""
    path = tmp_path_factory.mktemp("sweep") / "sweep.jsonl"
    run, stages = SWEEP._run, []
    with stage_probe() as calls, pytest.MonkeyPatch.context() as mp:
        def probed(argv):
            calls.clear()
            row = run(argv)
            stages.append(list(calls))
            return row
        mp.setattr(SWEEP, "_run", probed)
        SWEEP.write(path)
    rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    return [{**row, "stages": work} for row, work in zip(rows, stages, strict=True)]


EMPTY = hashlib.sha256(b"").hexdigest()
# the golden: tools/sweep.py's rows, written by the script in a fresh process
GOLDEN_ROWS = [json.loads(line) for line in
               (FIXTURES / "sweep.jsonl").read_text(encoding="utf-8").splitlines()]
GOLDEN = {tuple(row["argv"]): row for row in GOLDEN_ROWS}


def refused(sweep, *argv) -> str:
    """The stderr of argv's sweep row, which must exit 2 with empty stdout and no work."""
    rows = [row for row in sweep if row["argv"] == list(argv)]
    assert rows, f"{' '.join(argv)} is not in tools/sweep.py"
    assert (rows[0]["exit"], rows[0]["stdout_sha256"], rows[0]["stages"]) == (2, EMPTY, [])
    return rows[0]["stderr"]


def test_critical_subcommand():
    row = GOLDEN[("critical", "--n", "4", "--k", "4")]
    assert (row["exit"], row["stdout_sha256"]) == (0, SWEEP.stdout_sha256('{"C":[-1,2]}\n'))


def test_trivial_zeros_empty_for_m_even(capsys):
    code, out = run_cli(capsys, "trivial-zeros", "--p", "5",
                        "--curve", "0,-1,0", "--n", "4")
    assert code == 0
    assert json.loads(out)["zeros"] == []


def test_trivial_zeros_with_certificates(capsys):
    code, out = run_cli(capsys, "trivial-zeros", "--p", "5",
                        "--curve", "0,-1,0", "--n", "2", "--certificates")
    assert code == 0
    payload = json.loads(out)
    assert payload["zeros"] == [[0, 0], [1, 1]]
    c0 = payload["certificates"][0]["c0"]
    assert c0["digits"] == [] and c0["precision"] == 0
    assert c0["valuation"] is None  # exact zero
    c1 = payload["certificates"][0]["c1"]
    assert c1["valuation"] == 1 and len(c1["digits"]) == c1["precision"]


def test_trivial_zeros_certifies_prec_digits(capsys):
    code, out = run_cli(capsys, "trivial-zeros", "--p", "5", "--curve", "0,-1,0",
                        "--n", "2", "--certificates", "--prec", "12")
    assert code == 0
    for cert in json.loads(out)["certificates"]:
        assert cert["N_cert"] == 12
        # c1 lies in 5 Z_5, so 12 certified digits leave 11 of its unit part
        assert cert["c1"]["valuation"] == 1 and len(cert["c1"]["digits"]) == 11


@pytest.mark.parametrize("p", ["5", "13", "29"])
def test_one_digit_cannot_certify_the_derivative(capsys, p):
    # c1 = +-(4/w) log_p(pibar) lies in pZ_p, so one digit reads it as 0
    argv = ("trivial-zeros", "--p", p, "--curve=0,-1,0", "--n", "2", "--certificates",
            "--prec", "1")
    row = GOLDEN.get(argv)
    if row is None:  # only p = 5 is a sweep row
        code = main(list(argv))
        captured = capsys.readouterr()
        row = {"exit": code, "stdout_sha256": SWEEP.stdout_sha256(captured.out),
               "stderr": captured.err}
    assert (row["exit"], row["stdout_sha256"]) == (2, EMPTY)
    assert row["stderr"] == (f"error: c1 = 0 mod {p}^1, so the predicted order-1 zero "
                             "is not certified at N_cert = 1\n")


def test_negative_first_curve_coefficient_needs_the_equals_form(capsys):
    # argparse reads "--curve -1,0" as a flag; "--curve=-1,0" is the two-coefficient
    # form of y^2 = x^3 - x
    assert run_cli(capsys, "cmform", "--p", "29", "--curve=-1,0") == \
        run_cli(capsys, "cmform", "--p", "29", "--curve", "0,-1,0")
    with pytest.raises(SystemExit):
        main(["cmform", "--p", "29", "--curve", "-1,0"])
    assert "expected one argument" in capsys.readouterr().err


def test_verify_fg_pass(capsys):
    code, out = run_cli(capsys, "verify-fg", "--D", "-4", "--p", "5", "--prec", "8")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"] == "PASS"
    assert payload["residual_valuation"] >= 8


def test_klp_schema(capsys):
    code, out = run_cli(capsys, "klp", "--p", "5", "--D", "-4", "--branch", "0",
                        "--at", "0", "--order", "4", "--prec", "8")
    assert code == 0
    payload = json.loads(out)
    assert payload["J"] == 12 and payload["N_cert"] == 8
    assert len(payload["coefficients"]) == 4
    c1 = payload["coefficients"][1]
    assert all(0 <= d < 5 for d in c1["digits"])


def test_linvariant_pass(capsys):
    code, out = run_cli(capsys, "linvariant", "--p", "5", "--curve", "0,-1,0",
                        "--n", "2", "--prec", "6")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"] == "PASS"
    assert payload["checks"]["derivative_formula_branch_0"] == "PASS"
    assert payload["checks"]["derivative_formula_branch_1"] == "PASS"
    assert payload["trivial_zero_formulas"]["1"]["functional_equation_note"]


@pytest.mark.parametrize("command", [
    ("quadfield", "--p", "5"),
    ("klp", "--p", "5", "--branch", "0", "--at", "0"),
    ("verify-fg", "--p", "5"),
])
def test_field_flags_must_name_one_field(capsys, command):
    code, out = run_cli(capsys, *command, "--D", "-4", "--d", "1")
    assert code == 0
    assert out == run_cli(capsys, *command, "--D", "-4")[1]


def test_quadfield_subcommand(capsys):
    code, out = run_cli(capsys, "quadfield", "--d", "23")
    assert code == 0
    assert json.loads(out) == {"D": -23, "d": 23, "h": 3, "w": 2}


def test_cmform_subcommand(capsys):
    code, out = run_cli(capsys, "cmform", "--p", "5", "--curve", "0,-1,0")
    assert code == 0
    payload = json.loads(out)
    assert payload["a_p"] == -2
    assert payload["alpha"]["digits"][:2] == [3, 2]  # 13 = 3 + 2*5


@pytest.mark.parametrize("name, argv", [(name, argv.split())
                                        for name, argv in SWEEP.READABLE.items()])
def test_golden_files(name, argv):
    golden = (FIXTURES / f"{name}.json").read_text(encoding="ascii")
    row = GOLDEN[tuple(argv)]
    assert (row["exit"], row["stdout_sha256"]) == (0, SWEEP.stdout_sha256(golden))


def test_closed_form_at_the_cost_ceiling_completes():
    # verify-fg --prec N at (-40, 13) sums g' at 0 to N + 4 digits; the cost
    # passes the ceiling between N = 746 and 747
    assert _closed_form_plan(-40, 13, 0, 2, 746 + 4).cost <= MAX_CLOSED_FORM_COST
    with pytest.raises(ValueError, match="over the ceiling"):
        _closed_form_plan(-40, 13, 0, 2, 747 + 4)
    at = ["verify-fg", "--D", "-40", "--p", "13", "--prec"]
    assert (GOLDEN[(*at, "746")]["exit"], GOLDEN[(*at, "747")]["exit"]) == (0, 2)


def test_decompose_at_the_output_ceiling_completes(capsys):
    assert 20 * (4950 + _DECOMPOSE_OVERHEAD) == MAX_DECOMPOSE_DIGITS
    code, out = run_cli(capsys, "decompose", "--p", "5", "--curve", "0,-1,0",
                        "--n", "20", "--prec", "4950")
    assert code == 0 and len(json.loads(out)["factors"]) == 11


def test_klp_past_forty_nodes(capsys):
    # J = N_cert + order = 44 was over the Newton table's budget of 40
    code, out = run_cli(capsys, "klp", "--p", "5", "--D", "-4", "--branch", "0", "--at", "0",
                        "--order", "4", "--prec", "40")
    assert code == 0 and json.loads(out)["J"] == 44


@pytest.mark.parametrize("n, prec", [("100002", "8"), ("1518", "12")])
def test_linvariant_over_the_decompose_ceiling_exits_two(sweep, n, prec):
    # n * (max(prec + 4, 16) + 50) over MAX_DECOMPOSE_DIGITS: n = 30002 took 7.4 s and
    # printed 887 KB, and n = 100002 ran past 20 s, most of it in e_plus's p^shift
    cost = int(n) * (max(int(prec) + 4, 16) + _DECOMPOSE_OVERHEAD)
    assert cost > MAX_DECOMPOSE_DIGITS
    assert refused(sweep, "linvariant", "--p", "5", "--curve", "0,-1,0", "--n", n, "--prec",
                   prec).endswith(f"n = {n} at N = 16 digits is {cost}\n")


def test_linvariant_at_the_decompose_ceiling_completes(capsys):
    assert 1514 * (16 + _DECOMPOSE_OVERHEAD) <= MAX_DECOMPOSE_DIGITS
    code, out = run_cli(capsys, "linvariant", "--p", "5", "--curve", "0,-1,0", "--n", "1514",
                        "--prec", "12")
    assert code == 0 and json.loads(out)["result"] == "PASS"


def test_linvariant_reads_pibar_and_the_unit_root_twice_and_decompose_once(capsys):
    # one pi_bar (one norm solution) each for the FG check and the analytic value, one
    # unit root each for the unit-root value and the decomposition both formulas share
    with stage_probe() as stages:
        code, out = run_cli(capsys, "linvariant", "--p", "5", "--curve", "0,-1,0", "--n", "6",
                            "--prec", "12")
    assert code == 0 and json.loads(out)["result"] == "PASS"
    assert [stages.count(stage) for stage in
            ("quadfield._norm_solution", "cmform.unit_root", "sympower.decompose")] == [2, 2, 1]


def test_verification_failure_exits_one(capsys, monkeypatch):
    import cmlinv.cli as cli_mod
    from cmlinv.linvariant import FGCheck

    def fake_fg(F, p, ctx, target=6):
        z = ctx.inexact_zero(1)
        return FGCheck(lhs=z, rhs=z, residual_valuation=1, passed=False)

    monkeypatch.setattr(cli_mod, "verify_ferrero_greenberg", fake_fg)
    code = main(["verify-fg", "--D", "-4", "--p", "5", "--prec", "6"])
    assert code == 1
    assert json.loads(capsys.readouterr().out)["result"] == "FAIL"


def test_linvariant_failure_exits_one(capsys, monkeypatch):
    # main reads the exit code from the payload the handler returns
    import cmlinv.cli as cli_mod
    real = cli_mod.full_report
    monkeypatch.setattr(cli_mod, "full_report",
                        lambda *a, **k: real(*a, **k)._replace(agreement_passed=False))
    code, out = run_cli(capsys, "linvariant", "--p", "5", "--curve", "0,-1,0", "--n", "1")
    payload = json.loads(out)
    assert code == 1 and payload["result"] == "FAIL"
    assert payload["checks"] == {"fg_identity": "PASS", "unit_root_agreement": "FAIL"}


def test_acceptance_failure_exits_one(capsys, monkeypatch):
    import cmlinv.acceptance as acc
    monkeypatch.setattr(acc, "run_all", lambda: [
        acc.CriterionResult(name="AC-0", passed=False, detail={}, seconds=0.0)])
    code, out = run_cli(capsys, "acceptance")
    assert code == 1 and '"result":"FAIL"' in out


def test_payload_json_cannot_carry_exits_two(capsys, monkeypatch):
    # main writes the payload inside its error handling, so nothing reaches stdout
    import cmlinv.cli as cli_mod
    help_, arguments, _ = cli_mod._COMMANDS["critical"]
    monkeypatch.setitem(cli_mod._COMMANDS, "critical",
                        (help_, arguments, lambda args: {"x": float("inf")}))
    code = main(["critical", "--n", "4", "--k", "4"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("error: ")


def test_exact_zero_valuation_is_null_and_infinity_never_emitted(capsys, monkeypatch):
    import math

    import cmlinv.cli as cli_mod
    from cmlinv.linvariant import FGCheck
    from cmlinv.padic import json_valuation

    assert json.loads(json.dumps({"v": json_valuation(math.inf)})) == {"v": None}
    assert json_valuation(7) == 7
    with pytest.raises(ValueError):
        cli_mod._emit({"x": float("inf")})

    def exact_fg(F, p, ctx, target=6):
        z = ctx.zero()
        return FGCheck(lhs=z, rhs=z, residual_valuation=math.inf, passed=True)

    monkeypatch.setattr(cli_mod, "verify_ferrero_greenberg", exact_fg)
    code, out = run_cli(capsys, "verify-fg", "--D", "-4", "--p", "5")
    assert code == 0
    assert json.loads(out)["residual_valuation"] is None

    monkeypatch.setattr(cli_mod, "critical_integers", lambda n, k: [math.inf])
    code, out = run_cli(capsys, "critical", "--n", "4", "--k", "4")
    assert code == 2 and out == ""


# --- the process entry: `python -m cmlinv.cli` ends with os._exit after a flush ---

def run_process(*argv):
    # stdout block-buffered, as in a plain shell, so a lost flush shows
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(SRC)
    return subprocess.run([sys.executable, "-m", "cmlinv.cli", *argv], env=env,
                          capture_output=True, timeout=120)


@pytest.mark.parametrize("argv", [
    ["critical", "--n", "4", "--k", "4"],
    # over 64 KB: the flush before the hard exit crosses a pipe buffer
    ["cmform", "--p", "29", "--curve", "0,-1,0", "--prec", "32768"],
])
def test_process_stdout_equals_main(argv):
    proc = run_process(*argv)
    row = GOLDEN[tuple(argv)]
    assert proc.returncode == row["exit"] == 0
    assert hashlib.sha256(proc.stdout).hexdigest() == row["stdout_sha256"]
    if argv[0] == "cmform":
        assert len(proc.stdout) > 65536


def test_process_error_exits_two_with_empty_stdout():
    proc = run_process("verify-fg", "--D", "-4", "--p", "7")
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert proc.stderr.startswith(b"error: ")


def test_process_unknown_flag_prints_the_full_usage(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    argv = ["critical", "--n", "4", "--k", "4", "--frobnicate"]
    proc = run_process(*argv)
    with pytest.raises(SystemExit) as exc:
        _build_parser([]).parse_args(argv)
    full = capsys.readouterr().err
    assert proc.returncode == exc.value.code == 2
    assert proc.stdout == b""
    assert proc.stderr.decode("ascii") == full
    assert "usage: cmlinv" in full and "unrecognized arguments: --frobnicate" in full


def test_main_returns_the_exit_code(capsys):
    code = main(["critical", "--n", "4", "--k", "4"])
    assert type(code) is int and code == 0
    assert main(["verify-fg", "--D", "-4", "--p", "7"]) == 2


@pytest.mark.parametrize("argv", [
    ["--help"], [], ["bogus"], ["--p", "5", "critical"],
    *([name, "--help"] for name in _COMMANDS),
    *([name, "--frobnicate"] for name in _COMMANDS),
    ["critical", "--n", "4", "--k", "4", "extra"],
])
def test_help_and_usage_match_the_full_parser(capsys, argv):
    # main builds only the subparser argv[0] names; what argparse prints
    # must not tell
    with pytest.raises(SystemExit) as got:
        main(argv)
    got_out = capsys.readouterr()
    with pytest.raises(SystemExit) as want:
        _build_parser([]).parse_args(argv)
    want_out = capsys.readouterr()
    assert got.value.code == want.value.code
    assert (got_out.out, got_out.err) == (want_out.out, want_out.err)
    assert got_out.out or got_out.err


@pytest.mark.parametrize("item", SWEEP.cli_items(), ids=lambda item: item["ref"])
def test_cli_reproduces_the_benchmark_references(item):
    # the benchmark's check, on the command's golden row: its exit status, and stdout
    # byte-identical to the reference but for acceptance's seconds
    ref = (PERFBENCH / "reference" / f"{item['ref']}.out").read_text(encoding="ascii")
    row = GOLDEN[tuple(item["argv"])]
    assert (row["exit"], row["stdout_sha256"]) == (item["rc"], SWEEP.stdout_sha256(ref))


def test_sweep_runs_every_command_to_an_exit_status(sweep):
    # no command raises or runs twice, an exit 2 prints nothing, a --prec below 1 is
    # one usage error, and the CI step's inputs close the list
    runs = collections.Counter(tuple(row["argv"]) for row in sweep)
    assert not [argv for argv, count in runs.items() if count > 1]
    for row in sweep:
        argv = row["argv"]
        assert row["exit"] in (0, 1, 2), argv
        assert row["exit"] != 2 or row["stdout_sha256"] == EMPTY
        prec = argv[argv.index("--prec") + 1] if "--prec" in argv else "1"
        assert int(prec) > 0 or row["exit"] == 2 and row["stderr"].endswith(
            f": error: argument --prec: precision must be a positive integer, got {prec}\n")
    ci = [argv for _, argv in SWEEP.ci_inputs()]
    assert [row["argv"] for row in sweep[-len(ci):]] == ci


def error_tail(stderr: str) -> str:
    """stderr from its first line holding "error:" on, or all of it when none does: Python
    3.13 wraps argparse's usage lines at other words than 3.10-3.12."""
    lines = stderr.splitlines(keepends=True)
    return "".join(lines[next((i for i, line in enumerate(lines) if "error:" in line), 0):])


@pytest.mark.parametrize("got, want, same", [
    ("usage: cmlinv [-h]\n  {critical}\ncmlinv: error: unrecognized arguments: --x\n",
     "usage: cmlinv [-h] {critical}\ncmlinv: error: unrecognized arguments: --x\n", True),
    ("error: p = 7 does not split in Q(sqrt(-4))\n", "error: p = 7 does not split\n", False),
    ("[PASS] AC-1 one  (0s)\n[PASS] AC-2 two  (0s)\n",
     "[FAIL] AC-1 one  (0s)\n[PASS] AC-2 two  (0s)\n", False),
], ids=["usage-rewrapped", "error-changed", "no-error-line"])
def test_the_golden_reads_stderr_from_its_error_line(got, want, same):
    assert (error_tail(got) == error_tail(want)) is same


def test_sweep_rows_equal_the_golden(sweep):
    # a change that means to alter an output re-runs tools/sweep.py on the golden's path
    assert [row["argv"] for row in sweep] == [row["argv"] for row in GOLDEN_ROWS]

    def key(row):
        return row["exit"], row["stdout_sha256"], error_tail(row["stderr"])
    differ = [(got, want) for got, want in zip(sweep, GOLDEN_ROWS) if key(got) != key(want)]
    assert not differ, "\n".join(f"{' '.join(want['argv'])}\n  got:    {key(got)}\n"
                                  f"  golden: {key(want)}" for got, want in differ)


# c1 is computed before it reads as 0 mod 5: the one refusal that is a computed verdict
VERDICT = ("error: c1 = 0 mod 5^1, so the predicted order-1 zero is not certified at "
           "N_cert = 1\n")


def test_no_work_before_a_refusal(sweep):
    # the stage probe saw every row: each exit 2 names a bad input before any work
    worked = [row for row in sweep if row["exit"] == 2 and row["stages"]]
    assert [row["stderr"] for row in worked] == [VERDICT], [row["argv"] for row in worked]


def _needless_work(row) -> bool:
    # a curve command's payload reads a_p, counted once; trivial-zeros reads none (10^6
    # points take 1.8-2.5 s), and a p-adic number only when it prints a certificate,
    # at --certificates and n = 2 mod 4 (5^(10^7) alone takes 5.5-5.8 s)
    argv, stages, done = row["argv"], row["stages"], row["exit"] == 0
    counts = stages.count("cmform.ap_point_count")
    if argv[0] != "trivial-zeros":
        return done and argv[0] in ("cmform", "decompose", "linvariant") and counts != 1
    return counts > 0 or done and stages != [] and not (
        "--certificates" in argv and int(argv[argv.index("--n") + 1]) % 4 == 2)


def test_each_stage_runs_only_where_the_output_reads_it(sweep):
    assert not [row["argv"] for row in sweep if _needless_work(row)]


def test_sweep_rows_do_not_depend_on_the_terminal_width(monkeypatch):
    # argparse wraps a usage message at COLUMNS: three lines at 40, one at 200
    argv = ["critical", "--n", "4", "--k", "2", "--bogus"]
    rows = []
    for columns in ("40", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        rows.append(SWEEP._run(argv))
        assert os.environ["COLUMNS"] == columns  # the width is pinned for the command alone
    assert rows[0] == rows[1]
