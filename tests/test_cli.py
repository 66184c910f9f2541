"""CLI behavior: schemas, determinism, golden files, exit codes, and no work before a
refusal."""

import contextlib
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
from cmlinv.padic import PadicContext
from cmlinv.sympower import _DECOMPOSE_OVERHEAD, MAX_DECOMPOSE_DIGITS

FIXTURES = Path(__file__).parent / "fixtures"
SRC = Path(__file__).parent.parent / "src"
PERFBENCH = Path(__file__).parent.parent / "perfbench"
TOOLS = Path(__file__).parent.parent / "tools"


def _module(directory: Path, name: str):
    sys.path.insert(0, str(directory))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(directory))


WORKLOADS = _module(PERFBENCH, "workloads")
SWEEP = _module(TOOLS, "sweep")


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse's usage errors
        code = exc.code
    out = capsys.readouterr().out
    return code, out


# The work primitives, by module.  A command that calls none of them and computes no
# p^N has done no work.
WORK = {"cmform": ("ap_point_count",), "kl": ("_g_at_zero", "_closed_form"),
        "padic": ("_log_value", "_log_units", "hensel_lift"),
        "characters": ("_bernoulli_table", "_kronecker_row", "gen_bernoulli"),
        "quadfield": ("_norm_solution",)}


def _recorded(stages: list, stage: str, fn):
    def probe(*args, **kwargs):
        stages.append(stage)
        return fn(*args, **kwargs)
    return probe


@contextlib.contextmanager
def stage_probe():
    """Yield the list of the work primitives called in the block, in call order, with
    "p^N" for each context's first p^N.  Every name a cmlinv module binds to a
    primitive is rebound, so calls through a from-import and cache hits count."""
    importlib.import_module("cmlinv.acceptance")  # loaded first, so it is rebound too
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "cmlinv"]
    stages, modulus = [], PadicContext._modulus

    def first_modulus(ctx, rel):
        if rel == ctx.N and ctx._pN is None:
            stages.append("p^N")
        return modulus(ctx, rel)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(PadicContext, "_modulus", first_modulus)
        for layer, names in WORK.items():
            for name in names:
                real = getattr(sys.modules[f"cmlinv.{layer}"], name)
                probe = _recorded(stages, f"{layer}.{name}", real)
                for module in modules:
                    for attr in [a for a, value in vars(module).items() if value is real]:
                        mp.setattr(module, attr, probe)
        yield stages


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


def refused(sweep, *argv) -> str:
    """The stderr of argv's sweep row, which must exit 2 with empty stdout and no work."""
    rows = [row for row in sweep if row["argv"] == list(argv)]
    assert rows, f"{' '.join(argv)} is not in tools/sweep.py"
    assert (rows[0]["exit"], rows[0]["stdout_sha256"], rows[0]["stages"]) == (2, EMPTY, [])
    return rows[0]["stderr"]


def test_critical_subcommand(capsys):
    code, out = run_cli(capsys, "critical", "--n", "4", "--k", "4")
    assert code == 0
    assert json.loads(out) == {"C": [-1, 2]}


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
    code = main(["trivial-zeros", "--p", p, "--curve", "0,-1,0", "--n", "2",
                 "--certificates", "--prec", "1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == (f"error: c1 = 0 mod {p}^1, so the predicted order-1 zero "
                            "is not certified at N_cert = 1\n")


def test_negative_first_curve_coefficient_needs_the_equals_form(capsys):
    # argparse reads "--curve -1,0" as a flag; "--curve=-1,0" is the two-coefficient
    # form of y^2 = x^3 - x
    assert run_cli(capsys, "cmform", "--p", "29", "--curve=-1,0") == \
        run_cli(capsys, "cmform", "--p", "29", "--curve", "0,-1,0")
    with pytest.raises(SystemExit):
        main(["cmform", "--p", "29", "--curve", "-1,0"])
    assert "expected one argument" in capsys.readouterr().err


@pytest.mark.parametrize("curve", ["a,b", "1,,2", "1.5,2", "1,2,3,4"])
def test_bad_curve_is_named_as_a_curve(sweep, curve):
    # argparse would name the type function for a bare ValueError
    assert refused(sweep, "cmform", "--p", "5", "--curve", curve).endswith(
        "argument --curve: curve must be a4,a6 or a2,a4,a6\n")


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
def test_field_flags_must_name_one_field(capsys, sweep, command):
    # a d that names no field is reported as such, not as a mismatch
    for D, d, err in (("-4", "7", "--D -4 and --d 7 name different fields"),
                      ("-3", "1", "--D -3 and --d 1 name different fields"),
                      ("-4", "2", "--D -4 and --d 2 name different fields"),
                      ("-4", "4", "d must be a squarefree positive integer, got 4"),
                      ("-4", "0", "d must be a squarefree positive integer, got 0")):
        assert refused(sweep, *command, "--D", D, "--d", d) == f"error: {err}\n"
    code, out = run_cli(capsys, *command, "--D", "-4", "--d", "1")
    assert code == 0
    assert out == run_cli(capsys, *command, "--D", "-4")[1]


@pytest.mark.parametrize("argv", [
    ["cmform", "--p", "5", "--curve", "0,-1,0", "--level", "32"],
    ["decompose", "--p", "5", "--curve", "0,-1,0", "--n", "2", "--level", "32"],
    ["trivial-zeros", "--p", "5", "--curve", "0,-1,0", "--n", "2", "--level", "32"],
    ["linvariant", "--p", "5", "--curve", "0,-1,0", "--level", "32"],
    ["linvariant", "--p", "5", "--curve", "0,-1,0", "--D", "-4"],
    ["verify-fg", "--p", "5", "--D", "-4", "--conjugate-lift"],
    ["linvariant", "--p", "5", "--curve", "0,-1,0", "--conjugate-lift"],
    ["verify-fg", "--p", "5", "--D", "-4", "--out", "payload.json"],
    ["cmform", "--p", "5", "--curve", "0,-1,0", "--d", "1"],
    ["decompose", "--p", "5", "--curve", "0,-1,0", "--n", "2", "--d", "1"],
    ["trivial-zeros", "--p", "5", "--curve", "0,-1,0", "--n", "2", "--d", "1"],
    ["linvariant", "--p", "5", "--curve", "0,-1,0", "--d", "1"],
])
def test_removed_flags_are_usage_errors(sweep, argv):
    # the level is always the desk curve's 32; a curve's j names its CM field;
    # the embedding changes no verdict, so only quadfield's labels take it;
    # the payload goes to stdout only
    assert "error: unrecognized arguments: " in refused(sweep, *argv)


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


def test_determinism_byte_identical(capsys):
    _, out1 = run_cli(capsys, "klp", "--p", "5", "--D", "-4", "--branch", "1",
                      "--at", "1", "--order", "3", "--prec", "6")
    _, out2 = run_cli(capsys, "klp", "--p", "5", "--D", "-4", "--branch", "1",
                      "--at", "1", "--order", "3", "--prec", "6")
    assert out1 == out2


@pytest.mark.parametrize("name,argv", [
    ("cmform_p5", ["cmform", "--p", "5", "--curve", "0,-1,0", "--prec", "8"]),
    ("klp_p5_D4_b0", ["klp", "--p", "5", "--D", "-4", "--branch", "0",
                      "--at", "0", "--order", "4", "--prec", "8"]),
    ("trivial_zeros_n2", ["trivial-zeros", "--p", "5", "--curve", "0,-1,0",
                          "--n", "2", "--certificates", "--prec", "8"]),
])
def test_golden_files(capsys, name, argv):
    code, out = run_cli(capsys, *argv)
    assert code == 0
    golden = (FIXTURES / f"{name}.json").read_text(encoding="ascii")
    assert out == golden


@pytest.mark.parametrize("D, p", [("-4", "15"), ("-3", "9")])
def test_quadfield_composite_p_exits_two(sweep, D, p):
    assert refused(sweep, "quadfield", "--D", D, "--p", p) == \
        f"error: p must be an odd prime, got {p}\n"


def test_discriminant_over_the_ceiling_exits_two(sweep):
    assert refused(sweep, "quadfield", "--D", "-" + "9" * 199 + "5") == \
        "error: |D| must be at most 1000000\n"


def test_cmform_over_the_point_count_ceiling_exits_two(sweep):
    # 10^9 + 7 is inert in Q(i), so the split check refuses it first; 10^9 + 9 splits
    assert refused(sweep, "cmform", "--p", "1000000007", "--curve", "0,-1,0", "--prec",
                   "4") == "error: p = 1000000007 does not split in Q(sqrt(-4))\n"
    assert refused(sweep, "cmform", "--p", "1000000009", "--curve", "0,-1,0", "--prec",
                   "1000000") == "error: point counting needs p at most 1000000\n"


@pytest.mark.parametrize("argv", [
    "verify-fg --D -999995 --p 101 --prec 4",
    "klp --p 1000033 --D -4 --branch 0 --at 0 --order 2 --prec 4",
    "klp --p 13 --D -40 --branch 0 --at 0 --order 2 --prec 4096",
    "klp --p 5 --D -4 --branch 0 --at 0 --order 2 --prec 1000000",
    "verify-fg --D -4 --p 5 --prec 10000000",
    "klp --p 5 --D -4 --branch 0 --at 0 --order 30000000 --prec 4",
    "klp --p 62501 --D -4 --branch 1 --at 0 --order 6 --prec 4",
], ids=["argv1", "argv2", "argv5", "argv6", "argv8", "argv9", "argv11"])
def test_closed_form_over_the_cost_ceiling_exits_two(sweep, argv):
    # ids skip the CI step's inputs, run in test_ci_exits_two_inputs_refuse_before_any_work.
    # Each ran until killed before the ceiling; the first would build a Kronecker
    # row of 10^6 entries (0.6 s) and a sign row of 5 * 10^7, and klp at (-40, 13)
    # passed a ceiling blind to operand size.  The last four were checked only after
    # other work: a search over j and p^N (1.1 s at 10^6 digits, killed at 15 s at
    # 10^7), a sum over k (order 3 * 10^7), or the table at s0 = 0 before the one at
    # 1 (0.86 s)
    assert ", over the ceiling 250000000\n" in refused(sweep, *argv.split())


def test_closed_form_at_the_cost_ceiling_completes(capsys):
    # verify-fg --prec N at (-40, 13) sums g' at 0 to N + 4 digits; the cost
    # passes the ceiling between N = 714 and 715
    assert _closed_form_plan(-40, 13, 0, 2, 714 + 4).cost <= MAX_CLOSED_FORM_COST
    with pytest.raises(ValueError, match="over the ceiling"):
        _closed_form_plan(-40, 13, 0, 2, 715 + 4)
    code, out = run_cli(capsys, "verify-fg", "--D", "-40", "--p", "13", "--prec", "714")
    assert code == 0 and json.loads(out)["result"] == "PASS"
    code, out = run_cli(capsys, "verify-fg", "--D", "-40", "--p", "13", "--prec", "715")
    assert code == 2 and out == ""


@pytest.mark.parametrize("n, prec", [("100000", "10"), ("6", "1000000"), ("20", "5001"),
                                     ("20", "4951")])
def test_decompose_over_the_output_ceiling_exits_two(sweep, n, prec):
    # n = 10^5 at 10 digits took 2.3 s and wrote 13 MB.  Each factor costs about
    # 50 digits' worth whatever prec is (the CI step's n = 10^5 at one digit took
    # 2.4 s under an n * prec ceiling), so 20 * (4951 + 50) is over it
    assert refused(sweep, "decompose", "--p", "5", "--curve", "0,-1,0", "--n", n,
                   "--prec", prec) == ("error: decompose lists n * (N + 50) up to 100000 "
                                       f"digits; n = {n} at N = {prec} digits is "
                                       f"{int(n) * (int(prec) + 50)}\n")


def test_decompose_at_the_output_ceiling_completes(capsys):
    assert 20 * (4950 + _DECOMPOSE_OVERHEAD) == MAX_DECOMPOSE_DIGITS
    code, out = run_cli(capsys, "decompose", "--p", "5", "--curve", "0,-1,0",
                        "--n", "20", "--prec", "4950")
    assert code == 0 and len(json.loads(out)["factors"]) == 11


# the curve commands as tools/sweep.py writes them: _curve_argv(command, p, curve)
CURVE_COMMANDS = [("trivial-zeros", "--n", "2", "--certificates"), ("decompose", "--n", "2"),
                  ("cmform",), ("linvariant", "--n", "2")]


def _curve_argv(command, p, curve):
    return [command[0], "--p", p, f"--curve={curve}", *command[1:]]


@pytest.mark.parametrize("command", CURVE_COMMANDS)
def test_curve_without_cm_by_the_field_exits_two(sweep, command):
    # y^2 = x^3 - x + 1 has j = -6912/23, so no CM and no field; its a_5 = -2 is
    # that of y^2 = x^3 - x, so no test of a_p at one prime tells the two apart
    assert refused(sweep, *_curve_argv(command, "5", "-1,1")) == \
        "error: the curve has no CM: j = -6912/23\n"


@pytest.mark.parametrize("command", CURVE_COMMANDS)
@pytest.mark.parametrize("p, curve, D", [("999961", "-1,1", None), ("999983", "0,-1,0", -4),
                                         ("3", "0,1", -3)])
def test_curve_field_and_splitting_are_checked_before_any_work(sweep, command, p, curve, D):
    # counting 10^6 points takes 2.6-2.8 s, so the field and its splitting come
    # first; p = 3 is ramified in Q(sqrt(-3)), and the split check names it
    # before the plan reads theta's conductor
    assert refused(sweep, *_curve_argv(command, p, curve)) == (
        "error: the curve has no CM: j = -6912/23\n" if D is None
        else f"error: p = {p} does not split in Q(sqrt({D}))\n")


@pytest.mark.parametrize("argv, err", [
    ("trivial-zeros --p 999961 --curve 0,-1,0 --n 0", "error: n must be >= 1\n"),
    ("trivial-zeros --p 1000000009 --curve 0,-1,0 --n 2 --prec 1000000",
     "error: point counting needs p at most 1000000\n"),
    ("decompose --p 1000000009 --curve 0,-1,0 --n 2 --prec 1000000",
     "n = 2 at N = 1000000 digits is 2000100\n"),
    ("cmform --p 999961 --curve 0,-1,0 --prec 0",
     " error: argument --prec: precision must be a positive integer, got 0\n"),
], ids=["argv0", "argv3", "argv4", "argv5"])
def test_n_prec_and_the_count_ceiling_are_checked_before_any_work(sweep, argv, err):
    # n = 0 at p = 999961 counted 10^6 points (1.9-2.0 s) before n was refused, and
    # cmform at p = 10^9 + 9 built p^(10^6) (14.4 s) before the count refused p;
    # the count's ceiling and the precision are checked before the count, and a
    # context computes no p^N until something reads it; ids skip the CI step's inputs
    assert refused(sweep, *argv.split()).endswith(err)


@pytest.mark.parametrize("p", ["9", "2"])
@pytest.mark.parametrize("command", [("klp", "--D", "-4", "--branch", "0", "--at", "0"),
                                     ("verify-fg", "--D", "-4"),
                                     ("linvariant", "--curve", "0,-1,0")])
def test_not_an_odd_prime_is_named_before_the_plan(sweep, command, p):
    # the plan divides by p - 2 and counts phi(|D| p) / 2 units: p is checked first
    assert refused(sweep, *command, "--p", p) == f"error: p must be an odd prime, got {p}\n"


def test_klp_past_forty_nodes(capsys):
    # J = N_cert + order = 44 was over the Newton table's budget of 40
    code, out = run_cli(capsys, "klp", "--p", "5", "--D", "-4", "--branch", "0", "--at", "0",
                        "--order", "4", "--prec", "40")
    assert code == 0 and json.loads(out)["J"] == 44


def test_klp_has_no_nodes_flag(sweep):
    assert refused(sweep, "klp", "--p", "5", "--D", "-4", "--branch", "0", "--at", "0",
                   "--nodes", "40").endswith("error: unrecognized arguments: --nodes 40\n")


@pytest.mark.parametrize("D, p, prec", [("-4", "7", "1240"), ("-40", "17", "560"),
                                        ("-3", "5", "1000"), ("-4", "1000039", "4")])
def test_verify_fg_refuses_an_inert_p_before_any_sum(sweep, D, p, prec):
    # the first three summed g' at 0 for 0.5-0.7 s before pi_bar refused p; the last
    # named the closed form's ceiling, not the split
    assert refused(sweep, "verify-fg", "--D", D, "--p", p, "--prec", prec) == \
        f"error: p = {p} does not split in Q(sqrt({D}))\n"


def test_cmform_counts_the_points_once(capsys):
    with stage_probe() as stages:
        code, out = run_cli(capsys, "cmform", "--p", "5", "--curve", "0,-1,0", "--prec", "8")
    assert code == 0 and stages.count("cmform.ap_point_count") == 1
    assert out == (FIXTURES / "cmform_p5.json").read_text(encoding="ascii")


@pytest.mark.parametrize("n, flags, out", [
    ("4", (), '{"n":4,"zeros":[]}\n'),
    ("4", ("--certificates",), '{"certificates":[],"n":4,"zeros":[]}\n'),
    ("2", (), '{"n":2,"zeros":[[0,0],[1,1]]}\n'),
])
def test_trivial_zeros_builds_no_context_when_it_certifies_nothing(capsys, n, flags, out):
    # the payload reads no p-adic number, so no p^N may be computed: 5^(10^7) alone
    # takes 5.5-5.8 s
    with stage_probe() as stages:
        assert run_cli(capsys, "trivial-zeros", "--p", "5", "--curve", "0,-1,0", "--n", n,
                       *flags, "--prec", "10000000") == (0, out)
    assert stages == []


@pytest.mark.parametrize("flags", [("--n", "4"), ("--n", "4", "--certificates"), ("--n", "2"),
                                   ("--n", "2", "--certificates")])
@pytest.mark.parametrize("curve, prec, err", [("0,-25,0", "8", "error: bad reduction at 5\n")])
def test_trivial_zeros_without_certificates_keeps_its_refusals(sweep, flags, curve, prec,
                                                               err):
    assert refused(sweep, "trivial-zeros", "--p", "5", f"--curve={curve}", *flags,
                   "--prec", prec) == err


@pytest.mark.parametrize("n, out", [("4", '{"n":4,"zeros":[]}\n'),
                                    ("2", '{"n":2,"zeros":[[0,0],[1,1]]}\n')])
def test_trivial_zeros_counts_no_point(capsys, n, out):
    # its payload reads no a_p: counting the 10^6 points at p = 999961 took 1.8-2.5 s
    # only to refuse what the discriminant and the ceiling already refuse
    with stage_probe() as stages:
        assert run_cli(capsys, "trivial-zeros", "--p", "999961", "--curve", "0,-1,0",
                       "--n", n) == (0, out)
    assert stages == []


@pytest.mark.parametrize("command", CURVE_COMMANDS)
def test_bad_reduction_is_refused_before_the_count(sweep, command):
    # y^2 = x^3 - 25x has CM by Q(i), in which 5 splits, but 5 divides its discriminant
    assert refused(sweep, *_curve_argv(command, "5", "0,-25,0")) == \
        "error: bad reduction at 5\n"


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


def test_linvariant_reads_pibar_and_the_unit_root_twice_and_decompose_once(capsys,
                                                                           monkeypatch):
    # one pi_bar each for the FG check and the analytic value, one unit root each
    # for the unit-root value and the decomposition both formulas share
    import cmlinv.linvariant as lin_mod
    import cmlinv.sympower as sym_mod
    calls = []

    def counted(mod, name):
        real = getattr(mod, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        monkeypatch.setattr(mod, name, wrapper, raising=False)

    for mod, name in ((lin_mod, "pi_bar"), (lin_mod, "unit_root"), (sym_mod, "unit_root"),
                      (lin_mod, "decompose"), (sym_mod, "decompose")):
        if hasattr(mod, name):
            counted(mod, name)
    code, out = run_cli(capsys, "linvariant", "--p", "5", "--curve", "0,-1,0", "--n", "6",
                        "--prec", "12")
    assert code == 0 and json.loads(out)["result"] == "PASS"
    assert sorted(calls) == ["decompose", "pi_bar", "pi_bar", "unit_root", "unit_root"]


def test_linvariant_rejects_the_weight_before_counting_points(sweep):
    # linvariant has no --k: curve specs have weight 2, so argparse refuses it
    assert refused(sweep, "linvariant", "--p", "5", "--curve", "0,-1,0", "--n", "2", "--k",
                   "3").endswith("error: unrecognized arguments: --k 3\n")


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


def test_non_split_configuration_exits_two(sweep):
    assert refused(sweep, "verify-fg", "--D", "-4", "--p", "7") == \
        "error: p = 7 does not split in Q(sqrt(-4))\n"


def test_missing_field_spec_exits_two(sweep):
    assert refused(sweep, "verify-fg", "--p", "5") == "error: one of --D or --d is required\n"


@pytest.mark.parametrize("bad", ["0", "-3"])
@pytest.mark.parametrize("argv, err", [
    (("verify-fg", "--D", "-4", "--p", "13", "--prec"), "precision must be a positive integer"),
    (("linvariant", "--p", "5", "--curve", "0,-1,0", "--prec"),
     "precision must be a positive integer"),
    (("linvariant", "--p", "5", "--curve", "0,-1,0", "--n"), "n must be >= 1\n"),
], ids=["argv0", "argv1", "argv2"])
def test_vacuous_verification_rejected(sweep, argv, err, bad):
    # a residual compared to p^0 or below, or no symmetric power, would
    # pass whatever was computed
    assert err in refused(sweep, *argv, bad)


def test_verify_fg_256_digits_pinned(capsys):
    # the golden fixtures stop at 16 digits; this pins the whole payload at 256
    code, out = run_cli(capsys, "verify-fg", "--D", "-40", "--p", "13", "--prec", "256")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "a7c93bb5c419951a14de61609ca28dff66a4e39a978e64b9c853561d201212a2")


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
def test_process_stdout_equals_main(capsys, argv):
    code, out = run_cli(capsys, *argv)
    proc = run_process(*argv)
    assert proc.returncode == code == 0
    assert proc.stdout == out.encode("ascii")
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


@pytest.mark.parametrize("item", WORKLOADS.cli_items(), ids=lambda item: item["ref"])
def test_cli_reproduces_the_benchmark_references(capsys, item):
    # the benchmark's check: exit code, and stdout byte-identical to the
    # reference (for acceptance, without its seconds fields)
    code, out = run_cli(capsys, *item["argv"])
    assert WORKLOADS.check_cli(item, code, out.encode("ascii"))


@pytest.mark.parametrize("argv", [argv for kind, argv in SWEEP.ci_inputs() if kind == "exits_two"],
                         ids=" ".join)
def test_ci_exits_two_inputs_refuse_before_any_work(sweep, argv):
    # the CI step's `exits_two` lines, read from the workflow: each runs under
    # `timeout 1` there, and here must refuse before any work, the point count included
    assert refused(sweep, *argv).startswith("error: ")


def test_sweep_runs_every_command_to_an_exit_status(sweep):
    # no command raises, an exit 2 prints nothing, a --prec below 1 is one usage
    # error, and the CI step's inputs close the list
    for row in sweep:
        argv = row["argv"]
        assert row["exit"] in (0, 1, 2), argv
        assert row["exit"] != 2 or row["stdout_sha256"] == EMPTY
        prec = argv[argv.index("--prec") + 1] if "--prec" in argv else "1"
        assert int(prec) > 0 or row["exit"] == 2 and row["stderr"].endswith(
            f": error: argument --prec: precision must be a positive integer, got {prec}\n")
    ci = [argv for _, argv in SWEEP.ci_inputs()]
    assert [row["argv"] for row in sweep[-len(ci):]] == ci


# c1 is computed before it reads as 0 mod 5: the one refusal that is a computed verdict
VERDICT = ("error: c1 = 0 mod 5^1, so the predicted order-1 zero is not certified at "
           "N_cert = 1\n")


def test_no_work_before_a_refusal(sweep):
    # the stage probe saw every row: each exit 2 names a bad input before any work
    worked = [row for row in sweep if row["exit"] == 2 and row["stages"]]
    assert [row["stderr"] for row in worked] == [VERDICT], [row["argv"] for row in worked]


def test_sweep_rows_do_not_depend_on_the_terminal_width(monkeypatch):
    # argparse wraps a usage message at COLUMNS: three lines at 40, one at 200
    argv = ["critical", "--n", "4", "--k", "2", "--bogus"]
    rows = []
    for columns in ("40", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        rows.append(SWEEP._run(argv))
        assert os.environ["COLUMNS"] == columns  # the width is pinned for the command alone
    assert rows[0] == rows[1]
