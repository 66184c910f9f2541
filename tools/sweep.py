"""Run one fixed list of cmlinv commands in process and record what each printed.

    PYTHONPATH=src python tools/sweep.py OUT

Each command runs through `cmlinv.cli.main` and writes one JSON line to OUT:
its argv, its exit status, the sha256 of its stdout and its whole stderr.
`tests/fixtures/sweep.jsonl` is the golden: this script's file, written in a
fresh process, which tier-1 compares row by row with its own run.  A change
that means to alter an output re-runs the script with that path as OUT.
The list runs each argv once: every command, the 13 CM curves with a curve
without CM and a singular one, primes that split, are inert, ramify or pass a
ceiling, the symmetric powers 0-6 and the ceiling edges, bad precisions, every
refusal whose message the golden pins, the benchmark's commands (`cli_items()`),
those of the readable goldens in tests/fixtures, and last the inputs of CI's
"Large class numbers finish" step (`ci_inputs()`).  It runs in seconds."""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import re
import shlex
import sys
import time
from pathlib import Path
from unittest import mock

from cmlinv.cli import main

# one model of each j-invariant of a CM curve over Q, with a prime that splits in its
# field at good reduction and one that is inert there
CM_CURVES = [
    ("0,1", 7, 5), ("-15,22", 7, 5), ("-120,506", 7, 5),  # Q(sqrt(-3))
    ("-1,0", 5, 7), ("0,-1,0", 13, 7), ("-11,-14", 5, 7),  # Q(i)
    ("-35,-98", 11, 3), ("-2835,-71442", 11, 3),  # Q(sqrt(-7))
    ("-30,56", 11, 5), ("-264,1694", 5, 7), ("-608,5776", 5, 3),  # d = 2, 11, 19
    ("-13760,621264", 11, 3), ("-117920,15585808", 17, 3),  # d = 43, 67
    ("-34790720,78984748304", 41, 3),  # d = 163
]
# y^2 = x^3 - x + 1 has j = -6912/23, no CM, and the a_5 = -2 of y^2 = x^3 - x
NO_CM, SINGULAR = "-1,1", "-3,2"
# 2 and 3, and a prime over the count's ceiling that splits in Q(i); 3 ramifies in
# Q(sqrt(-3)), and the split check names it before the plan reads the conductor
EXTRA_PRIMES = (2, 3, 1000033)
FIELDS = (-3, -4, -7, -8, -20, -23, -39, -47, -163, -167)
FIELD_PRIMES = (2, 3, 5, 7, 13, 29, 41)
# a residual compared to p^0 or below, or no symmetric power, would pass anything
BAD_PRECS = ("0", "-3")
# the rows whose messages and outputs the golden pins, one command a line and a
# comment line on each group
PINNED = """\
# argparse would name the type function for a bare ValueError
cmform --p 5 --curve a,b
cmform --p 5 --curve 1,,2
cmform --p 5 --curve 1.5,2
# 10^9 + 7 is inert in Q(i), so the split check refuses it before the count's ceiling
cmform --p 1000000007 --curve 0,-1,0 --prec 4
cmform --p 999961 --curve 0,-1,0 --prec 0
quadfield --D -4 --p 15
quadfield --D -3 --p 9
# a strong pseudoprime to every base from 2 to 37, which base 41 shows composite
quadfield --D -4 --p 318665857834031151167461 --prec 4
# closed forms over MAX_CLOSED_FORM_COST, refused before any table, search or sum
verify-fg --D -999995 --p 101 --prec 4
verify-fg --D -4 --p 5 --prec 10000000
klp --p 1000033 --D -4 --branch 0 --at 0 --order 2 --prec 4
klp --p 13 --D -40 --branch 0 --at 0 --order 2 --prec 4096
klp --p 5 --D -4 --branch 0 --at 0 --order 2 --prec 1000000
klp --p 5 --D -4 --branch 0 --at 0 --order 30000000 --prec 4
klp --p 62501 --D -4 --branch 1 --at 0 --order 6 --prec 4
# the whole payload at 256 digits, and one digit over the cost ceiling at (-40, 13)
verify-fg --D -40 --p 13 --prec 256
verify-fg --D -40 --p 13 --prec 747
# klp reports J = N_cert + order and has no --nodes flag
klp --p 5 --D -4 --branch 0 --at 0 --nodes 40
# each factor costs about 50 digits whatever N is, so 20 * (4951 + 50) is over the ceiling
decompose --p 5 --curve 0,-1,0 --n 100000 --prec 10
decompose --p 5 --curve 0,-1,0 --n 6 --prec 1000000
decompose --p 5 --curve 0,-1,0 --n 20 --prec 5001
decompose --p 5 --curve 0,-1,0 --n 20 --prec 4951
# n, N and the count's ceiling are checked before the count, and no p^N before it is read
decompose --p 1000000009 --curve 0,-1,0 --n 2 --prec 1000000
trivial-zeros --p 999961 --curve 0,-1,0 --n 0
trivial-zeros --p 1000000009 --curve 0,-1,0 --n 2 --prec 1000000
# trivial-zeros reads no a_p, so it counts no point (10^6 points take 1.8-2.5 s), and
# certifying nothing it reads no p-adic number, so no p^N (5^(10^7) takes 5.5-5.8 s)
trivial-zeros --p 5 --curve 0,-1,0 --n 2 --prec 10000000
trivial-zeros --p 5 --curve 0,-1,0 --n 4 --prec 10000000
trivial-zeros --p 999961 --curve 0,-1,0 --n 2
# linvariant's decompose ceiling reads n * (max(N + 4, 16) + 50), not --prec
linvariant --p 5 --curve 0,-1,0 --n 100002 --prec 8
# curve specs have weight 2, so linvariant has no --k
linvariant --p 5 --curve 0,-1,0 --n 2 --k 3
critical --n 4 --k 4
critical --n 4 --k 4 --frobnicate
# the level is always the desk curve's 32; a curve's j names its CM field; only
# quadfield's labels take the embedding; the payload goes to stdout only
cmform --p 5 --curve 0,-1,0 --level 32
decompose --p 5 --curve 0,-1,0 --n 2 --level 32
trivial-zeros --p 5 --curve 0,-1,0 --n 2 --level 32
linvariant --p 5 --curve 0,-1,0 --level 32
linvariant --p 5 --curve 0,-1,0 --D -4
verify-fg --p 5 --D -4 --conjugate-lift
linvariant --p 5 --curve 0,-1,0 --conjugate-lift
verify-fg --p 5 --D -4 --out payload.json
cmform --p 5 --curve 0,-1,0 --d 1
decompose --p 5 --curve 0,-1,0 --n 2 --d 1
trivial-zeros --p 5 --curve 0,-1,0 --n 2 --d 1
linvariant --p 5 --curve 0,-1,0 --d 1
"""

# the readable goldens: tests/fixtures/<name>.json is the command's stdout
READABLE = {
    "cmform_p5": "cmform --p 5 --curve 0,-1,0 --prec 8",
    "klp_p5_D4_b0": "klp --p 5 --D -4 --branch 0 --at 0 --order 4 --prec 8",
    "trivial_zeros_n2": "trivial-zeros --p 5 --curve 0,-1,0 --n 2 --certificates --prec 8",
}

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
WORKLOADS = ROOT / "perfbench" / "workloads.py"


def ci_inputs() -> list[tuple[str, list[str]]]:
    """The inputs of the workflow's "Large class numbers finish" step, in its order:
    ("timeout", argv) for each `timeout <s> cmlinv <argv>` line and ("exits_two", argv)
    for each `exits_two <argv>` line, a line ending in a backslash joined to the next.
    Raises on any other line of the step that names cmlinv."""
    step = WORKFLOW.read_text(encoding="utf-8").split("- name: Large class numbers finish\n")[1]
    inputs = []
    for line in step.split("\n      - ")[0].replace("\\\n", " ").splitlines():
        words = shlex.split(line)
        words = words[:words.index("|")] if "|" in words else words  # a pipe reads stdout
        if words[:1] == ["timeout"] and words[2:3] == ["cmlinv"]:
            kind, argv = "timeout", words[3:]
        elif words[:1] == ["exits_two"]:
            kind, argv = "exits_two", words[1:]
        else:
            kind, argv = None, words
        if kind and not set("$;&<>`").intersection("".join(argv)):  # no redirect, no variable
            inputs.append((kind, argv))
        elif (kind or "cmlinv" in line) and words[:1] != ["exits_two()"]:  # its definition
            raise ValueError(f"{WORKFLOW}: cannot read {line.strip()!r}")
    return inputs


def cli_items() -> list[dict]:
    """perfbench/workloads.py's `cli_items()`: each benchmark command's argv, "rc", "ref"."""
    spec = importlib.util.spec_from_file_location("workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.cli_items()


def _curve_commands(curve: str, p: int, ns) -> list[list[str]]:
    at = ["--p", str(p), f"--curve={curve}"]
    out = [["cmform", *at]]
    for n in map(str, ns):
        out += [["decompose", *at, "--n", n], ["trivial-zeros", *at, "--n", n],
                ["trivial-zeros", *at, "--n", n, "--certificates"],
                ["linvariant", *at, "--n", n]]
    return out


def _field_commands(D: str, p: str) -> list[list[str]]:
    return [["quadfield", "--D", D, "--p", p], ["verify-fg", "--D", D, "--p", p]]


def _klp_commands(D: str, p: str, orders) -> list[list[str]]:
    # every branch at every expansion point, without --prec
    return [["klp", "--p", p, "--D", D, "--branch", b, "--at", s, "--order", order]
            for order in orders for b in "01" for s in "01"]


def commands() -> list[list[str]]:
    """The fixed command list, in the order it runs: each argv once, where it is first
    built, and CI's inputs last."""
    out = [["acceptance"]]
    for curve, split, inert in CM_CURVES:
        out += _curve_commands(curve, split, range(7))
        for p in (inert, *EXTRA_PRIMES):
            out += _curve_commands(curve, p, (2, 4))
    for curve in (NO_CM, SINGULAR):
        out += _curve_commands(curve, 5, (2,))
    for n in ("1514", "1518", "100002"):
        out += [[command, "--p", "5", "--curve=0,-1,0", "--n", n]
                for command in ("decompose", "trivial-zeros", "linvariant")]
    for prec in ("1", *BAD_PRECS):
        out += [[*argv, "--prec", prec] for argv in _curve_commands("0,-1,0", 5, (2, 4))]
    for D in map(str, FIELDS):
        out.append(["quadfield", "--D", D])
        for p in map(str, FIELD_PRIMES):
            out += _field_commands(D, p)
            out += [[*argv, "--prec", "4"] for argv in _klp_commands(D, p, ("3",))]
    for prec in BAD_PRECS:
        out += [[*argv.split(), "--prec", prec] for argv in (
            "quadfield --D -4 --p 5", "verify-fg --D -4 --p 5", "verify-fg --D -4 --p 1000033",
            "klp --p 5 --D -4 --branch 0 --at 0", "quadfield --D -4 --p 7", "quadfield --D -4",
            "quadfield --D -4 --p 2", "linvariant --p 40009 --curve 0,-1,0",
            "verify-fg --D -4 --p 13", "linvariant --p 5 --curve 0,-1,0")]
        out.append(["linvariant", "--p", "5", "--curve", "0,-1,0", "--n", prec])
    out += [
        ["quadfield", "--d", "1", "--p", "5", "--conjugate-lift"],
        ["quadfield", "--d", "163", "--D", "-163"], ["quadfield", "--d", "4"],
        ["quadfield", "--d", "1", "--D", "-3"], ["quadfield", "--D", "-5"],
        ["verify-fg", "--d", "2", "--p", "11"], ["verify-fg", "--p", "5"],
        ["verify-fg", "--D", "-4", "--p", "9"], ["klp", "--p", "9", "--D", "-4",
                                                "--branch", "0", "--at", "0"],
        ["klp", "--p", "5", "--D", "-4", "--branch", "0", "--at", "0", "--order", "0"],
        ["cmform", "--p", "5", "--curve", "1,2,3,4"], ["cmform", "--p", "5", "--curve", "-1,0"],
        ["critical", "--n", "4", "--k", "2", "--bogus"], ["bogus"],
    ]
    # inert primes whose g' at 0 takes 0.5-0.7 s to sum, and one over the closed form's ceiling
    out += [["verify-fg", "--D", D, "--p", p, "--prec", prec] for D, p, prec in
            (("-4", "7", "1240"), ("-40", "17", "560"), ("-3", "5", "1000"),
             ("-4", "1000039", "4"))]
    out += [["critical", "--n", str(n), "--k", str(k)] for n in range(7) for k in (1, 2, 5, 12)]
    # the refusals the golden pins: no CM or no split at p near the count's ceiling,
    # bad reduction (5 splits in Q(i) but divides the discriminant of y^2 = x^3 - 25x),
    # fields named twice (a d that names no field is named so, not as a mismatch), p
    # not an odd prime (checked before the plan divides by p - 2), |D| over its ceiling
    for curve, p in (("-1,1", 999961), ("0,-1,0", 999983), ("0,-25,0", 5)):
        out += _curve_commands(curve, p, (2,))
    out += [[*argv, "--prec", "8"] for argv in _curve_commands("0,-25,0", 5, (2, 4))
            if argv[0] == "trivial-zeros"]
    for command in ("quadfield --p 5", "klp --p 5 --branch 0 --at 0", "verify-fg --p 5"):
        out += [[*command.split(), "--D", D, "--d", d]
                for D, d in (("-4", "7"), ("-3", "1"), ("-4", "2"), ("-4", "4"), ("-4", "0"))]
    out += [[*command.split(), "--p", p] for p in ("9", "2")
            for command in ("klp --D -4 --branch 0 --at 0", "linvariant --curve 0,-1,0")]
    out.append(["quadfield", "--D", "-" + "9" * 199 + "5"])
    out += [line.split() for line in PINNED.splitlines() if line[0] != "#"]
    out += [item["argv"] for item in cli_items()]
    out += [argv.split() for argv in READABLE.values()]
    ci = [tuple(argv) for _, argv in ci_inputs()]
    rest = [argv for argv in dict.fromkeys(map(tuple, out)) if argv not in ci]
    return [list(argv) for argv in rest + ci]


def stdout_sha256(stdout: str) -> str:
    """The sha256 of stdout with acceptance's seconds, which differ from run to run, read
    as 0."""
    stdout = re.sub(r'"seconds":[-+.\deE]+', '"seconds":0', stdout)
    return hashlib.sha256(stdout.encode()).hexdigest()


def _run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    # argparse wraps a usage message at COLUMNS: 80, the width with no terminal, for
    # every command, so the output does not depend on the terminal the sweep runs in
    with mock.patch.dict(os.environ, COLUMNS="80"), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        try:
            status = main(argv)
        except SystemExit as exc:  # argparse: usage errors and --help
            status = exc.code
        except Exception as exc:  # a crash is a result too; the sweep goes on
            status = f"raised {type(exc).__name__}: {exc}"
    # acceptance prints each criterion's seconds, which differ from run to run
    stderr = re.sub(r"\([-+.\deE]+s\)", "(0s)", err.getvalue())
    return {"argv": argv, "exit": status, "stdout_sha256": stdout_sha256(out.getvalue()),
            "stderr": stderr}


def write(path) -> int:
    """Run every command and write its row to path; return the number of commands."""
    argvs = commands()
    with open(path, "w", encoding="utf-8") as fh:
        for argv in argvs:
            fh.write(json.dumps(_run(argv), sort_keys=True) + "\n")
    return len(argvs)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    t0 = time.perf_counter()
    count = write(sys.argv[1])
    print(f"{count} commands in {time.perf_counter() - t0:.1f} s", file=sys.stderr)
