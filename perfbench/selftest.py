"""Self-tests of the benchmark itself (not of cmlinv).

    PYTHONPATH=src python3 perfbench/selftest.py

Checks that the generator is deterministic per seed and that its pools
follow the rules stated in workloads.py, that the bad-input item exits 2
and counts as a success, that a flipped digit in an output is caught and
counted as one failure, and that an item past its cap is a failed item.
Exits 1 if any check fails.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import time
from math import gcd

sys.dont_write_bytecode = True

import passrun  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402

PRIMES_BELOW_30 = (3, 5, 7, 11, 13, 17, 19, 23, 29)
FAILURES: list[str] = []


def expect(cond: bool, what: str) -> None:
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        FAILURES.append(what)


def legendre(D: int, p: int) -> int:
    r = pow(D % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def phi(n: int) -> int:
    return sum(1 for a in range(1, n + 1) if gcd(a, n) == 1)


def test_plan_deterministic():
    for w in wl.WORKLOADS:
        expect(all(wl.plan(w, s) == wl.plan(w, s) for s in range(20)),
               f"{w}: the same seed gives the same items")
        expect(len({json.dumps(wl.plan(w, s)) for s in range(1, 40)}) > 1,
               f"{w}: other seeds draw other inputs")
    fg0 = wl.plan("fg-grid", 0)
    expect([(i["D"], i["p"], i["N"]) for i in fg0] ==
           [(D, p, N) for D, p in ((-4, 5), (-3, 7), (-39, 5), (-40, 13))
            for N in (8, 16, 32)], "fg-grid seed 0 is the documented grid")
    expect(sorted({i["D"] for i in wl.plan("field-twoway", 0)}) == [-167, -71, -23, -4]
           and len(wl.plan("field-twoway", 0)) == 32,
           "field-twoway seed 0 is D in {-4, -23, -71, -167}, 32 items")
    lin = [i["argv"][2] for i in wl.plan("cli-session", 0) if i["argv"][0] == "linvariant"]
    expect(lin == ["5", "13", "29"], "cli-session seed 0 runs linvariant at p = 5, 13, 29")


def test_pools_follow_rules():
    import cmlinv
    from cmlinv.characters import is_fundamental_discriminant
    for pool in wl.FG_SLOTS:
        D0, p = pool[0]
        target = phi(-D0 * p)
        want = [D for D in range(-3, -2000, -1)
                if is_fundamental_discriminant(D) and legendre(D, p) == 1
                and abs(phi(-D * p) - target) <= 0.1 * target]
        expect([D for D, _ in pool] == want, f"fg-grid pool of ({D0}, {p}) follows its rule")

    def search(D, h, primes):
        return sum(wl.norm_solution(D, p, h)[1] + 1 for p in primes)

    for h, pool in zip(wl.FIELD_HS, wl.FIELD_SLOTS):
        D0, primes0 = pool[0]
        s0 = search(D0, h, primes0)
        want = []
        for D in range(-3, -2000, -1):
            if not is_fundamental_discriminant(D) or \
                    cmlinv.quad_field_from_discriminant(D).h != h:
                continue
            primes = tuple(p for p in PRIMES_BELOW_30 if legendre(D, p) == 1)
            if len(primes) == len(primes0) and primes[0] == primes0[0] \
                    and abs(sum(primes) - sum(primes0)) <= 0.15 * sum(primes0) \
                    and abs(search(D, h, primes) - s0) <= max(0.05 * s0, 50000):
                want.append((D, primes))
        expect(list(pool) == want, f"field-twoway pool of h = {h} follows its rule")


def test_bad_input_is_success():
    item = next(i for i in wl.plan("cli-session", 0) if i["rc"] == 2)
    proc = subprocess.run([sys.executable, "-m", "cmlinv.cli", *item["argv"]],
                          capture_output=True)
    expect(proc.returncode == 2, "the bad-input item exits 2")
    expect(wl.check_cli(item, proc.returncode, proc.stdout),
           "the bad-input item counts as a success")


def _rows(oks: list[bool]) -> list[str]:
    lines = [json.dumps({"setup_s": 0.1, "rate": 600.0})]
    lines += [json.dumps({"item": i, "ok": ok, "seconds": 0.1, "rate": 600.0,
                          "digits": None, "error": None}) for i, ok in enumerate(oks)]
    return lines + [json.dumps({"rss_mb": 1.0})]


def test_flipped_digit_is_one_failure():
    item = next(i for i in wl.plan("cli-session", 0) if i["ref"] == "quadfield_d1_p5")
    good = wl.reference_output(item)
    pos = good.index(b'"digits":[') + len(b'"digits":[')
    bad = good[:pos] + bytes([ord("0") + (good[pos] - ord("0") + 1) % 5]) + good[pos + 1:]
    oks = [wl.check_cli(item, 0, good), wl.check_cli(item, 0, bad)]
    expect(oks == [True, False], "the CLI check rejects one flipped digit")
    p = run.Pass(2, _rows(oks), True)
    expect((p.attempted, p.failed) == (2, 1), "a flipped digit counts one failure")

    import cmlinv
    fg = {"D": -4, "p": 5, "N": 8}
    res = wl.run_item("fg-grid", fg, wl.prepare("fg-grid", fg))
    lhs = res.lhs + cmlinv.make_context(5, 8).from_int(5) ** (res.lhs.valuation() + 3)
    flipped = dataclasses.replace(res, lhs=lhs)
    expect([wl.check("fg-grid", fg, r)[0] for r in (res, flipped)] == [True, False],
           "the fg-grid check rejects a flipped digit even under a PASS verdict")


def test_capped_item_fails():
    passrun.ITEM_CAP_S = 0.01
    item = {"D": -40, "p": 13, "N": 32}
    lines = []
    passrun._emit = lambda row: lines.append(json.dumps(row))
    passrun.run_in_process("fg-grid", [item], "plain", 0.0, ".")
    p = run.Pass(1, lines, True)
    expect((p.attempted, p.failed) == (1, 1) and "ItemTimeout" in p.items[0]["error"],
           "an in-process item past its cap is stopped and counted as failed")
    lines.clear()
    passrun.run_cli([wl.plan("cli-session", 0)[0]], "plain", ".")
    p = run.Pass(1, lines, True)
    expect((p.attempted, p.failed) == (1, 1), "a CLI command past its cap is killed "
                                              "and counted as failed")


def test_pass_past_the_run_budget_is_killed():
    out = run.ROOT / ".bench_out" / "selftest"
    t0 = time.monotonic()
    p = run.run_pass("cli-session", 0, "plain", 10, dict(os.environ), out, t0 + 1.5)
    shutil.rmtree(out, ignore_errors=True)
    try:
        out.parent.rmdir()
    except OSError:
        pass
    expect(time.monotonic() - t0 < 5 and not p.complete
           and (p.attempted, p.failed) == (10, 10),
           "a pass killed at the run budget counts all its items as failed")


def test_tail_percentile():
    value, q = run.tail([float(i) for i in range(72)])
    expect(value == 61.0 and abs(q - 100 * 62 / 72) < 1e-9,
           "item_tail_s leaves exactly 10 samples beyond it")


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
    print(f"{len(FAILURES)} failed")
    sys.exit(1 if FAILURES else 0)
