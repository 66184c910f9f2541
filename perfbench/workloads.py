"""Workload inputs, drawn from a seed, and the check of each item's output.

`plan(workload, seed)` returns the item list as plain data and needs no
import of cmlinv, so the driver can count items without loading the
program.  Seed 0 is the documented grid; any other seed draws each slot
from a pool of inputs of the same kind.  A pool holds only inputs whose
cost drivers match the seed-0 member (see README.md), so that runs on
different seeds measure the same amount of work.

`prepare`, `run_item` and `check` run inside a pass process and call
cmlinv.  `check` does not rest on the program's verdict alone: it
recomputes the residual from the two independent sides.
"""

from __future__ import annotations

import json
import random
from math import isqrt
from pathlib import Path

WORKLOADS = ("fg-grid", "field-twoway", "cli-session")

# fg-grid: one pool per (D, p) slot, seed-0 member first.  A pool keeps p
# and admits D only when the residue count phi(|D| p), which sets the
# Bernoulli cost, lies within 10% of the seed-0 pair's.
FG_SLOTS = (
    ((-4, 5),),
    ((-3, 7),),
    ((-39, 5), (-56, 5), (-84, 5)),
    ((-40, 13),),
)
FG_NS = (8, 16, 32)

# field-twoway: one pool per class number h, seed-0 member first, each
# entry (D, split primes below 30).  A pool keeps h, the number of split
# primes and the smallest of them (its 512-digit item sets item_p50_s),
# and admits a sum of those primes within 15% (the 512-digit work grows
# with p) and a norm-search length within 5% or 50 000 steps.
FIELD_SLOTS = (
    ((-4, (5, 13, 17, 29)),),
    ((-23, (3, 13, 29)),),
    ((-71, (3, 5, 19, 29)), (-587, (3, 7, 17, 29)), (-827, (3, 11, 19, 23))),
    ((-167, (3, 7, 11, 19, 29)),),
)
FIELD_HS = (1, 3, 7, 11)
FIELD_NS = (64, 512)

# cli-session: the n = 2 linvariant pair is p = 5 and a second split prime
# of Q(i) below 29 (the pair {13, 17} would cost 40% more); the n = 6
# command keeps p = 29, the costliest linvariant, so the tail item is the
# same command on every seed.
CLI_N2_PAIRS = ((5, 13), (5, 17))
CURVE = "0,-1,0"


def _linvariant(p: int, n: int, prec: int) -> dict:
    return {"argv": ["linvariant", "--p", str(p), "--curve", CURVE, "--n", str(n),
                     "--prec", str(prec)],
            "rc": 0, "ref": f"linvariant_p{p}_n{n}_prec{prec}"}


CLI_FIXED_HEAD = (
    {"argv": ["acceptance"], "rc": 0, "ref": "acceptance"},
)
CLI_FIXED_TAIL = (
    _linvariant(29, 6, 16),
    {"argv": ["trivial-zeros", "--p", "5", "--curve", CURVE, "--n", "6",
              "--certificates"], "rc": 0, "ref": "trivial_zeros_p5_n6"},
    {"argv": ["klp", "--p", "5", "--D", "-4", "--branch", "1", "--at", "1",
              "--order", "8", "--prec", "8"], "rc": 0, "ref": "klp_p5_D-4_b1"},
    {"argv": ["quadfield", "--d", "1", "--p", "5"], "rc": 0, "ref": "quadfield_d1_p5"},
    {"argv": ["decompose", "--p", "5", "--curve", CURVE, "--n", "6"], "rc": 0,
     "ref": "decompose_p5_n6"},
    {"argv": ["critical", "--n", "4", "--k", "4"], "rc": 0, "ref": "critical_4_4"},
    # bad input: p = 7 is inert in Q(i); the CLI must refuse with exit 2
    {"argv": ["verify-fg", "--D", "-4", "--p", "7", "--prec", "8"], "rc": 2,
     "ref": "verify_fg_bad"},
)

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def _pick(rng: random.Random | None, pool):
    return pool[0] if rng is None else rng.choice(pool)


def plan(workload: str, seed: int) -> list[dict]:
    """The items of one pass, as JSON-ready dicts; the same seed gives the same list."""
    rng = None if seed == 0 else random.Random(seed)
    if workload == "fg-grid":
        pairs = [_pick(rng, pool) for pool in FG_SLOTS]
        return [{"D": D, "p": p, "N": N} for D, p in pairs for N in FG_NS]
    if workload == "field-twoway":
        items = []
        for h, pool in zip(FIELD_HS, FIELD_SLOTS):
            D, primes = _pick(rng, pool)
            items += [{"D": D, "h": h, "p": p, "N": N} for p in primes for N in FIELD_NS]
        return items
    if workload == "cli-session":
        a, b = _pick(rng, CLI_N2_PAIRS)
        return [*CLI_FIXED_HEAD, _linvariant(a, 2, 12), _linvariant(b, 2, 12),
                *CLI_FIXED_TAIL]
    raise ValueError(f"unknown workload {workload!r}")


def cli_items() -> list[dict]:
    """Every command any seed can draw, for capturing the references."""
    pair_primes = sorted({p for pair in CLI_N2_PAIRS for p in pair})
    return [*CLI_FIXED_HEAD, *(_linvariant(p, 2, 12) for p in pair_primes),
            *CLI_FIXED_TAIL]


def norm_solution(D: int, p: int, h: int) -> tuple[int, int]:
    """Primitive (x, y), x, y >= 0, with x^2 - D y^2 = 4 p^h, for p split in Q(sqrt(D)).

    Hensel-lifts sqrt(D) to p^h and runs Cornacchia's reduction (Cohen,
    GTM 138, Alg. 1.5.3), so it shares no code with the program's search.
    """
    m = p**h
    r = next(t for t in range(1, p) if (t * t - D) % p == 0)
    for _ in range(h.bit_length() + 1):
        r = (r - (r * r - D) * pow(2 * r, -1, m)) % m
    if (r - D) % 2:
        r += m
    a, b, bound = 2 * m, r, isqrt(4 * m)
    while b > bound:
        a, b = b, a % b
    c, rem = divmod(4 * m - b * b, -D)
    y = isqrt(c)
    if rem or y * y != c or b * b - D * y * y != 4 * m:
        raise ArithmeticError(f"no primitive norm solution for D={D}, p={p}, h={h}")
    return b, y


def reference_output(item: dict) -> bytes:
    return (REFERENCE_DIR / f"{item['ref']}.out").read_bytes()


def _drop_seconds(stdout: bytes) -> str:
    payload = json.loads(stdout)
    for row in payload["criteria"]:
        row.pop("seconds", None)
    return json.dumps(payload, sort_keys=True)


def check_cli(item: dict, rc: int, stdout: bytes) -> bool:
    """Expected exit code, and stdout byte-identical to the seed-commit reference
    (for `acceptance`, after dropping the `seconds` fields)."""
    if rc != item["rc"]:
        return False
    ref = reference_output(item)
    if item["argv"][0] == "acceptance":
        try:
            return _drop_seconds(stdout) == _drop_seconds(ref)
        except (ValueError, KeyError, TypeError):
            return False
    return stdout == ref


def acceptance_seconds(stdout: bytes) -> dict:
    """{'AC-1': seconds, ...} from the acceptance command's JSON."""
    out = {}
    for row in json.loads(stdout)["criteria"]:
        out[row["name"].split()[0]] = row["seconds"]
    return out


# --- in-process workloads (these import cmlinv) --------------------------


def prepare(workload: str, item: dict):
    """Build the program's inputs for one item; runs before timing starts."""
    import cmlinv
    ctx = cmlinv.make_context(item["p"], item["N"])
    F = cmlinv.quad_field_from_discriminant(item["D"])
    if workload == "fg-grid":
        return F, ctx
    if F.h != item["h"]:
        raise ValueError(f"h({item['D']}) = {F.h}, expected {item['h']}")
    x, _ = norm_solution(F.D, item["p"], F.h)
    # weight h + 1 with trivial nebentypus: a_p is the trace of the generator
    spec = cmlinv.cm_spec(F, F.h + 1, cmlinv.trivial_character(), x, -F.D, ctx)
    return F, ctx, spec


def run_item(workload: str, item: dict, prepared):
    from cmlinv import linvariant
    if workload == "fg-grid":
        F, ctx = prepared
        return linvariant.verify_ferrero_greenberg(F, item["p"], ctx, target=item["N"])
    F, ctx, spec = prepared
    rep = linvariant.l_invariant_analytic(F, item["p"], ctx)
    return rep.l_at_1, linvariant.l_invariant_via_alpha(spec)


def _ordp(n: int, p: int) -> int:
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


def check(workload: str, item: dict, result) -> tuple[bool, int | None]:
    """(passed, certified digits) from the two sides of the item's identity."""
    if workload == "fg-grid":
        lhs, rhs = result.lhs, result.rhs
        need = item["N"]
        verdict = result.passed
    else:
        lhs, rhs = result
        need = item["N"] - _ordp(item["h"], item["p"])
        verdict = True
    resid = (lhs - rhs).min_valuation()
    digits = None if resid == float("inf") else int(resid)
    return verdict and resid >= need, digits
