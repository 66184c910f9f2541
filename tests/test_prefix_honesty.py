"""Digit-prefix honesty: every digit cmlinv prints at --prec N survives at N + 24.

Each command runs at --prec N for N = 4, 8 and 12 and again at N + 24, and every
{valuation, digits, precision} object of the two payloads is compared position by
position.  A value with r known digits keeps its valuation and its first r digits;
a zero known mod p^A comes back with valuation >= A, or exact; an exact zero stays
exact.  This checks the precision rule end to end, sharing no code with the loss
bounds that set each precision.  The commands come from tools/sweep.py.
"""

import importlib
import json
import sys
from pathlib import Path

import pytest

from cmlinv.cli import main
from cmlinv.quadfield import quad_field_from_discriminant, split_behavior

TOOLS = Path(__file__).parent.parent / "tools"
sys.path.insert(0, str(TOOLS))
try:
    SWEEP = importlib.import_module("sweep")
finally:
    sys.path.remove(str(TOOLS))

PRECS, EXTRA = (4, 8, 12), 24
# the sweep's fields at each odd prime below 41 that splits there: h = 1 to 11
SPLIT = [(str(D), str(p)) for D in SWEEP.FIELDS for p in SWEEP.FIELD_PRIMES
         if 2 < p < 41 and split_behavior(quad_field_from_discriminant(D), p) == "split"]
# the Q(i), j = 0 and D = -7 curves, each at the sweep's prime that splits
CURVES = [(curve, p) for curve, p, _ in SWEEP.CM_CURVES if curve in ("0,-1,0", "0,1", "-35,-98")]


def commands() -> list[list[str]]:
    out = []
    for D, p in SPLIT:
        out += SWEEP._field_commands(D, p) + SWEEP._klp_commands(D, p, ("2", "4"))
    for curve, p in CURVES:  # trivial-zeros prints p-adic numbers only with certificates
        out += [argv for argv in SWEEP._curve_commands(curve, p, (2, 3, 6))
                if argv[0] != "trivial-zeros" or "--certificates" in argv]
    return out


def _values(payload) -> list[dict]:
    """The p-adic numbers of a payload, in the order it prints them."""
    if isinstance(payload, dict):
        if payload.keys() == {"valuation", "digits", "precision"}:
            return [payload]
        payload = list(payload.values())
    return [v for item in payload for v in _values(item)] if isinstance(payload, list) else []


def _keeps(low: dict, high: dict) -> bool:
    """Whether `high`, the same value at more digits, keeps every digit `low` claims."""
    r = low["precision"]
    if r:  # p^v * (d_0 + d_1 p + ...) with r known digits
        return high["valuation"] == low["valuation"] and high["digits"][:r] == low["digits"]
    if low["valuation"] is None:  # an exact zero
        return high == low
    # zero mod p^A: nonzero of valuation >= A, zero mod a higher power, or exact
    return high["valuation"] is None or high["valuation"] >= low["valuation"]


def _run(capsys, argv, prec) -> list[dict]:
    code = main([*argv, "--prec", str(prec)])
    out = capsys.readouterr().out
    assert code == 0, (argv, prec)
    return _values(json.loads(out))


@pytest.mark.parametrize("N", PRECS)
def test_every_printed_digit_survives_more_precision(capsys, N):
    compared = 0
    for argv in commands():
        low, high = _run(capsys, argv, N), _run(capsys, argv, N + EXTRA)
        assert len(low) == len(high), argv
        assert [i for i, (a, b) in enumerate(zip(low, high)) if not _keeps(a, b)] == [], argv
        compared += len(low)
    assert compared > 500


def test_one_digit_too_many_is_caught(capsys):
    argv = SWEEP._klp_commands("-4", "5", ("2",))[0]
    low, high = _run(capsys, argv, 4), _run(capsys, argv, 4 + EXTRA)
    a, b = next((a, b) for a, b in zip(low, high) if a["precision"])
    assert _keeps(a, b)
    r = a["precision"]
    wrong = (b["digits"][r] + 1) % 5  # digit r, which a does not know, claimed wrongly
    assert not _keeps({**a, "digits": [*a["digits"], wrong], "precision": r + 1}, b)
    # a zero claimed mod one power of p more than b's valuation allows
    assert not _keeps({"valuation": b["valuation"] + 1, "digits": [], "precision": 0}, b)
