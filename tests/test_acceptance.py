"""The acceptance gate: one test per exit criterion, one printed line each.

Every criterion runs at its stated tolerance (residuals compared to
p^-6, exact equalities exact); the battery itself lives in
cmlinv.acceptance so the CLI table and this module cannot drift.
Run with -s to see the pass/fail lines.
"""

import json
import sys

import pytest

from cmlinv import characters, kl
from cmlinv.acceptance import CRITERIA, TARGET, ac4_interpolation_oracle, run


@pytest.mark.parametrize("criterion", CRITERIA,
                         ids=[fn.__name__ for fn in CRITERIA])
def test_criterion(criterion):
    result = run(criterion)
    line = f"[{'PASS' if result.passed else 'FAIL'}] {result.name} ({result.seconds}s)"
    print(line)
    sys.stderr.write(line + "\n")
    assert result.passed, json.dumps(result.detail, sort_keys=True, default=str)


@pytest.mark.parametrize("j", [4, 6, 10, 12])
def test_ac4_sees_a_wrong_bernoulli_number(monkeypatch, j):
    # B_j times 3 in the shared table: at its nodes n = 1 mod p - 1, AC-4 reads
    # B_{n,theta} through the distribution relation, which only the true table
    # satisfies, so every held-out residual drops below TARGET
    characters.bernoulli_number(128)  # grown past every B_j the battery reads
    table = list(characters._bernoulli)
    table[j] *= 3
    monkeypatch.setattr(characters, "_bernoulli", tuple(table))
    kl._g_at_zero.cache_clear()
    try:
        result = run(ac4_interpolation_oracle)
    finally:
        kl._g_at_zero.cache_clear()  # no table built from the wrong B_j outlives the test
    assert not result.passed
    for key, row in result.detail.items():
        assert all(r < TARGET for r in row["held_out_residuals"]), (key, row)


def test_ac3_counts_each_point_count_once(monkeypatch):
    # one a_p per prime feeds both the spec and the detail; patched on cmform and
    # on acceptance too, so a count reached through either name is seen
    import cmlinv.acceptance as acc
    from cmlinv import cmform
    calls, real = [], cmform.ap_point_count

    def counted(curve, p):
        calls.append(p)
        return real(curve, p)
    monkeypatch.setattr(cmform, "ap_point_count", counted)
    monkeypatch.setattr(acc, "ap_point_count", counted, raising=False)
    assert run(acc.ac3_unit_root_identity).passed
    assert sorted(calls) == sorted(acc.CURVE_PRIMES)  # 4 counts for 4 primes
