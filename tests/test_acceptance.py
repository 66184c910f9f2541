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
from cmlinv.acceptance import (CRITERIA, CURVE_PRIMES, TARGET, ac3_unit_root_identity,
                               ac4_interpolation_oracle, run)
from probe import stage_probe


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


def test_ac3_counts_each_point_count_once():
    # one a_p per prime feeds both the spec and the detail
    with stage_probe() as stages:
        assert run(ac3_unit_root_identity).passed
    assert stages.count("cmform.ap_point_count") == len(CURVE_PRIMES)  # 4 counts for 4 primes
