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
from cmlinv.acceptance import CRITERIA, TARGET, ac4_interpolation_oracle


@pytest.mark.parametrize("criterion", CRITERIA,
                         ids=[fn.__name__ for fn in CRITERIA])
def test_criterion(criterion):
    result = criterion()
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
        result = ac4_interpolation_oracle()
    finally:
        kl._g_at_zero.cache_clear()  # no table built from the wrong B_j outlives the test
    assert not result.passed
    for key, row in result.detail.items():
        assert all(r < TARGET for r in row["held_out_residuals"]), (key, row)
