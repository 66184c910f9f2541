"""The acceptance gate: one test per exit criterion, one printed line each.

Every criterion runs at its stated tolerance (residuals compared to
p^-6, exact equalities exact); the battery itself lives in
cmlinv.acceptance so the CLI table and this module cannot drift.
Run with -s to see the pass/fail lines.
"""

import json
import sys

import pytest

from cmlinv.acceptance import CRITERIA


@pytest.mark.parametrize("criterion", CRITERIA,
                         ids=[fn.__name__ for fn in CRITERIA])
def test_criterion(criterion):
    result = criterion()
    line = f"[{'PASS' if result.passed else 'FAIL'}] {result.name} ({result.seconds}s)"
    print(line)
    sys.stderr.write(line + "\n")
    assert result.passed, json.dumps(result.detail, sort_keys=True, default=str)
