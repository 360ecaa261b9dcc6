"""Acceptance gate: one test per criterion, each printing a pass/fail line.

The criterion implementations live in thermalqfi.verify so the CLI verify
verb runs the identical battery; this module is the pytest surface, one
case per entry of verify.ALL_CHECKS, so no criterion can be left out.
Run with `pytest tests/test_acceptance.py -v -s` to see every line.
"""

import pytest

from thermalqfi import verify

CHECKS = list(enumerate(verify.ALL_CHECKS, start=1))


@pytest.mark.parametrize(("position", "check"), CHECKS, ids=[check.__name__ for _, check in CHECKS])
def test_criterion(position, check):
    result = check()
    status = "PASS" if result.passed else "FAIL"
    print(f"[criterion {result.criterion:02d}] {status} {result.name}: {result.detail}")
    # the bench numbers its verify units by this position
    assert result.criterion == position
    assert result.passed, f"criterion {result.criterion} ({result.name}): {result.detail}"
