"""Acceptance suite: every shipped guarantee, one test per criterion.

Run with -s to see the per-criterion PASS/FAIL lines; the same checks back
the `antcover harness` command.
"""

import pytest

from antcover.acceptance import CRITERIA, AcceptanceRun, run_all


@pytest.fixture(scope="module")
def results():
    return {res.number: res for res in run_all(fast=False)}


@pytest.mark.parametrize("number", range(1, 11))
def test_criterion(results, number):
    res = results[number]
    print(res.line())
    assert res.passed, res.detail


@pytest.mark.parametrize("number, nothing", [(5, "0 covers / 0 elements"), (9, "0 box models")])
def test_checks_of_emitted_covers_fail_when_none_were_emitted(number, nothing):
    row = next(row for row in CRITERIA if row[0] == number)
    res = AcceptanceRun(fast=True).result(*row)
    assert not res.passed and nothing in res.detail
