"""Acceptance sweep: every `involutions verify` suite at its default bound.

`cli.SUITES` is the one registry of the paper's invariants; this module runs
each suite once and prints one PASS/FAIL line with its runtime.  Run with
`pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import time

import pytest

from involutions.cli import SUITES

# seconds each suite may take; a suite cannot be registered without one
TIME_LIMITS = {
    "tables": 1,
    "involution-forms": 1,
    "partial-sum-forms": 1,
    "oracle": 15,
    "toeplitz": 1,
    "nu2-involution": 1,
    "nu2-partial-sum": 1,
    "periodicity": 10,
    "efficiency": 5,
    "tree-5": 10,
    "f-sum": 30,
    "egf": 10,
    "congruence": 5,
    "asymptotic": 60,
    "hermite": 1,
    "cauchy": 10,
    "cycle-index": 1,
    "nu3-pattern": 10,
}


def test_every_suite_has_a_time_limit():
    assert TIME_LIMITS.keys() == SUITES.keys()


@pytest.mark.parametrize("name", sorted(SUITES))
def test_suite(name):
    check, default_bound = SUITES[name]
    started = time.monotonic()
    counterexample = check(default_bound)
    elapsed = time.monotonic() - started
    print(f"suite {name}: {'PASS' if counterexample is None else 'FAIL'} ({elapsed:.2f}s)")
    assert counterexample is None, f"suite {name} failed: {counterexample}"
    limit = TIME_LIMITS[name]
    assert elapsed < limit, f"suite {name} exceeded {limit}s ({elapsed:.2f}s)"
