"""Acceptance gate: every verification suite must pass.

Runs each built-in suite on its full fixed grid and prints one PASS/FAIL
line per criterion, so a bare ``pytest tests/test_acceptance.py -s`` reads
as a checklist.  The positivity and shape suites cover large grids and
take most of the gate's runtime, about a minute on two vCPUs.
"""

from __future__ import annotations

import pytest

from contangle import verification

CRITERIA = [
    ("1", "positivity"),
    ("2", "coincidence"),
    ("3", "oracle"),
    ("4", "recursion"),
    ("5", "gamma"),
    ("6", "scale"),
    ("7", "fidelity"),
    ("8", "shape"),
]


@pytest.mark.parametrize("index,suite", CRITERIA)
def test_acceptance_criterion(index, suite, capsys):
    report = verification.run_suite(suite)
    status = "PASS" if report.passed else "FAIL"
    worst = "" if report.worst is None else f", worst {report.worst:.3e}"
    with capsys.disabled():
        print(
            f"ACCEPTANCE {index}/8 {suite}: {status} "
            f"({report.checks} checks{worst}, {report.seconds:.1f}s)"
        )
    assert report.passed, report.summary()


def test_suite_registry_is_complete():
    assert list(verification.SUITE_NAMES) == [name for _, name in CRITERIA]
