"""All named suites run green end to end."""

import pytest

from vertexalg.suites import SUITES, run_suite


@pytest.mark.parametrize("name", sorted(SUITES))
def test_suite_passes(name, suite_report):
    report, _ = suite_report(name)
    failures = [(n, d) for n, s, d, _ in report.checks if s == "fail"]
    assert report.passed, failures


def test_unknown_suite():
    with pytest.raises(KeyError):
        run_suite("not-a-suite")
