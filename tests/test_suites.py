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


def test_suite_details_print_numbers(suite_report):
    report, _ = suite_report("osp-coset")
    details = {name: detail for name, _, detail, _ in report.checks}
    assert details["weight-6-decoupling"] == (
        "multiplier (3*k^2 + 20*k + 32); roots [-4, -8/3]; "
        "poles [-2, -3/2] reported separately"
    )
    assert details["weight-8-decoupling"] == (
        "multiplier (15*k^3 + 136*k^2 + 400*k + 384); roots [-4, -8/3, -12/5]; "
        "poles [-2, -3/2] reported separately"
    )
