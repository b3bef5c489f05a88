"""Session-wide cache of the named suites.

The named suites in vertexalg.suites are the one catalogue of the paper's
checks.  The acceptance criteria and tests/test_suites.py both read their
reports from this cache, so each suite runs once per pytest session.
"""

import time

import pytest

from vertexalg.suites import run_suite


@pytest.fixture(scope="session")
def suite_report():
    """suite_report(name) -> (SuiteReport, wall seconds of run_suite(name))."""
    cache = {}

    def get(name):
        if name not in cache:
            t0 = time.perf_counter()
            report = run_suite(name)
            cache[name] = (report, time.perf_counter() - t0)
        return cache[name]

    return get
