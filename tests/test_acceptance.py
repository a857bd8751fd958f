"""Acceptance: every check of ``verify --suite full`` passes within its budget.

``verify.run_suite("full")`` runs once, with its own arguments, each
``check_*`` wrapped where it looks it up (as ``bench/spans.py`` does) to
time it; one test per check reads the result (``pytest -s`` prints them).
"""

import time

import pytest

from gl2ext import verify

# Wall-clock budget of each check of the full suite, in seconds.
BUDGETS = {
    "reference_column_reproduction": 1.0,
    "yoneda_degree_multiset": 1.0,
    "oracle_concordance_q1": 10.0,
    "series_matches_enumeration": 30.0,
    "vertex_tuple_calibration": 30.0,
    "omega_presentation_concordance": 30.0,
    "exact_sequence_identity": 1.0,
    "oracle_exact_sequence_identity": 30.0,
    "property_suite": 60.0,
    "y2_p3_column": 120.0,
}


@pytest.fixture(scope="module")
def full_suite():
    """Each check of ``run_suite("full")`` by name, with its seconds."""
    seconds = {}

    def timed(fn):
        def run(*args, **kwargs):
            started = time.perf_counter()
            check = fn(*args, **kwargs)
            seconds[check.name] = time.perf_counter() - started
            return check

        return run

    with pytest.MonkeyPatch.context() as mp:
        for name in dir(verify):
            if name.startswith("check_"):
                mp.setattr(verify, name, timed(getattr(verify, name)))
        checks = verify.run_suite("full")
    assert sorted(seconds) == sorted(BUDGETS)
    return {check.name: (check, seconds[check.name]) for check in checks}


def _report(full_suite, name: str):
    (check, elapsed), budget = full_suite[name], BUDGETS[name]
    status = "PASS" if check.ok and elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {status} {name} ({elapsed:.2f}s / budget {budget:.0f}s) {check.detail}")
    assert check.ok, f"{name}: {check.detail}"
    assert elapsed < budget, f"{name} exceeded its {budget:.0f}s budget ({elapsed:.2f}s)"


def test_criterion_1_reference_column_reproduction(full_suite):
    _report(full_suite, "reference_column_reproduction")


def test_criterion_2_yoneda_degree_multiset(full_suite):
    _report(full_suite, "yoneda_degree_multiset")


def test_criterion_3_oracle_concordance_q1(full_suite):
    _report(full_suite, "oracle_concordance_q1")


def test_criterion_4_presentation_concordance(full_suite):
    _report(full_suite, "omega_presentation_concordance")


def test_criterion_5_exact_sequence_identity(full_suite):
    _report(full_suite, "exact_sequence_identity")
    _report(full_suite, "oracle_exact_sequence_identity")


def test_criterion_6_series_equals_enumeration(full_suite):
    _report(full_suite, "series_matches_enumeration")


def test_criterion_7_property_suites(full_suite):
    _report(full_suite, "property_suite")


def test_criterion_8_y2_p3_column(full_suite):
    _report(full_suite, "y2_p3_column")


def test_supporting_calibration_of_vertex_tuples(full_suite):
    # fixes the vertex-tuple orientation used by criteria 1 and 8
    _report(full_suite, "vertex_tuple_calibration")
