"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every comparison is exact; the stated wall-clock budgets are asserted too.
Run with ``pytest -s tests/test_acceptance.py -v`` to see the lines, or use
``gl2ext verify --suite full`` for the CLI equivalent.
"""

import time

from gl2ext import verify


def _report(name: str, ok: bool, started: float, budget: float, detail: str = ""):
    elapsed = time.perf_counter() - started
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {status} {name} ({elapsed:.2f}s / budget {budget:.0f}s) {detail}")
    assert ok, f"{name}: {detail}"
    assert elapsed < budget, f"{name} exceeded its {budget:.0f}s budget ({elapsed:.2f}s)"


def test_criterion_1_reference_column_reproduction():
    started = time.perf_counter()
    check = verify.check_reference_column()
    _report("1 reference-column reproduction", check.ok, started, 1.0, check.detail)


def test_criterion_2_yoneda_degree_multiset():
    started = time.perf_counter()
    check = verify.check_yoneda_multiset()
    _report("2 yoneda-degree multiset", check.ok, started, 1.0, check.detail)


def test_criterion_3_oracle_concordance_q1():
    started = time.perf_counter()
    check = verify.check_oracle_concordance_q1(ps=(2, 3))
    _report("3 oracle concordance at q=1", check.ok, started, 10.0, check.detail)


def test_criterion_4_presentation_concordance():
    started = time.perf_counter()
    check = verify.check_presentation_concordance(ps=(2, 3, 5))
    _report("4 presentation concordance", check.ok, started, 30.0, check.detail)


def test_criterion_5_exact_sequence_identity():
    started = time.perf_counter()
    check = verify.check_ses_identity(ps=(2, 3, 5, 7))
    _report("5 exact-sequence identity", check.ok, started, 1.0, check.detail)


def test_criterion_6_series_equals_enumeration():
    started = time.perf_counter()
    check = verify.check_series_vs_enumeration(
        pairs=((2, 1), (2, 2), (3, 1), (3, 2))
    )
    _report("6 series equals enumeration", check.ok, started, 30.0, check.detail)


def test_criterion_7_property_suites():
    started = time.perf_counter()
    check = verify.check_property_suite(random_rounds=10_000, ps=(2, 3, 5), q_max=3)
    _report("7 property suites", check.ok, started, 60.0, check.detail)


def test_criterion_8_y2_p3_column():
    started = time.perf_counter()
    check = verify.check_y2_column()
    _report("8 quiver column at (1,1)", check.ok, started, 120.0, check.detail)


def test_supporting_calibration_of_vertex_tuples():
    # fixes the vertex-tuple orientation used by criteria 1 and 8
    started = time.perf_counter()
    check = verify.check_calibration()
    _report("calibration of vertex tuples", check.ok, started, 30.0, check.detail)

