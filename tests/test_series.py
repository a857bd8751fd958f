import time

import pytest

from gl2ext.series import (
    BigradedSeries,
    InsufficientBoundsError,
    TrigradedSeries,
    apply_operator,
    fz_series,
    lambda_q_series,
    lambda_series,
)
from gl2ext.lambda_basis import coupling_support_bound
from gl2ext.verify import check_series_vs_enumeration


def test_lambda_series_level_zero_slice_p2():
    s = lambda_series(2, i_max=0, k_max=4)
    assert s.value(0, 0, 0) == 2
    assert s.value(0, 1, 1) == 2
    assert s.value(0, 2, 2) == 1
    assert sum(v for (i, _, _), v in s.dims.items() if i == 0) == 5


def test_lambda_series_level_one_p2():
    s = lambda_series(2, i_max=1, k_max=4)
    # the lone open-strip element sits at coupling 1, homological degree 0
    assert s.value(1, 1, 0) == 1
    # closed-strip elements with one central power land at coupling 2 + |b|
    assert s.value(1, 2, 1) == 2
    assert max(j for (i, j, _) in s.dims if i == 1) == coupling_support_bound(2, 1)


def test_fz_series_rule():
    fz = fz_series()
    assert fz.value(0, 0) == 1
    assert fz.value(17, 0) == 1
    assert fz.value(3, 2) == 0


def test_apply_with_fz_sums_over_coupling():
    s = lambda_series(2, i_max=0, k_max=4)
    out = apply_operator(s, fz_series(), k_max=4)
    assert [out.value(0, k) for k in range(3)] == [2, 2, 1]


def test_apply_with_flat_operand_sums_rows():
    # an operand that is 1 at every (j, 0) within bounds behaves like the
    # polynomial series: the output row sums the operator over coupling
    gamma = lambda_series(3, i_max=2, k_max=6)
    flat = BigradedSeries(
        dims={(j, 0): 1 for j in range(0, coupling_support_bound(3, 2) + 1)},
        j_bound=coupling_support_bound(3, 2),
        k_bound=6,
    )
    via_rule = apply_operator(gamma, fz_series(), k_max=6)
    via_dims = apply_operator(gamma, flat, k_max=6)
    assert via_rule.dims == via_dims.dims


def test_lambda_q_series_examples():
    assert lambda_q_series(2, 1) == {0: 2, 1: 2, 2: 1}
    assert lambda_q_series(2, 0) == {0: 1}
    assert lambda_q_series(3, 1) == {0: 3, 1: 4, 2: 4, 3: 2, 4: 1}


def test_lambda_q_series_matches_enumeration():
    # verify runs the pairs with p <= 3, q <= 2; this adds (2, 3)
    check = check_series_vs_enumeration(pairs=((2, 3),))
    assert check.ok, check.detail


def test_monotone_stability_under_bigger_bounds():
    small = lambda_q_series(2, 2, k_max=3)
    full = lambda_q_series(2, 2)
    assert small == {k: v for k, v in full.items() if k <= 3}
    # enlarging the operator bounds never changes existing entries
    a = apply_operator(lambda_series(2, i_max=1, k_max=4), fz_series(), k_max=4)
    b = apply_operator(lambda_series(2, i_max=3, k_max=8), fz_series(), k_max=8)
    for (i, k), v in a.dims.items():
        assert b.value(i, k) == v


def test_insufficient_bounds_errors():
    gamma = lambda_series(2, i_max=1, k_max=4)
    narrow = BigradedSeries(dims={(0, 0): 1}, j_bound=0, k_bound=4)
    with pytest.raises(InsufficientBoundsError):
        apply_operator(gamma, narrow, k_max=4)
    point = TrigradedSeries({(0, 0, 0): 1}, i_max=None, k_max=None)
    with pytest.raises(InsufficientBoundsError):
        apply_operator(point, fz_series())  # unbounded rule needs k_max
    with pytest.raises(InsufficientBoundsError):
        BigradedSeries(dims={}, j_bound=2, k_bound=2).value(3, 0)


def test_trigraded_series_drops_zero_entries():
    s = TrigradedSeries({(0, 0, 0): 1, (1, 1, 1): 0}, 1, 1)
    assert (1, 1, 1) not in s.dims


def test_a_degree_cap_above_the_top_degree_costs_nothing():
    # nothing lies above the top Yoneda degree 2 * (p**q - 1), so a larger
    # k_max gives the same answer and must not make work that grows with it
    start = time.perf_counter()
    assert lambda_q_series(3, 3, k_max=10**5) == lambda_q_series(3, 3)
    assert time.perf_counter() - start < 2
