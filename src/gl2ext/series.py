"""Graded dimension series and the convolution operator between them.

A trigraded series records dims(i, j, k) of the twisted tensor layer; a
bigraded series records dims(j, k) of an operand algebra.  Applying the
operator convolves over the middle index j and the homological index k,
and the output's first index is reinterpreted as the j-index of the next
application.  Completeness bounds are tracked explicitly (None meaning
complete everywhere) so that truncation can never silently drop
contributions.  After the last application, Ext is the row j = 0.
"""

from __future__ import annotations

from typing import Callable, Optional

from .paths import require_prime
from .lambda_basis import bidegree, coupling_support_bound, k_degree, level_elements


class InsufficientBoundsError(ValueError):
    """The operand series cannot be evaluated on the required support."""


def _min_bound(*bounds: Optional[int]) -> Optional[int]:
    finite = [b for b in bounds if b is not None]
    return min(finite) if finite else None


class BigradedSeries:
    """(j, k)-graded dimensions, either tabulated or given by a total rule.

    ``j_bound``/``k_bound`` give the inclusive range on which values are
    complete; None means complete everywhere.
    """

    def __init__(
        self,
        dims: Optional[dict[tuple[int, int], int]] = None,
        rule: Optional[Callable[[int, int], int]] = None,
        j_bound: Optional[int] = None,
        k_bound: Optional[int] = None,
    ):
        if (dims is None) == (rule is None):
            raise ValueError("exactly one of dims and rule is required")
        self.dims = {key: v for key, v in dims.items() if v} if dims is not None else None
        self.rule = rule
        self.j_bound = j_bound
        self.k_bound = k_bound

    def value(self, j: int, k: int) -> int:
        if self.j_bound is not None and j > self.j_bound:
            raise InsufficientBoundsError(
                f"series evaluated at j={j} beyond its bound {self.j_bound}"
            )
        if self.k_bound is not None and k > self.k_bound:
            raise InsufficientBoundsError(
                f"series evaluated at k={k} beyond its bound {self.k_bound}"
            )
        if self.rule is not None:
            return self.rule(j, k)
        return self.dims.get((j, k), 0)


def fz_series() -> BigradedSeries:
    """The polynomial algebra on one generator in (j, k)-degree (1, 0)."""
    return BigradedSeries(rule=lambda j, k: 1 if j >= 0 and k == 0 else 0)


class TrigradedSeries:
    """(i, j, k)-graded dimensions with declared completeness bounds."""

    def __init__(
        self,
        dims: dict[tuple[int, int, int], int],
        i_max: Optional[int],
        k_max: Optional[int],
    ):
        self.dims = {key: v for key, v in dims.items() if v}
        self.i_max = i_max
        self.k_max = k_max

    def value(self, i: int, j: int, k: int) -> int:
        return self.dims.get((i, j, k), 0)


def lambda_series(p: int, i_max: int, k_max: int = 0) -> TrigradedSeries:
    """Trigraded dims of the twisted tensor layer within the given bounds.

    dims(i, j, k) counts elements (b, n, h) with level n + h = i, coupling
    degree j and homological degree k <= k_max.  Every j is kept: level i
    couples at most at coupling_support_bound(p, i), so the support is finite.
    """
    require_prime(p)
    dims: dict[tuple[int, int, int], int] = {}
    for i in range(i_max + 1):
        for e in level_elements(p, i):
            j = bidegree(p, e).e_r
            k = k_degree(p, e)
            if k <= k_max:
                dims[(i, j, k)] = dims.get((i, j, k), 0) + 1
    return TrigradedSeries(dims, i_max=i_max, k_max=k_max)


def apply_operator(
    gamma: TrigradedSeries,
    delta: BigradedSeries,
    k_max: Optional[int] = None,
) -> BigradedSeries:
    """Convolve: out(i, k) = sum over j, k1+k2=k of gamma(i,j,k1)*delta(j,k2).

    The output is complete for i up to gamma's level bound and k up to the
    returned k-bound; its first index plays the j-role in any later
    application.
    """
    out_k = _min_bound(gamma.k_max, delta.k_bound, k_max)
    if k_max is not None and out_k < k_max:
        raise InsufficientBoundsError(
            f"requested k_max={k_max} exceeds completeness bound {out_k}"
        )
    if delta.j_bound is not None:
        needed = max((j for (_, j, _) in gamma.dims), default=-1)
        if needed > delta.j_bound:
            raise InsufficientBoundsError(
                f"operator support needs j={needed} but operand is bounded at {delta.j_bound}"
            )
    out: dict[tuple[int, int], int] = {}
    if delta.dims is not None:
        for (j2, k2), d in delta.dims.items():
            for (i, j, k1), g in gamma.dims.items():
                if j == j2 and (out_k is None or k1 + k2 <= out_k):
                    key = (i, k1 + k2)
                    out[key] = out.get(key, 0) + g * d
    else:
        if out_k is None:
            raise InsufficientBoundsError(
                "rule-backed operand needs an explicit k_max"
            )
        for (i, j, k1), g in gamma.dims.items():
            for k2 in range(0, out_k - k1 + 1):
                d = delta.value(j, k2)
                if d:
                    key = (i, k1 + k2)
                    out[key] = out.get(key, 0) + g * d
    return BigradedSeries(dims=out, j_bound=gamma.i_max, k_bound=out_k)


def lambda_q_series(p: int, q: int, k_max: Optional[int] = None) -> dict[int, int]:
    """Homologically graded dims of Ext after q layer applications.

    Ext^k is the last stage's j = 0 row.  The required coupling ranges are
    derived from the per-level support bound: that row needs only j = 0,
    and each earlier stage needs levels up to p*(the next stage's need)
    + 2p - 2.
    """
    require_prime(p)
    if q < 0:
        raise ValueError(f"q must be >= 0, got {q}")
    top = 2 * (p**q - 1)  # the top Yoneda degree: a larger k_max adds only zeros
    k_max = top if k_max is None else min(k_max, top)
    needs = [0]
    for _ in range(q):
        needs.append(coupling_support_bound(p, needs[-1]))
    needs.reverse()  # needs[m] = level range required of stage m's operator
    delta = fz_series()
    for m in range(1, q + 1):
        gamma = lambda_series(p, i_max=needs[m], k_max=k_max)
        delta = apply_operator(gamma, delta, k_max=k_max)
    return {k: d for k in range(k_max + 1) if (d := delta.value(0, k))}
