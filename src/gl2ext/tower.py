"""Signed monomial tuples of the tensor tower and the weight-zero basis.

A tower element [beta_1, ..., beta_q, z] is an ordered tuple of q layer
monomials together with a power z of the outer degree-zero generator.
Products are coordinate-wise with the usual super sign attached to factors
crossing each other, graded by the homological degree of the layers (the
outer generator is homologically flat and never contributes a sign).

The weight of a tuple chains the coupling degrees: consecutive factors
must couple and z must absorb the last coupling for the weight to vanish.
Weight-zero tuples are closed under the signed product and are enumerated
here in a canonical order; their z exponent is the Yoneda degree.
"""

from __future__ import annotations

import random
from typing import Iterator, NamedTuple, Optional

from .paths import omega_basis, require_prime, theta_basis
from .lambda_basis import (
    LambdaMonomial,
    bidegree,
    coupling_support_bound,
    is_valid,
    k_degree,
    lambda_mult,
    lambda_unit,
    level_elements,
)

# The most chains the walk may hold or yield at one factor.  The bases at
# (2, 6) and (3, 4) hold under 0.9 M; those at (2, 7) and (3, 5) are past it.
MAX_CHAINS = 4_000_000


class WalkLimitError(RuntimeError):
    """A factor of the walk would make more than ``MAX_CHAINS`` chains."""


class TensorMonomial(NamedTuple):
    """Ordered layer factors plus the exponent z of the outer generator."""

    factors: tuple[LambdaMonomial, ...]
    z: int


class SignedTensorMonomial(NamedTuple):
    sign: int
    monomial: TensorMonomial


def tensor_mult(p: int, a: TensorMonomial, b: TensorMonomial) -> Optional[SignedTensorMonomial]:
    """Coordinate-wise product with the super sign; None when any slot dies.

    The sign exponent sums k_degree(a_i) * k_degree(b_j) over pairs i > j,
    i.e. over left factors passing right factors that sit in earlier slots.
    """
    a_factors, a_z = a
    b_factors, b_z = b
    q = len(a_factors)
    if q != len(b_factors):
        raise ValueError(f"factor counts differ: {q} vs {len(b_factors)}")
    # Most products die in the first slot: the loop makes no iterator, and
    # the sign waits until every slot lives.
    factors = []
    i = 0
    while i < q:
        prod = lambda_mult(p, a_factors[i], b_factors[i])
        if prod is None:
            return None
        factors.append(prod)
        i += 1
    exponent = k_before = 0  # k_before: k_degree(b_j) summed over j < i
    for x, y in zip(a_factors, b_factors):
        exponent += k_degree(p, x) * k_before
        k_before += k_degree(p, y)
    sign = -1 if exponent % 2 else 1
    m = tuple.__new__(TensorMonomial, (tuple(factors), a_z + b_z))  # as in lambda_mult
    return tuple.__new__(SignedTensorMonomial, (sign, m))


def weight(p: int, m: TensorMonomial) -> tuple[int, ...]:
    """Weight vector (e_l(b1), e_l(b2)-e_r(b1), ..., z-e_r(bq)) of length q+1."""
    entries = []
    e_r = 0  # the coupling before the first factor: no factors weigh (z,)
    for f in m.factors:
        d = bidegree(p, f)
        entries.append(d.e_l - e_r)
        e_r = d.e_r
    entries.append(m.z - e_r)
    return tuple(entries)


def embed(m: TensorMonomial) -> TensorMonomial:
    """Prepend the unit idempotent; multiplicative, sign- and weight-preserving."""
    factors, z = m
    return tuple.__new__(TensorMonomial, ((lambda_unit(),) + factors, z))  # as in lambda_mult


def _chains(p: int, q: int) -> Iterator[tuple[tuple[LambdaMonomial, ...], int]]:
    """Every weight-zero chain (factors, z) at q factors, factor-wise canonical.

    Chains are built left to right: the first factor must have level 0,
    each next level equals the previous coupling degree, and z closes the
    chain.  Levels obey d(1) = 0, d(i+1) <= p*d(i) + 2p - 2, so the walk is
    finite, and ``MAX_CHAINS`` bounds its size.  Only the chains one factor
    short are held; the last factor is added as the chains are yielded.
    """
    require_prime(p)
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    levels: dict[int, list[tuple[LambdaMonomial, int]]] = {}
    # Level ``need`` holds |omega(p)| + need * |theta(p)| elements, so a
    # factor is counted before any level it reaches is built.
    omega_size = p * (p + 1) * (2 * p + 1) // 6
    theta_size = (p**3 - p) // 6

    def level(need: int) -> list[tuple[LambdaMonomial, int]]:
        """The elements of level ``need`` with their coupling degrees, built once."""
        items = levels.get(need)
        if items is None:
            items = [(e, bidegree(p, e).e_r) for e in level_elements(p, need)]
            assert len(items) == omega_size + need * theta_size
            assert all(r <= coupling_support_bound(p, need) for _, r in items)
            levels[need] = items
        return items

    def extend(chains, factor: int):
        """The chains with one more factor, counted before any is built."""
        count = sum(omega_size + need * theta_size for _, need in chains)
        if count > MAX_CHAINS:
            raise WalkLimitError(
                f"(p, q) = ({p}, {q}): factor {factor} makes {count} chains, "
                f"past the limit of {MAX_CHAINS}"
            )
        return ((f + (e,), r) for f, need in chains for e, r in level(need))

    # Extending canonically ordered chains in canonical level order keeps
    # them factor-wise canonical.
    chains: list[tuple[tuple[LambdaMonomial, ...], int]] = [((), 0)]
    for factor in range(1, q):
        chains = list(extend(chains, factor))
    return extend(chains, q)


def enumerate_weight_zero(p: int, q: int) -> list[TensorMonomial]:
    """The complete weight-zero basis at q factors, ordered by z, then factor by factor."""
    by_z: dict[int, list[TensorMonomial]] = {}
    # the chains come factor-wise canonical, so grouping by z gives canonical order
    for f, z in _chains(p, q):
        by_z.setdefault(z, []).append(TensorMonomial(f, z))
    return [m for z in sorted(by_z) for m in by_z[z]]


def below(rng: random.Random, n: int) -> int:
    """The draw from range(n) that ``rng.choice(range(n))`` makes, in one frame.

    Like ``Random._randbelow``, it repeats ``getrandbits(n.bit_length())``
    until the draw is below n, so ``pool[below(rng, len(pool))]`` draws what
    ``rng.choice(pool)`` draws and the seeded samples stay the same.
    """
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


def random_weight_zero(rng: random.Random, p: int, q: int) -> TensorMonomial:
    """Sample one weight-zero tuple by random chain choices (not uniform)."""
    omega = omega_basis(p)
    theta = theta_basis(p)
    factors = []
    need = 0
    for _ in range(q):
        n = below(rng, need + 1)
        pool = omega if n == 0 else theta
        e = tuple.__new__(LambdaMonomial, (pool[below(rng, len(pool))], n, need - n))
        factors.append(e)
        need = bidegree(p, e).e_r
    return tuple.__new__(TensorMonomial, (tuple(factors), need))


def is_weight_zero_basis_element(p: int, m: TensorMonomial) -> bool:
    return all(is_valid(p, f) for f in m.factors) and not any(weight(p, m))


def vertex_tuples(p: int, m: TensorMonomial) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Left and right idempotent vertex tuples of a tower element.

    The right vertex of a factor is its path target, reflected through p
    when the tensor power is odd (the right action is twisted).
    """
    left = tuple(f.b.s for f in m.factors)
    right = tuple(
        f.b.target if f.n % 2 == 0 else p - f.b.target for f in m.factors
    )
    return left, right


def ext_dim_table(p: int, q: int) -> dict[tuple[tuple[int, ...], tuple[int, ...], int], int]:
    """Count weight-zero elements by (left tuple, right tuple, Yoneda degree).

    The chains are counted as they are walked; the basis is never listed.
    """
    table: dict[tuple[tuple[int, ...], tuple[int, ...], int], int] = {}
    for f, z in _chains(p, q):
        left, right = vertex_tuples(p, TensorMonomial(f, z))
        key = (left, right, z)
        table[key] = table.get(key, 0) + 1
    return table
