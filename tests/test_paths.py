import itertools
from collections import Counter

import pytest

from gl2ext.paths import (
    PathMonomial,
    in_omega,
    in_theta,
    is_prime,
    omega_basis,
    pi_mult,
    require_prime,
    sigma,
    theta_basis,
)
from gl2ext.verify import _four_term_defects


def M(s, a, b):
    return PathMonomial(s, a, b)


def printed_in_omega(p, m):
    """The paper's printed closed-strip rule: alpha <= p - 1 in place of target <= p."""
    return m.alpha >= 0 and 0 <= m.beta <= m.s - 1 and 1 <= m.s <= p and m.alpha <= p - 1


def restricted_mult(p, basis, a, b):
    """Reference product inside the named strip; None when the product leaves it.

    ``lambda_basis.lambda_mult`` at level 0 is the library's closed-strip product.
    """
    member = {"omega": in_omega, "theta": in_theta}[basis]
    if not member(p, *a) or not member(p, *b):
        raise ValueError(f"restricted_mult: {a} or {b} is not in the {basis} basis")
    prod = pi_mult(a, b)
    return prod if prod is not None and member(p, *prod) else None


def test_pi_mult_examples():
    assert pi_mult(M(1, 1, 0), M(2, 1, 0)) == M(1, 2, 0)
    assert pi_mult(M(1, 1, 0), M(3, 1, 0)) is None
    assert pi_mult(M(2, 0, 1), M(1, 1, 0)) == M(2, 1, 1)


def test_target_and_degree():
    assert M(2, 3, 1).target == 4
    assert M(2, 3, 1).degree == 4


def test_in_omega_examples():
    assert in_omega(3, 1, 2, 0)
    assert not in_omega(3, 3, 1, 0)
    assert in_omega(2, 2, 1, 1)


def test_in_omega_printed_variant():
    # the printed rule admits classes whose target leaves the strip
    assert not in_omega(2, *M(2, 1, 0))
    assert printed_in_omega(2, M(2, 1, 0))


def test_in_theta_examples():
    assert in_theta(3, 1, 1, 0)
    assert not in_theta(3, 1, 2, 0)
    assert not in_theta(3, 2, 1, 0)


def test_sigma_examples():
    assert sigma(3, M(1, 1, 0)) == M(2, 0, 1)
    assert sigma(3, sigma(3, M(2, 0, 1))) == M(2, 0, 1)
    assert sigma(3, M(3, 0, 0)) == M(0, 0, 0)


def test_restricted_mult_examples():
    assert restricted_mult(3, "omega", M(1, 1, 0), M(2, 1, 0)) == M(1, 2, 0)
    assert restricted_mult(2, "omega", M(2, 0, 1), M(1, 1, 0)) == M(2, 1, 1)
    # (1,2,1) dips below vertex 1, so the product dies at p = 2
    assert restricted_mult(2, "omega", M(1, 1, 0), M(2, 1, 1)) is None
    assert restricted_mult(3, "theta", M(1, 1, 0), M(2, 0, 1)) is None


def test_restricted_mult_rejects_nonmembers():
    with pytest.raises(ValueError):
        restricted_mult(2, "omega", M(2, 1, 0), M(3, 0, 0))


def test_basis_counts_match_formulas():
    # the closed forms that size the walk's levels before they are built
    for p in (2, 3, 5, 7, 11, 13):
        assert len(omega_basis(p)) == p * (p + 1) * (2 * p + 1) // 6
        assert len(theta_basis(p)) == (p**3 - p) // 6
    assert len(theta_basis(3)) == 4
    assert len(omega_basis(2)) == 5


def test_bases_are_sorted_and_consistent_with_membership():
    for p in (2, 3, 5):
        om = omega_basis(p)
        th = theta_basis(p)
        assert list(om) == sorted(om)
        assert list(th) == sorted(th)
        assert all(in_omega(p, *m) for m in om)
        assert all(in_theta(p, *m) for m in th)
        # the open strip sits inside the closed one
        assert set(th) <= set(om)


def test_associativity_and_degree_additivity():
    pool = [M(s, a, b) for s in range(-1, 4) for a in range(3) for b in range(3)]
    for x, y in itertools.product(pool, repeat=2):
        prod = pi_mult(x, y)
        if prod is not None:
            assert prod.degree == x.degree + y.degree
    for x, y, z in itertools.product(pool[:20], pool[:20], pool[:20]):
        xy = pi_mult(x, y)
        yz = pi_mult(y, z)
        left = pi_mult(xy, z) if xy is not None else None
        right = pi_mult(x, yz) if yz is not None else None
        assert left == right


def printed_defects(p):
    """verify's four-term defects with the closed-strip columns counted by the printed rule."""
    box = [M(s, a, b) for s in range(1, p + 1) for a in range(p) for b in range(p)]
    om = Counter(m.s for m in box if printed_in_omega(p, m))
    return _four_term_defects(p, om, Counter(m.s for m in theta_basis(p)))


def test_exact_sequence_identity_fails_for_printed_variant():
    # the corrected closed strip at p = 3, counted by source
    assert Counter(m.s for m in omega_basis(3)) == {1: 3, 2: 5, 3: 6}
    # the printed membership breaks the four-term identity somewhere
    assert [column for p in (2, 3) for column in printed_defects(p)]


def test_prime_helpers():
    assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
    with pytest.raises(ValueError):
        require_prime(4)
    assert require_prime(7) == 7
