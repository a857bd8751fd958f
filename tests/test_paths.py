import itertools

import pytest

from gl2ext.paths import (
    PathMonomial,
    count_by_source,
    exact_sequence_defect,
    in_omega,
    in_theta,
    is_prime,
    omega_basis,
    pi_mult,
    require_prime,
    restricted_mult,
    sigma,
    theta_basis,
)


def M(s, a, b):
    return PathMonomial(s, a, b)


def printed_in_omega(p, m):
    """The paper's printed closed-strip rule: alpha <= p - 1 in place of target <= p."""
    return m.alpha >= 0 and 0 <= m.beta <= m.s - 1 and 1 <= m.s <= p and m.alpha <= p - 1


def test_pi_mult_examples():
    assert pi_mult(M(1, 1, 0), M(2, 1, 0)) == M(1, 2, 0)
    assert pi_mult(M(1, 1, 0), M(3, 1, 0)) is None
    assert pi_mult(M(2, 0, 1), M(1, 1, 0)) == M(2, 1, 1)


def test_target_and_degree():
    assert M(2, 3, 1).target == 4
    assert M(2, 3, 1).degree == 4


def test_in_omega_examples():
    assert in_omega(3, M(1, 2, 0))
    assert not in_omega(3, M(3, 1, 0))
    assert in_omega(2, M(2, 1, 1))


def test_in_omega_printed_variant():
    # the printed rule admits classes whose target leaves the strip
    assert not in_omega(2, M(2, 1, 0))
    assert printed_in_omega(2, M(2, 1, 0))


def test_in_theta_examples():
    assert in_theta(3, M(1, 1, 0))
    assert not in_theta(3, M(1, 2, 0))
    assert not in_theta(3, M(2, 1, 0))


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
    with pytest.raises(ValueError):
        restricted_mult(3, "nope", M(1, 0, 0), M(1, 0, 0))


def test_basis_counts_match_formulas():
    for p in (2, 3, 5, 7):
        assert len(theta_basis(p)) == sum(s * (p - s) for s in range(1, p))
        assert len(omega_basis(p)) == sum(
            p - s + beta + 1 for s in range(1, p + 1) for beta in range(s)
        )
    assert len(theta_basis(3)) == 4
    assert len(omega_basis(2)) == 5


def test_bases_are_sorted_and_consistent_with_membership():
    for p in (2, 3, 5):
        om = omega_basis(p)
        th = theta_basis(p)
        assert om == sorted(om)
        assert th == sorted(th)
        assert all(in_omega(p, m) for m in om)
        assert all(in_theta(p, m) for m in th)
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


def test_exact_sequence_identity():
    # the identity itself is verify's exact_sequence_identity check
    with pytest.raises(ValueError):
        exact_sequence_defect(3, 3)


def printed_defect(p, l):
    """``exact_sequence_defect`` with the closed-strip columns counted by the printed rule."""
    box = [M(s, a, b) for s in range(1, p + 1) for a in range(p) for b in range(p)]
    om = count_by_source([m for m in box if printed_in_omega(p, m)])
    th = count_by_source(theta_basis(p))
    return om.get(l, 0) - om.get(p, 0) + om.get(p - l, 0) - th.get(p - l, 0)


def test_exact_sequence_identity_fails_for_printed_variant():
    # the printed membership breaks the four-term identity somewhere
    broken = [(p, l) for p in (2, 3) for l in range(1, p) if printed_defect(p, l) != 0]
    assert broken


def test_count_by_source():
    counts = count_by_source(omega_basis(3))
    assert counts == {1: 3, 2: 5, 3: 6}


def test_prime_helpers():
    assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
    with pytest.raises(ValueError):
        require_prime(4)
    assert require_prime(7) == 7
