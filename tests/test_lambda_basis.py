import itertools

from gl2ext.lambda_basis import (
    BiDegree,
    LambdaMonomial,
    bidegree,
    is_valid,
    k_degree,
    lambda_mult,
    lambda_unit,
    level_elements,
    path_j_degree,
)
from gl2ext.paths import PathMonomial, omega_basis
from test_paths import restricted_mult


def L(s, a, b, n, h):
    return LambdaMonomial(PathMonomial(s, a, b), n, h)


def sort_key(e):
    """Reference canonical layer order: lexicographic on (n, h, s, alpha, beta)."""
    return (e.n, e.h, e.b.s, e.b.alpha, e.b.beta)


def test_unit():
    one = lambda_unit()
    assert one == L(1, 0, 0, 0, 0)
    assert bidegree(3, one) == BiDegree(0, 0)
    assert k_degree(3, one) == 0
    assert path_j_degree(3, one) == 0


def test_unit_is_left_identity_on_matching_source():
    for p in (2, 3):
        for x in level_elements(p, 2):
            prod = lambda_mult(p, lambda_unit(), x)
            if x.b.s == 1:
                assert prod == x
            else:
                assert prod is None


def test_lambda_mult_examples():
    assert lambda_mult(3, L(1, 0, 0, 1, 0), L(2, 0, 1, 0, 0)) == L(1, 1, 0, 1, 0)
    assert lambda_mult(3, L(1, 0, 0, 1, 0), L(3, 0, 0, 0, 0)) is None
    # even tensor power: no reflection on the right factor
    assert lambda_mult(3, L(1, 1, 0, 0, 0), L(2, 1, 0, 0, 1)) == L(1, 2, 0, 0, 1)


def test_bidegree_examples_and_variant():
    assert bidegree(3, L(1, 1, 0, 0, 0)) == BiDegree(0, 1)
    # the coupling degree counts the tensor power; the printed rule gave (1, 0)
    assert bidegree(3, L(1, 0, 0, 1, 0)) == BiDegree(1, 1)
    assert bidegree(3, L(1, 0, 0, 0, 1)) == BiDegree(1, 3)


def test_k_degree_examples():
    assert k_degree(3, L(1, 1, 0, 0, 0)) == 1
    assert k_degree(3, L(1, 0, 0, 0, 1)) == 2
    assert k_degree(3, L(1, 1, 0, 2, 0)) == 1


def test_path_j_degree_examples():
    assert path_j_degree(3, L(1, 0, 0, 0, 1)) == 3
    assert path_j_degree(3, L(1, 1, 0, 1, 0)) == 1
    assert path_j_degree(3, lambda_unit()) == 0


def test_associativity_exhaustive_small():
    # exhaustive on a small pool; verify's property suite draws at random
    for p in (2, 3):
        pool = [e for lvl in range(3) for e in level_elements(p, lvl) if e.n <= 1 and e.h <= 1]
        for x, y, z in itertools.product(pool, repeat=3):
            xy = lambda_mult(p, x, y)
            yz = lambda_mult(p, y, z)
            left = lambda_mult(p, xy, z) if xy is not None else None
            right = lambda_mult(p, x, yz) if yz is not None else None
            assert left == right


def test_level_zero_slice_is_omega_with_restricted_mult():
    for p in (2, 3, 5):
        slice0 = list(level_elements(p, 0))
        assert tuple(e.b for e in slice0) == omega_basis(p)
        for x, y in itertools.product(slice0, repeat=2):
            prod = lambda_mult(p, x, y)
            direct = restricted_mult(p, "omega", x.b, y.b)
            assert (prod.b if prod is not None else None) == direct
            if prod is not None:
                assert prod.n == 0 and prod.h == 0


def test_is_valid_and_sort_key():
    assert is_valid(3, L(1, 2, 0, 0, 5))
    assert not is_valid(3, L(1, 2, 0, 1, 0))  # open strip bounds alpha by 1
    assert not is_valid(3, L(1, 0, 0, -1, 0))
    keys = [sort_key(e) for e in level_elements(3, 2)]
    assert keys == sorted(keys)


def test_level_elements_bases():
    # level 1 at p=2: one open-strip element with n=1 plus closed-strip ones with h=1
    elems = list(level_elements(2, 1))
    assert LambdaMonomial(PathMonomial(1, 0, 0), 1, 0) in elems
    assert all(e.n + e.h == 1 for e in elems)
    assert sum(1 for e in elems if e.n == 1) == 1
