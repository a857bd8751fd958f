import hashlib
import os
import random
import signal
from collections import Counter

import pytest

from gl2ext import tower, verify
from gl2ext.lambda_basis import LambdaMonomial, is_valid, lambda_mult, lambda_unit, level_elements
from gl2ext.paths import PathMonomial
from gl2ext.tower import (
    TensorMonomial,
    WalkLimitError,
    embed,
    enumerate_weight_zero,
    ext_dim_table,
    is_weight_zero_basis_element,
    random_weight_zero,
    tensor_mult,
    vertex_tuples,
    weight,
)
from test_lambda_basis import sort_key


def L(s, a, b, n, h):
    return LambdaMonomial(PathMonomial(s, a, b), n, h)


def T(factors, z):
    return TensorMonomial(tuple(factors), z)


def idempotent(vertices):
    return T([L(v, 0, 0, 0, 0) for v in vertices], 0)


def test_tensor_mult_idempotent_square():
    e = idempotent((1, 1))
    result = tensor_mult(2, e, e)
    assert result.sign == 1 and result.monomial == e


def test_tensor_mult_sign_example():
    a = T([L(1, 0, 0, 0, 0), L(1, 0, 0, 0, 1)], 0)
    b = T([L(1, 1, 0, 0, 0), L(1, 0, 0, 0, 0)], 0)
    result = tensor_mult(2, a, b)
    assert result.sign == -1
    assert result.monomial == T([L(1, 1, 0, 0, 0), L(1, 0, 0, 0, 1)], 0)


def test_tensor_mult_sign_ignores_the_diagonal():
    # p = 3: both first factors are one step (k = 1); pairs i > j: only
    # (2, 1), and k(a_2) = 0, so no sign although k(a_1) * k(b_1) is odd
    a = T([L(1, 1, 0, 0, 0), L(1, 0, 0, 0, 0)], 0)
    b = T([L(2, 1, 0, 0, 0), L(1, 0, 0, 0, 0)], 0)
    result = tensor_mult(3, a, b)
    assert result.sign == 1
    assert result.monomial == T([L(1, 2, 0, 0, 0), L(1, 0, 0, 0, 0)], 0)


def test_tensor_mult_sign_later_left_passes_earlier_right():
    # p = 3: a_2 (k = 1) passes b_1 (k = 1): exponent 1
    a = T([L(1, 0, 0, 0, 0), L(1, 1, 0, 0, 0)], 0)
    b = T([L(1, 1, 0, 0, 0), L(2, 0, 0, 0, 0)], 0)
    result = tensor_mult(3, a, b)
    assert result.sign == -1
    assert result.monomial == T([L(1, 1, 0, 0, 0), L(1, 1, 0, 0, 0)], 0)


def test_tensor_mult_sign_counts_only_pairs_below_the_diagonal():
    # p = 3, k(a) = (1, 1), k(b) = (1, 0): the pair (2, 1) gives 1; the
    # diagonal pair (1, 1), also odd, must not add to it
    a = T([L(1, 1, 0, 0, 0), L(1, 1, 0, 0, 0)], 0)
    b = T([L(2, 1, 0, 0, 0), L(2, 0, 0, 0, 0)], 0)
    assert tensor_mult(3, a, b).sign == -1
    # p = 2, where h is odd in k: k(a) = (0, 1, 1) from h, k(b) = (1, 1, 0)
    # from one step each; pairs (2, 1), (3, 1), (3, 2) give 1 + 1 + 1
    a = T([L(1, 0, 0, 0, 0), L(1, 0, 0, 0, 1), L(1, 0, 0, 0, 1)], 0)
    b = T([L(1, 1, 0, 0, 0), L(1, 1, 0, 0, 0), L(1, 0, 0, 0, 0)], 0)
    assert tensor_mult(2, a, b).sign == -1


def test_tensor_mult_zero_propagates():
    a = T([L(1, 1, 0, 0, 0), L(1, 0, 0, 1, 0)], 1)
    b = T([L(3, 0, 0, 0, 0), L(1, 0, 0, 0, 0)], 0)  # first slot source mismatch
    assert tensor_mult(3, a, b) is None


def test_tensor_mult_rejects_mismatched_q():
    with pytest.raises(ValueError):
        tensor_mult(2, idempotent((1,)), idempotent((1, 1)))


def test_weight_examples():
    m = T([L(1, 1, 0, 0, 0), L(1, 0, 0, 1, 0)], 1)
    assert weight(3, m) == (0, 0, 0)
    assert weight(3, T([L(1, 1, 0, 0, 0)], 0)) == (0, -1)
    assert weight(3, idempotent((2, 3)), ) == (0, 0, 0)


def test_a_tuple_with_no_factors_weighs_its_z():
    # the coupling before the first factor is 0; tensor_mult multiplies such
    # tuples, and the one of weight zero is the series' one class at q = 0
    from gl2ext.series import lambda_q_series

    for p in (2, 3):
        assert lambda_q_series(p, 0) == {0: 1}
        assert weight(p, T([], 2)) == (2,)
        assert tensor_mult(p, T([], 0), T([], 0)) == (1, T([], 0))
        assert is_weight_zero_basis_element(p, T([], 0))
        assert not is_weight_zero_basis_element(p, T([], 1))


def test_embed_examples():
    m = T([L(1, 1, 0, 0, 0)], 1)
    assert embed(m) == T([lambda_unit(), L(1, 1, 0, 0, 0)], 1)


def test_enumerate_p2_q1():
    basis = enumerate_weight_zero(2, 1)
    assert len(basis) == 5
    assert [m.z for m in basis] == [0, 0, 1, 1, 2]


WALK_CASES = [(2, q) for q in (1, 2, 3, 4)] + [(3, q) for q in (1, 2, 3)] + [(5, 1), (5, 2), (7, 2)]


def test_enumeration_is_canonically_sorted_without_repeats():
    # the enumerator groups its chains by z instead of sorting; this is the
    # invariant that grouping relies on.  Canonical order: by z, then factor
    # by factor in the layer order of ``sort_key``.
    for p, q in WALK_CASES:
        basis = enumerate_weight_zero(p, q)
        canonical = sorted(set(basis), key=lambda m: (m.z, tuple(map(sort_key, m.factors))))
        assert basis == canonical, (p, q)


def _listed_dim_table(p, q):
    """Reference: list the basis, then count it by vertex tuples and degree."""
    table = Counter()
    for m in enumerate_weight_zero(p, q):
        left, right = vertex_tuples(p, m)
        table[(left, right, m.z)] += 1
    return dict(table)


def test_ext_dim_table_counts_what_the_listing_lists():
    for p, q in WALK_CASES:
        assert ext_dim_table(p, q) == _listed_dim_table(p, q), (p, q)


def test_the_walk_counts_each_factor_against_its_limit(monkeypatch):
    # (3, 2) makes 14 chains at factor 1 and 284 at factor 2, its basis
    monkeypatch.setattr(tower, "MAX_CHAINS", 284)
    assert len(enumerate_weight_zero(3, 2)) == 284
    monkeypatch.setattr(tower, "MAX_CHAINS", 283)
    message = r"^\(p, q\) = \(3, 2\): factor 2 makes 284 chains, past the limit of 283$"
    for walk in (enumerate_weight_zero, ext_dim_table):
        with pytest.raises(WalkLimitError, match=message):
            walk(3, 2)
    monkeypatch.setattr(tower, "MAX_CHAINS", 13)
    with pytest.raises(WalkLimitError, match="factor 1 makes 14 chains"):
        ext_dim_table(3, 2)


def test_the_walk_counts_a_level_before_building_it(monkeypatch):
    def unbuilt(p, level):
        raise AssertionError(f"level {level} built at p = {p}")

    # a strip of 9,691,990 classes is refused without being listed
    monkeypatch.setattr(tower, "level_elements", unbuilt)
    message = r"^\(p, q\) = \(307, 1\): factor 1 makes 9691990 chains, past the limit of 4000000$"
    for walk in (enumerate_weight_zero, ext_dim_table):
        with pytest.raises(WalkLimitError, match=message):
            walk(307, 1)


def test_enumerate_invalid_arguments():
    with pytest.raises(ValueError):
        enumerate_weight_zero(4, 1)
    with pytest.raises(ValueError):
        enumerate_weight_zero(2, 0)


def test_q1_matches_omega_degrees():
    from gl2ext.paths import omega_basis

    for p in (2, 3, 5):
        basis = enumerate_weight_zero(p, 1)
        assert len(basis) == len(omega_basis(p))
        assert Counter(m.z for m in basis) == Counter(
            b.degree for b in omega_basis(p)
        )


def yoneda_degree(p, m):
    """The z exponent of a weight-zero tuple; rejects nonzero weight."""
    w = weight(p, m)
    if any(w):
        raise ValueError(f"yoneda_degree requires weight zero, got weight {w}")
    return m.z


def test_yoneda_degree():
    m = T([L(1, 2, 0, 0, 0), L(1, 1, 0, 2, 0)], 3)
    assert yoneda_degree(3, m) == 3
    assert yoneda_degree(3, idempotent((2, 2))) == 0
    assert yoneda_degree(3, T([L(1, 2, 0, 0, 0), L(1, 2, 0, 0, 2)], 8)) == 8
    with pytest.raises(ValueError):
        yoneda_degree(3, T([L(1, 1, 0, 0, 0)], 0))


def test_vertex_tuples_examples():
    assert vertex_tuples(3, idempotent((2, 3))) == ((2, 3), (2, 3))
    assert vertex_tuples(3, T([L(1, 0, 0, 1, 0)], 0)) == ((1,), (2,))
    assert vertex_tuples(3, T([L(1, 1, 0, 0, 0)], 0)) == ((1,), (2,))


def test_random_weight_zero_is_in_basis():
    rng = random.Random(3)
    for p, q in ((2, 2), (3, 2)):
        index = set(enumerate_weight_zero(p, q))
        for _ in range(200):
            assert random_weight_zero(rng, p, q) in index


# sha256 over the (sampler, p, q, operand) reprs that the property suite draws at
# verify.PROPERTY_SEED with the full suite's arguments, recorded with the
# random.choice sampler, and with the fast suite's, recorded at commit fbf1d25.
PROPERTY_STREAM_DIGEST = "7039488aea54da40bb48775fc1064315d9d8389d1549193f941dad4a6d269a17"
FAST_PROPERTY_STREAM_DIGEST = "c0522436c2810da80917a3fe1902810b37288a96bc9ca056c6106cb942a3e8b7"


def test_the_property_suite_draws_a_pinned_stream(monkeypatch):
    """The random sections of both suites check the operands they always checked."""
    drawn = []

    def recorded(sampler):
        def draw(rng, p, q, *rest):
            m = sampler(rng, p, q, *rest)
            drawn.append((sampler.__name__, p, q, m))
            return m

        return draw

    monkeypatch.setattr(tower, "random_weight_zero", recorded(tower.random_weight_zero))
    monkeypatch.setattr(verify, "_random_tensor", recorded(verify._random_tensor))
    for rounds, ps, q_max, want in (
        (10_000, (2, 3, 5), 3, PROPERTY_STREAM_DIGEST),
        (2_000, (2, 3), 2, FAST_PROPERTY_STREAM_DIGEST),
    ):
        drawn.clear()
        verify.check_property_suite(random_rounds=rounds, ps=ps, q_max=q_max)
        # both samplers were drawn at every p and q
        assert {(p, q) for _, p, q, _ in drawn} == {(p, q) for p in ps for q in range(1, q_max + 1)}
        assert {name for name, *_ in drawn} == {"random_weight_zero", "_random_tensor"}
        assert len(drawn) == rounds + rounds * 3 // 2 + 1_000
        assert hashlib.sha256(b"".join(repr(d).encode() for d in drawn)).hexdigest() == want


def test_a_draw_from_an_empty_range_raises():
    """getrandbits(0) is 0, so a draw that repeated until it fell below 0 would never end."""

    def stop(signum, frame):
        raise TimeoutError("a draw from an empty range took more than 5 s")

    previous = signal.signal(signal.SIGALRM, stop)
    signal.alarm(5)
    try:
        for n in (0, -1):
            with pytest.raises(ValueError, match=f"^below needs n >= 1, got {n}$"):
                tower.below(random.Random(0), n)
        with pytest.raises(ValueError, match="^below needs n >= 1, got 0$"):
            verify._random_tensor(random.Random(0), 2, 1, -1)
        for args in ({"ps": (2,), "q_max": 0}, {"ps": ()}):
            assert verify.check_property_suite(random_rounds=2, **args) == (
                "property_suite", False, "error: below needs n >= 1, got 0"
            )
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _layer_pool(p):
    """The operands of the property suite's layer closure: levels 0..6 with n, h <= 3."""
    return [e for lvl in range(7) for e in level_elements(p, lvl) if e.n <= 3 and e.h <= 3]


def test_the_property_suite_multiplies_every_pair(monkeypatch):
    """No closure sweep skips a pair, for example by testing endpoints first."""
    layer, towers = Counter(), Counter()

    def counted(product, calls, key):
        def call(p, x, y):
            calls[key(p, x)] += 1
            return product(p, x, y)

        return call

    monkeypatch.setattr(verify, "lambda_mult", counted(lambda_mult, layer, lambda p, x: p))
    monkeypatch.setattr(tower, "tensor_mult", counted(tensor_mult, towers, lambda p, a: (p, len(a.factors))))
    # with ps = (5,), every product at p = 2 or 3 is one of the exhaustive closure's
    assert verify.check_property_suite(random_rounds=2, ps=(5,), q_max=1).ok
    assert layer == {5: len(_layer_pool(5)) ** 2}  # the layer closure alone calls verify.lambda_mult
    assert {key: n for key, n in towers.items() if key[0] != 5} == {
        (p, q): len(enumerate_weight_zero(p, q)) ** 2 for p in (2, 3) for q in (1, 2)
    }


def test_the_product_memo_cannot_hide_a_failure(monkeypatch):
    """A product that is_valid rejects fails the layer closure at the first pair that makes it."""
    args = {"random_rounds": 2, "ps": (2,), "q_max": 1}
    # a product cache kept from this run would hide the rejection below
    assert verify.check_property_suite(**args).ok
    pool = _layer_pool(2)
    products = [(x, y, lambda_mult(2, x, y)) for x in pool for y in pool]
    counts = Counter(r for _, _, r in products if r is not None)
    target = max(counts, key=counts.get)
    assert counts[target] > 1
    x, y = next((x, y) for x, y, r in products if r == target)
    monkeypatch.setattr(verify, "is_valid", lambda p, e: e != target and is_valid(p, e))
    assert verify.check_property_suite(**args) == (
        "property_suite", False, f"closure fails: {x} * {y} -> {target}"
    )


def test_the_sweeps_problem_comes_first(monkeypatch):
    """When the layer closure and the draws both fail, the detail is the layer closure's."""
    args = {"random_rounds": 2, "ps": (2,), "q_max": 1}
    monkeypatch.setattr(tower, "is_weight_zero_basis_element", lambda p, m: False)
    detail = verify.check_property_suite(**args).detail
    assert detail.startswith(("random closure fails", "embed leaves the basis"))  # the draws fail alone
    monkeypatch.setattr(verify, "is_valid", lambda p, e: False)
    pool = _layer_pool(2)
    x, y, r = next((x, y, r) for x in pool for y in pool if (r := lambda_mult(2, x, y)) is not None)
    assert verify.check_property_suite(**args) == ("property_suite", False, f"closure fails: {x} * {y} -> {r}")


@pytest.mark.parametrize("suite", ["fast", "full"])
def test_the_suites_run_in_this_process(monkeypatch, suite):
    def no_fork():
        raise AssertionError("verify forked a process")

    monkeypatch.setattr(os, "fork", no_fork)
    assert [check for check in verify.run_suite(suite) if not check.ok] == []


def test_tensor_mult_looks_up_lambda_mult_once_per_slot(monkeypatch):
    """Up to and including the first dead slot, so traced counts see every product."""
    calls = []

    def counted(p, x, y):
        calls.append((x, y))
        return lambda_mult(p, x, y)

    monkeypatch.setattr(tower, "lambda_mult", counted)
    outcomes = set()
    for p, q in ((2, 2), (3, 2), (2, 3)):
        basis = enumerate_weight_zero(p, q)[:40]
        for a in basis:
            for b in basis:
                calls.clear()
                r = tensor_mult(p, a, b)
                slots = list(zip(a.factors, b.factors))
                dead = [i for i, (x, y) in enumerate(slots) if lambda_mult(p, x, y) is None]
                assert (r is None) == bool(dead)
                assert calls == slots[: dead[0] + 1 if dead else q]
                outcomes.add(dead[0] if dead else None)
    assert outcomes == {None, 0, 1, 2}  # products that live, and each slot dying first


def test_is_weight_zero_basis_element():
    assert is_weight_zero_basis_element(2, idempotent((1, 2)))
    assert not is_weight_zero_basis_element(2, T([L(1, 1, 0, 0, 0)], 0))


def test_ext_dim_table_p2_q1():
    table = ext_dim_table(2, 1)
    assert sum(table.values()) == 5
    assert sum(d for (l, r, n), d in table.items() if n == 0) == 2
    assert all(l == r for (l, r, n), d in table.items() if n == 0)

