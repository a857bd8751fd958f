"""The monomial products against a plain reference written from their definitions.

The reference goes through the NamedTuple properties, builds every
intermediate path and sums the sign over all slot pairs; the kernels in
``src/`` must agree with it on value, sign and zero.
"""

import itertools

from gl2ext.lambda_basis import BiDegree, LambdaMonomial, bidegree, lambda_mult, level_elements
from gl2ext.paths import PathMonomial, pi_mult, sigma
from gl2ext.tower import SignedTensorMonomial, TensorMonomial, tensor_mult


def ref_pi_mult(a, b):
    if a.target != b.s:
        return None
    return PathMonomial(a.s, a.alpha + b.alpha, a.beta + b.beta)


def ref_in_strip(p, m, n):
    """Closed strip on 1..p when n == 0, open strip on 1..p-1 otherwise."""
    if m.alpha < 0 or m.beta < 0 or not 1 <= m.s or m.beta > m.s - 1:
        return False
    if n != 0:
        return m.s <= p - 1 and m.alpha <= p - m.s - 1
    if m.s > p:
        return False
    return m.target <= p


def ref_lambda_mult(p, x, y):
    right = y.b if x.n % 2 == 0 else sigma(p, y.b)
    path = ref_pi_mult(x.b, right)
    if path is None or not ref_in_strip(p, path, x.n + y.n):
        return None
    return LambdaMonomial(path, x.n + y.n, x.h + y.h)


def ref_tensor_mult(p, a, b):
    """Slot-wise products; the sign sums k(a_i) * k(b_j) over all pairs i > j."""
    factors = []
    for x, y in zip(a.factors, b.factors):
        prod = ref_lambda_mult(p, x, y)
        if prod is None:
            return None
        factors.append(prod)
    k = lambda e: e.b.degree + (p - 1) * e.h  # noqa: E731
    q = len(factors)
    exponent = sum(k(a.factors[i]) * k(b.factors[j]) for i in range(q) for j in range(i))
    return SignedTensorMonomial(-1 if exponent % 2 else 1, TensorMonomial(tuple(factors), a.z + b.z))


def operands(p):
    """The n, h <= 3 pool of the property suite plus operands outside both strips."""
    pool = [e for lvl in range(7) for e in level_elements(p, lvl) if e.n <= 3 and e.h <= 3]
    edges = (-1, 0, p + 1)
    outside = [
        LambdaMonomial(PathMonomial(s, alpha, beta), n, 1)
        for s, alpha, beta in itertools.product(edges, repeat=3)
        for n in (-1, 0, 1)
    ]
    return pool + outside


def test_pi_mult_matches_reference():
    paths = [PathMonomial(*t) for t in itertools.product(range(-1, 5), repeat=3)]
    for a, b in itertools.product(paths, repeat=2):
        assert pi_mult(a, b) == ref_pi_mult(a, b)


def test_lambda_mult_matches_reference_on_every_pool_pair():
    for p in (2, 3, 5):
        pool = operands(p)
        nonzero = 0
        for x, y in itertools.product(pool, repeat=2):
            got = lambda_mult(p, x, y)
            assert got == ref_lambda_mult(p, x, y), (p, x, y)
            nonzero += got is not None
        assert nonzero  # the comparison is not vacuous


def test_products_build_their_own_classes():
    """The kernels' results are the classes' values: same type, equality and hash."""
    signs = set()
    for p in (2, 3, 5):
        pool = operands(p)
        live = []
        for x, y in itertools.product(pool, repeat=2):
            got = lambda_mult(p, x, y)
            if got is None:
                continue
            assert type(got) is LambdaMonomial and type(got.b) is PathMonomial
            built = LambdaMonomial(PathMonomial(*got.b), got.n, got.h)
            assert got == built and hash(got) == hash(built)
            live.append((x, y))
        for e in pool:
            got = bidegree(p, e)
            assert type(got) is BiDegree
            built = BiDegree(got.e_l, got.e_r)
            assert got == built and hash(got) == hash(built)
        # consecutive live pairs as the two slots, so every product is nonzero
        for (x1, y1), (x2, y2) in zip(live, live[1:]):
            got = tensor_mult(p, TensorMonomial((x1, x2), 1), TensorMonomial((y1, y2), 2))
            assert type(got) is SignedTensorMonomial and type(got.monomial) is TensorMonomial
            built = SignedTensorMonomial(got.sign, TensorMonomial(tuple(got.monomial.factors), got.monomial.z))
            assert got == built and hash(got) == hash(built)
            signs.add(got.sign)
    assert signs == {-1, 1}
