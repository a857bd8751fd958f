"""Random tensor pairs: the tower product equals the reference in ``test_products``."""

import pytest

from gl2ext.tower import TensorMonomial, tensor_mult
from test_products import operands, ref_lambda_mult, ref_tensor_mult

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


@st.composite
def tensor_pairs(draw):
    """Operands up to q = 3 from the pools of ``test_products``, in and outside the strips.

    Apart from at most one slot, each right factor is chosen so that the
    reference product of its slot is nonzero, so signs are exercised at
    every q.
    """
    p = draw(st.sampled_from((2, 3, 5)))
    pool = operands(p)
    q = draw(st.integers(1, 3))
    anywhere = draw(st.integers(0, 2 * q))  # the slot drawn from the whole pool, if < q
    left, right = [], []
    for i in range(q):
        x = draw(st.sampled_from(pool))
        live = [y for y in pool if ref_lambda_mult(p, x, y) is not None]
        left.append(x)
        right.append(draw(st.sampled_from(pool if i == anywhere or not live else live)))
    z = st.integers(0, 6)
    return p, TensorMonomial(tuple(left), draw(z)), TensorMonomial(tuple(right), draw(z))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(tensor_pairs())
def test_tensor_mult_matches_reference(case):
    p, a, b = case
    assert tensor_mult(p, a, b) == ref_tensor_mult(p, a, b)
