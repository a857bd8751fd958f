"""Basis monomials (b, n, h) of the twisted tensor layer.

An element couples a path class b with a tensor power n of the reflected
open-strip bimodule and a power h of the central degree-raising generator.
The path part lives in the closed strip when n = 0 and in the open strip
when n > 0.  Products reflect the right factor whenever the left tensor
power is odd; the layer product itself is sign-free (signs belong to the
tensor tower on top of it).
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Optional

from .paths import PathMonomial, in_omega, in_theta, omega_basis, theta_basis


class LambdaMonomial(NamedTuple):
    """Path class b, tensor power n, central generator power h."""

    b: PathMonomial
    n: int
    h: int


class BiDegree(NamedTuple):
    """Left (level) degree and right (coupling) degree of a layer element."""

    e_l: int
    e_r: int


_UNIT = LambdaMonomial(PathMonomial(1, 0, 0), 0, 0)


def lambda_unit() -> LambdaMonomial:
    """The distinguished idempotent at vertex 1, of bidegree (0, 0)."""
    return _UNIT


def is_valid(p: int, e: LambdaMonomial) -> bool:
    b, n, h = e
    if n < 0 or h < 0:
        return False
    if n == 0:
        return in_omega(p, *b)
    return in_theta(p, *b)


def lambda_mult(p: int, x: LambdaMonomial, y: LambdaMonomial) -> Optional[LambdaMonomial]:
    """Layer product; the right path is reflected when x.n is odd.

    Returns None (zero) when the path parts do not compose or the
    composite leaves the basis prescribed by the total tensor power.
    """
    (s, alpha, beta), x_n, x_h = x
    (y_s, y_alpha, y_beta), y_n, y_h = y
    if x_n % 2:  # reflect y.b as sigma does: source p - s, steps exchanged
        y_s, y_alpha, y_beta = p - y_s, y_beta, y_alpha
    if s + alpha - beta != y_s:  # the endpoints decide most zeros
        return None
    alpha += y_alpha
    beta += y_beta
    n = x_n + y_n
    if n == 0:
        if not in_omega(p, s, alpha, beta):
            return None
    elif not in_theta(p, s, alpha, beta):
        return None
    # tuple.__new__ skips a Python frame per object in the generated constructors
    b = tuple.__new__(PathMonomial, (s, alpha, beta))
    return tuple.__new__(LambdaMonomial, (b, n, x_h + y_h))


def bidegree(p: int, e: LambdaMonomial) -> BiDegree:
    """Bidegree (e_l, e_r) = (n + h, p*h + |b| + n); the coupling degree counts n."""
    (_, alpha, beta), n, h = e
    return BiDegree(n + h, p * h + alpha + beta + n)


def coupling_support_bound(p: int, i: int) -> int:
    """Finite per-level bound p*i + 2p - 2 on the coupling degree j."""
    return p * i + 2 * p - 2


def k_degree(p: int, e: LambdaMonomial) -> int:
    """Homological degree |b| + (p-1)*h; the tensor power does not enter."""
    (_, alpha, beta), _, h = e
    return alpha + beta + (p - 1) * h


def path_j_degree(p: int, e: LambdaMonomial) -> int:
    """Plain path-length grading p*h + |b|, kept distinct from the coupling degree."""
    return p * e.h + e.b.degree


def level_elements(p: int, level: int) -> Iterator[LambdaMonomial]:
    """All layer elements with e_l = n + h equal to ``level``, ordered by (n, h, s, alpha, beta)."""
    if level < 0:
        return iter(())
    omega = omega_basis(p)
    theta = theta_basis(p)
    return (
        LambdaMonomial(b, n, level - n)
        for n in range(level + 1)
        for b in (omega if n == 0 else theta)
    )
