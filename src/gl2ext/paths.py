"""Monomial combinatorics of commuting-path classes on a doubled A-type line.

A path class (s, alpha, beta) records a source vertex s together with alpha
upward and beta downward unit steps; all interleavings of the steps are
identified, so the class is determined by the triple alone.  Two finite
truncations matter downstream: the closed strip on vertices 1..p (omega,
walled above at p, killed at and below 0) and the open strip on vertices
1..p-1 (theta, killed at and below 0 and at and above p).

The zero product is represented by ``None`` throughout; it is a value, not
an error.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple, Optional

def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def require_prime(p: int) -> int:
    if not is_prime(p):
        raise ValueError(f"p must be a prime >= 2, got {p}")
    return p


class PathMonomial(NamedTuple):
    """A commuting-path class with source s, alpha up-steps, beta down-steps."""

    s: int
    alpha: int
    beta: int

    @property
    def target(self) -> int:
        return self.s + self.alpha - self.beta

    @property
    def degree(self) -> int:
        return self.alpha + self.beta


def pi_mult(a: PathMonomial, b: PathMonomial) -> Optional[PathMonomial]:
    """Concatenate path classes a then b; None when the endpoints mismatch.

    ``verify``'s independent statement of path composition, which
    ``lambda_mult`` makes inline: only ``verify``'s reflection sweep calls it.
    """
    s, alpha, beta = a
    b_s, b_alpha, b_beta = b
    if s + alpha - beta != b_s:
        return None
    return PathMonomial(s, alpha + b_alpha, beta + b_beta)


def in_omega(p: int, s: int, alpha: int, beta: int) -> bool:
    """Membership in the closed strip: source and target in 1..p, beta <= s - 1.

    The paper's printed rule bounds alpha by p - 1 instead; ``verify`` refutes it.
    """
    if alpha < 0 or beta < 0:
        return False
    return 1 <= s <= p and beta <= s - 1 and s + alpha - beta <= p


def in_theta(p: int, s: int, alpha: int, beta: int) -> bool:
    """Membership in the open-strip basis on vertices 1..p-1."""
    if alpha < 0 or beta < 0:
        return False
    return 1 <= s <= p - 1 and alpha <= p - s - 1 and beta <= s - 1


def sigma(p: int, m: PathMonomial) -> PathMonomial:
    """Reflection involution: source s -> p-s, up and down steps exchanged.

    Defined on every path class; callers filter membership afterwards.
    ``verify``'s independent statement of the reflection, which
    ``lambda_mult`` makes inline: only ``verify``'s reflection sweep calls it.
    """
    return PathMonomial(p - m.s, m.beta, m.alpha)


# Both strips lie in the box s in 1..p, alpha and beta below p, so each
# basis filters it, in lexicographic order, once per p.
def _box(p: int):
    return (PathMonomial(s, a, b) for s in range(1, p + 1) for a in range(p) for b in range(p))


@lru_cache(maxsize=64)
def omega_basis(p: int) -> tuple[PathMonomial, ...]:
    """All closed-strip classes, in lexicographic (s, alpha, beta) order."""
    return tuple(m for m in _box(p) if in_omega(p, *m))


@lru_cache(maxsize=64)
def theta_basis(p: int) -> tuple[PathMonomial, ...]:
    """All open-strip classes, in lexicographic (s, alpha, beta) order."""
    return tuple(m for m in _box(p) if in_theta(p, *m))
