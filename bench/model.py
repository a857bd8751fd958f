"""The benchmark's own computations of what each CLI answer must be.

Nothing here imports gl2ext: the strip classes come from their closed-form
membership rules, the weight-zero tuples from the chain rule of the tower,
the graded totals from a fold over levels, and the quivers from their
arrow lists.  Every CLI output is checked against these, or against a
property the method must have, never against a stored copy of an output.
"""

from __future__ import annotations

from collections import Counter
from functools import cache

# The paper's reference column at left vertices (1,1), p = 3, q = 2:
# ((s, alpha, beta, n, h) per factor, z), and its Yoneda degree multiset.
PAPER_COLUMN = (
    (((1, 0, 0, 0, 0), (1, 0, 0, 0, 0)), 0),
    (((1, 0, 0, 0, 0), (1, 1, 0, 0, 0)), 1),
    (((1, 1, 0, 0, 0), (1, 0, 0, 1, 0)), 1),
    (((1, 0, 0, 0, 0), (1, 2, 0, 0, 0)), 2),
    (((1, 1, 0, 0, 0), (1, 1, 0, 1, 0)), 2),
    (((1, 2, 0, 0, 0), (1, 0, 0, 2, 0)), 2),
    (((1, 1, 0, 0, 0), (1, 0, 0, 0, 1)), 3),
    (((1, 2, 0, 0, 0), (1, 1, 0, 2, 0)), 3),
    (((1, 1, 0, 0, 0), (1, 1, 0, 0, 1)), 4),
    (((1, 2, 0, 0, 0), (1, 0, 0, 1, 1)), 4),
    (((1, 1, 0, 0, 0), (1, 2, 0, 0, 1)), 5),
    (((1, 2, 0, 0, 0), (1, 1, 0, 1, 1)), 5),
    (((1, 2, 0, 0, 0), (1, 0, 0, 0, 2)), 6),
    (((1, 2, 0, 0, 0), (1, 1, 0, 0, 2)), 7),
    (((1, 2, 0, 0, 0), (1, 2, 0, 0, 2)), 8),
)
PAPER_MULTISET = (0, 1, 1, 2, 2, 2, 3, 3, 4, 4, 5, 5, 6, 7, 8)


# -- strips and the weight-zero tower ---------------------------------------


def closed_strip(p: int) -> list[tuple[int, int, int]]:
    """Classes (s, alpha, beta) with 1 <= s <= p, beta < s and target <= p."""
    return [
        (s, a, b) for s in range(1, p + 1) for b in range(s) for a in range(p - s + b + 1)
    ]


def open_strip(p: int) -> list[tuple[int, int, int]]:
    """Classes with 1 <= s <= p-1, alpha <= p-s-1 and beta < s."""
    return [(s, a, b) for s in range(1, p) for a in range(p - s) for b in range(s)]


@cache
def weight_zero(p: int, q: int) -> list[tuple[tuple, int]]:
    """All weight-zero tuples ((s, alpha, beta, n, h) per factor, z) in CLI order.

    A factor at required level e_l = n + h has coupling degree
    e_r = p*h + alpha + beta + n, which is the next factor's level; the first
    level is 0 and z is the last coupling degree.  The path part lies in the
    closed strip when n = 0 and in the open strip otherwise.
    """
    pools = (closed_strip(p), open_strip(p))
    out = []

    def extend(prefix: list, need: int, left: int) -> None:
        if left == 0:
            out.append((tuple(prefix), need))
            return
        for n in range(need + 1):
            h = need - n
            for s, a, b in pools[n > 0]:
                prefix.append((s, a, b, n, h))
                extend(prefix, p * h + a + b + n, left - 1)
                prefix.pop()

    extend([], 0, q)
    out.sort(key=lambda t: (t[1], tuple((n, h, s, a, b) for s, a, b, n, h in t[0])))
    return out


def vertices(p: int, factors: tuple) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Left sources, and right targets reflected through p when n is odd."""
    left = tuple(f[0] for f in factors)
    right = tuple(
        s + a - b if n % 2 == 0 else p - (s + a - b) for s, a, b, n, h in factors
    )
    return left, right


def basis_record(p: int, factors: tuple, z: int) -> dict:
    left, right = vertices(p, factors)
    return {
        "factors": [
            {"s": s, "alpha": a, "beta": b, "n": n, "h": h} for s, a, b, n, h in factors
        ],
        "z": z,
        "yoneda": z,
        "left_vertices": list(left),
        "right_vertices": list(right),
    }


@cache
def dim_table(p: int, q: int) -> dict:
    """(left tuple, right tuple, z) -> count, from the listing above."""
    return dict(Counter((*vertices(p, f), z) for f, z in weight_zero(p, q)))


@cache
def degree_totals(p: int, q: int) -> dict[int, int]:
    """Weight-zero counts by z, folded level by level without listing tuples."""
    pools = [Counter(a + b for _, a, b in pool) for pool in (closed_strip(p), open_strip(p))]
    dist = Counter({0: 1})
    for _ in range(q):
        nxt: Counter = Counter()
        for need, count in dist.items():
            for n in range(need + 1):
                h = need - n
                for degree, k in pools[n > 0].items():
                    nxt[p * h + degree + n] += count * k
        dist = nxt
    return dict(dist)


def record_weight(p: int, rec: dict) -> list[str]:
    """Problems with a basis record's weight and vertex fields, recomputed here."""
    need = 0
    for f in rec["factors"]:
        if f["n"] + f["h"] != need:
            return [f"factor {f} has level {f['n'] + f['h']}, chain needs {need}"]
        need = p * f["h"] + f["alpha"] + f["beta"] + f["n"]
    problems = []
    if rec["z"] != need or rec["yoneda"] != need:
        problems.append(f"z={rec['z']} yoneda={rec['yoneda']} but the chain closes at {need}")
    factors = tuple((f["s"], f["alpha"], f["beta"], f["n"], f["h"]) for f in rec["factors"])
    left, right = vertices(p, factors)
    if [list(left), list(right)] != [rec["left_vertices"], rec["right_vertices"]]:
        problems.append(f"vertex tuples {rec['left_vertices']} {rec['right_vertices']} wrong")
    return problems


# -- quivers -----------------------------------------------------------------


def strip_blocks(classes) -> dict:
    """(source, target, degree) -> count of path classes, vertices as strings."""
    return dict(Counter((str(s), str(s + a - b), a + b) for s, a, b in classes))


def line_arrows(up: str, down: str, top: int) -> dict[str, tuple[str, str]]:
    """Arrows up{l}: l -> l+1 and down{l}: l+1 -> l for l = 1..top-1."""
    out = {}
    for l in range(1, top):
        out[f"{up}{l}"] = (str(l), str(l + 1))
        out[f"{down}{l}"] = (str(l + 1), str(l))
    return out


def y2_arrows() -> dict[str, tuple[str, str]]:
    """The 32 arrows of the nine-vertex p = 3 quiver on vertices "i,j".

    Rows carry x (right) and y (left); f goes down and g up a row while
    swapping columns 1 and 2; al goes down and be up within a column.
    """

    def v(i, j):
        return f"{i},{j}"

    out = {}
    for i in (1, 2, 3):
        for j in (1, 2):
            out[f"x{i}{j}"] = (v(i, j), v(i, j + 1))
            out[f"y{i}{j + 1}"] = (v(i, j + 1), v(i, j))
        for j in (1, 2, 3):
            if i < 3:
                out[f"al{i}{j}"] = (v(i, j), v(i + 1, j))
            if i > 1:
                out[f"be{i}{j}"] = (v(i, j), v(i - 1, j))
    for i in (1, 2):
        for j in (1, 2):
            out[f"f{i}{j}"] = (v(i, j), v(i + 1, 3 - j))
            out[f"g{i + 1}{j}"] = (v(i + 1, j), v(i, 3 - j))
    return out
