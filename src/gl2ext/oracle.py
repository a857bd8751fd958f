"""Finite quiver-with-relations quotients by exact linear reduction.

Everything here is independent of the monomial model: a presentation is a
plain list of vertices, graded arrows and homogeneous relations with
rational coefficients.  One engine, ``GradedQuotient``, builds the quotient
degree by degree as normal words (one-arrow extensions of the previous
basis, reduced against the relations by sparse Gaussian elimination over
the rationals) together with the right action of the arrows.  On top of it
sit the graded dimension report ``quotient_basis``, the builtin
presentations used for cross-validation, and an Ext computation by
iterated minimal projective covers over the (finite-dimensional) quotient
algebra.

Rows are sparse dicts with int or Fraction coefficients, exact from the
boundary on: one update, ``_add_scaled``, one arrow action,
``GradedQuotient.mul``, and one elimination, ``reduce_row``.  A vector of
the quotient or of a module over it is keyed by one int, copy * N + basis
id.  The build visits only the degrees that can hold a candidate word and
ends when none is left, exactly when the quotient is finite; given a source
vertex, it builds only the words that start there.  One budget,
``MAX_WORK``, spent before what it counts is built, bounds each call:
``WorkLimitError``.  Only a coefficient or quotient that is not an int
loads ``fractions``.

Path convention, fixed everywhere including emitted files:
``path [a, b] means: first traverse a, then b``.
"""

from __future__ import annotations

import json
from collections import Counter
from functools import reduce
from typing import NamedTuple, Optional

PATH_CONVENTION = "path [a, b] means: first traverse a, then b"

# The units of work one call may spend: in ``GradedQuotient`` 32 per candidate,
# 32 per degree (its lists and blocks) and one per relation row before a degree
# is built; in ``quotient_basis`` 4 per listed zero degree; in ``ext_dims`` one
# per element and entry of each image and eliminated row.  A candidate holds
# 250 to 500 bytes, so a unit holds 8 to 16.  ``builtin_presentation`` counts
# 32 per arrow of a line quiver before building it.
MAX_WORK = 20_000_000


class UnknownPresentationError(ValueError):
    pass


class WorkLimitError(RuntimeError):
    """A call spent more than ``MAX_WORK`` units: its quotient is infinite or too large."""


class Arrow(NamedTuple):
    name: str
    src: str
    tgt: str
    deg: int


Relation = list[tuple["int | Fraction", tuple[str, ...]]]


def _coefficient(value) -> "int | Fraction":
    """A relation coefficient, an int when it is integral; ``"1/0"`` is a ValueError.

    So are exponents, which ``Fraction`` expands (``"1e4000000"`` takes
    seconds), and floats and booleans: a JSON ``0.3`` is a binary float, not
    3/10, and ``true`` is not a number.
    """
    if isinstance(value, (float, bool)):
        raise ValueError(f'bad coefficient {value!r}: give an integer or a string such as "0.3"')
    if type(value) is int:
        return value
    if isinstance(value, str) and "e" in value.lower():
        raise ValueError(f"bad coefficient {value!r}: exponents are not accepted")
    from fractions import Fraction  # loaded only for a coefficient that is not an int

    try:
        return _exact(Fraction(value))
    except ZeroDivisionError as exc:
        raise ValueError(f"bad coefficient {value!r}: {exc}") from None


def _path(value) -> tuple[str, ...]:
    """A JSON path: a list of arrow names, not a string or an object to iterate."""
    if type(value) is not list or not all(type(name) is str for name in value):
        raise ValueError(f"path {value!r} must be a list of arrow names")
    return tuple(value)


class QuiverPresentation:
    """Vertices, graded arrows and homogeneous relations over the rationals."""

    def __init__(self, name, vertices, arrows, relations):
        self.name = name
        if (
            type(vertices) is not list
            or not all(type(v) is str for v in vertices)
            or len(set(vertices)) != len(vertices)
        ):
            raise ValueError("vertices must be a list of distinct strings")
        self.vertices = list(vertices)
        known = set(self.vertices)
        self.arrows = [Arrow(*a) for a in arrows]
        for a in self.arrows:
            # a bool is an int to Python, but true is not a degree
            if not all(type(field) is str for field in a[:3]) or type(a.deg) is not int:
                raise ValueError(f"arrow {a.name!r}: name, src and tgt must be strings, deg an integer")
            if a.src not in known or a.tgt not in known:
                raise ValueError(f"arrow {a.name!r} has an unknown endpoint")
            if a.deg < 1:
                raise ValueError(f"arrow {a.name!r} must have positive degree")
        self.arrow_by_name = {a.name: a for a in self.arrows}
        if len(self.arrow_by_name) != len(self.arrows):
            raise ValueError("arrow names must be unique")
        self.relations: list[Relation] = [
            [(_coefficient(c), tuple(path)) for c, path in rel] for rel in relations
        ]
        self.signatures = [self._check_homogeneous(rel) for rel in self.relations]

    def path_endpoints(self, path: tuple[str, ...]) -> tuple[str, str, int]:
        """(source, target, degree) of a composable arrow-name path."""
        if not path:
            raise ValueError("empty path has no endpoints without a vertex")
        src = self.arrow_by_name[path[0]].src
        at = src
        deg = 0
        for name in path:
            a = self.arrow_by_name[name]
            if a.src != at:
                raise ValueError(f"path {list(path)} breaks at {name!r}")
            at = a.tgt
            deg += a.deg
        return src, at, deg

    def _check_homogeneous(self, rel: Relation) -> tuple[str, str, int]:
        if not rel:
            raise ValueError("empty relation")
        sig = self.path_endpoints(rel[0][1])
        for _, path in rel[1:]:
            if self.path_endpoints(path) != sig:
                raise ValueError(
                    f"relation {rel} is not homogeneous in (source, target, degree)"
                )
        return sig

    # -- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "convention": PATH_CONVENTION,
            "name": self.name,
            "vertices": list(self.vertices),
            "arrows": [
                {"name": a.name, "src": a.src, "tgt": a.tgt, "deg": a.deg}
                for a in self.arrows
            ],
            "relations": [
                [{"coeff": str(c), "path": list(path)} for c, path in rel]
                for rel in self.relations
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "QuiverPresentation":
        if not isinstance(data, dict):
            raise ValueError("a presentation must be a JSON object")
        return cls(
            data.get("name", "unnamed"),
            data["vertices"],
            [(a["name"], a["src"], a["tgt"], a["deg"]) for a in data["arrows"]],
            [
                [(t["coeff"], _path(t["path"])) for t in rel]
                for rel in data["relations"]
            ],
        )

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)

    @classmethod
    def loads(cls, text: str) -> "QuiverPresentation":
        return cls.from_json_dict(json.loads(text))


# -- builtin presentations --------------------------------------------------


def _line_quiver(n: int, up: str, down: str) -> tuple[list[str], list[tuple]]:
    """Vertices 1..n and, for each l < n, the arrows up{l}: l -> l+1 and down{l}: l+1 -> l."""
    vertices = [str(v) for v in range(1, n + 1)]
    arrows = []
    for l in range(1, n):
        arrows.append((f"{up}{l}", str(l), str(l + 1), 1))
        arrows.append((f"{down}{l}", str(l + 1), str(l), 1))
    return vertices, arrows


def _omega_presentation(p: int) -> QuiverPresentation:
    """Closed strip on vertices 1..p: commuting loops, dead up-loop at 1."""
    relations: list[Relation] = [[(1, ("x1", "y1"))]]
    for l in range(1, p - 1):
        # down-loop equals up-loop at vertex l+1
        relations.append(
            [(1, (f"y{l}", f"x{l}")), (-1, (f"x{l + 1}", f"y{l + 1}"))]
        )
    return QuiverPresentation(f"OMEGA({p})", *_line_quiver(p, "x", "y"), relations)


def _theta_presentation(p: int) -> QuiverPresentation:
    """Open strip on vertices 1..p-1: both boundary loops die."""
    relations: list[Relation] = []
    for v in range(1, p):
        up = (f"x{v}", f"y{v}") if v <= p - 2 else None
        down = (f"y{v - 1}", f"x{v - 1}") if v >= 2 else None
        if up and down:
            relations.append([(1, up), (-1, down)])
        elif up:
            relations.append([(1, up)])
        elif down:
            relations.append([(1, down)])
    return QuiverPresentation(f"THETA({p})", *_line_quiver(p - 1, "x", "y"), relations)


def _c_presentation(p: int) -> QuiverPresentation:
    """Zigzag-type subquotient on vertices 1..p (squares die, loops anti-commute)."""
    relations: list[Relation] = []
    for l in range(1, p - 1):
        relations.append([(1, (f"xi{l}", f"xi{l + 1}"))])
        relations.append([(1, (f"eta{l + 1}", f"eta{l}"))])
        relations.append(
            [(1, (f"eta{l}", f"xi{l}")), (1, (f"xi{l + 1}", f"eta{l + 1}"))]
        )
    relations.append([(1, (f"eta{p - 1}", f"xi{p - 1}"))])
    return QuiverPresentation(f"C({p})", *_line_quiver(p, "xi", "eta"), relations)


def _y2_p3_presentation() -> QuiverPresentation:
    """The nine-vertex quiver with degree-1 and degree-3 arrows at p = 3.

    Vertices are "i,j" with i, j in 1..3.  Arrows: x right, y left along
    rows; f down and g up across rows, flipping columns 1 and 2; al down
    and be up within a column (degree 3).  Relations are encoded in the
    unique pairing that is homogeneous in (source, target, degree); index
    ranges take the widest homogeneous interpretation.  Validated against
    the reference column at vertex (1,1); off-column output is reported, not
    asserted.
    """
    def v(i, j):
        return f"{i},{j}"

    vertices = [v(i, j) for i in (1, 2, 3) for j in (1, 2, 3)]
    arrows = []
    for i in (1, 2, 3):
        for j in (1, 2):
            arrows.append((f"x{i}{j}", v(i, j), v(i, j + 1), 1))
        for j in (2, 3):
            arrows.append((f"y{i}{j}", v(i, j), v(i, j - 1), 1))
    for i in (1, 2):
        for j in (1, 2):
            arrows.append((f"f{i}{j}", v(i, j), v(i + 1, 3 - j), 1))
    for i in (2, 3):
        for j in (1, 2):
            arrows.append((f"g{i}{j}", v(i, j), v(i - 1, 3 - j), 1))
    for i in (1, 2):
        for j in (1, 2, 3):
            arrows.append((f"al{i}{j}", v(i, j), v(i + 1, j), 3))
    for i in (2, 3):
        for j in (1, 2, 3):
            arrows.append((f"be{i}{j}", v(i, j), v(i - 1, j), 3))

    R: list[Relation] = []

    def comm(path1, path2):
        R.append([(1, tuple(path1)), (-1, tuple(path2))])

    def dead(path):
        R.append([(1, tuple(path))])

    # commuting squares and loops where both routes exist
    for i in (1, 2, 3):
        comm([f"y{i}2", f"x{i}1"], [f"x{i}2", f"y{i}3"])  # loops at (i,2)
    for j in (1, 2):
        comm([f"g2{j}", f"f1{3 - j}"], [f"f2{j}", f"g3{3 - j}"])  # loops at (2,j)
    for j in (1, 2, 3):
        comm([f"be2{j}", f"al1{j}"], [f"al2{j}", f"be3{j}"])  # loops at (2,j)
    for i in (2, 3):
        for j in (1, 2):
            comm([f"be{i}{j}", f"x{i - 1}{j}"], [f"x{i}{j}", f"be{i}{j + 1}"])
    for i in (1, 2):
        for j in (1, 2):
            comm([f"al{i}{j}", f"x{i + 1}{j}"], [f"x{i}{j}", f"al{i}{j + 1}"])
    for i in (2, 3):
        for j in (2, 3):
            comm([f"be{i}{j}", f"y{i - 1}{j}"], [f"y{i}{j}", f"be{i}{j - 1}"])
    for i in (1, 2):
        for j in (2, 3):
            comm([f"al{i}{j}", f"y{i + 1}{j}"], [f"y{i}{j}", f"al{i}{j - 1}"])
    for j in (1, 2):
        comm([f"be2{j}", f"f1{j}"], [f"f2{j}", f"be3{3 - j}"])
        comm([f"al1{j}", f"f2{j}"], [f"f1{j}", f"al2{3 - j}"])
        comm([f"be3{j}", f"g2{j}"], [f"g3{j}", f"be2{3 - j}"])
        comm([f"al2{j}", f"g3{j}"], [f"g2{j}", f"al1{3 - j}"])
    # mixed row/diagonal squares, in the unique homogeneous pairing
    for i in (1, 2):
        comm([f"f{i}1", f"y{i + 1}2"], [f"x{i}1", f"f{i}2"])  # (i,1) -> (i+1,1)
        comm([f"y{i}2", f"f{i}1"], [f"f{i}2", f"x{i + 1}1"])  # (i,2) -> (i+1,2)
    for i in (2, 3):
        comm([f"g{i}1", f"y{i - 1}2"], [f"x{i}1", f"g{i}2"])  # (i,1) -> (i-1,1)
        comm([f"y{i}2", f"g{i}1"], [f"g{i}2", f"x{i - 1}1"])  # (i,2) -> (i-1,2)
    # dead boundary loops along row 1 and column 1
    for i in (1, 2, 3):
        dead([f"x{i}1", f"y{i}2"])
    for j in (1, 2):
        dead([f"f1{j}", f"g2{3 - j}"])
    for j in (1, 2, 3):
        dead([f"al1{j}", f"be2{j}"])
    for j in (1, 2):
        dead([f"f1{j}", f"be2{3 - j}"])
        dead([f"al1{j}", f"g2{j}"])
    # dead corner turns through column 3
    for i in (2, 3):
        dead([f"y{i}3", f"g{i}2"])
    for i in (1, 2):
        dead([f"y{i}3", f"f{i}2"])
        dead([f"f{i}1", f"x{i + 1}2"])
    for i in (2, 3):
        dead([f"g{i}1", f"x{i - 1}2"])
    return QuiverPresentation("Y2_P3", vertices, arrows, R)


def _y2_p3_completed_presentation() -> QuiverPresentation:
    """Y2_P3 plus the boundary identifications the base relation list leaves implicit.

    Two families close the relation-range gap: at row 2 the dip route
    (be then f) equals the bump route (al then g) between the flipped
    columns, and at the top wall row 3 the dip route equals the
    diagonal-then-vertical return (g then al).  With these the quotient
    matches the weight-zero tensor model on every (source, target, degree)
    block, not just the column at (1,1).
    """
    base = _y2_p3_presentation()
    extra: list[Relation] = []
    for j in (1, 2):
        extra.append(
            [(1, (f"be2{j}", f"f1{j}")), (-1, (f"al2{j}", f"g3{j}"))]
        )
        extra.append(
            [(1, (f"be3{j}", f"f2{j}")), (-1, (f"g3{j}", f"al2{3 - j}"))]
        )
    return QuiverPresentation(
        "Y2_P3_COMPLETED", base.vertices, base.arrows, base.relations + extra
    )


def builtin_presentation(name: str, p: Optional[int] = None) -> QuiverPresentation:
    """One of the shipped presentations: Y2_P3, OMEGA(p), THETA(p) or C(p).

    Y2_P3_COMPLETED is the recorded configuration alternative that also
    carries the implicit boundary identifications (see its docstring).
    """
    if name in ("Y2_P3", "Y2_P3_COMPLETED"):
        if p not in (None, 3):
            raise UnknownPresentationError(f"{name} is only defined at p = 3")
        return (
            _y2_p3_presentation()
            if name == "Y2_P3"
            else _y2_p3_completed_presentation()
        )
    if name in ("OMEGA", "THETA", "C"):
        if p is None:
            raise UnknownPresentationError(f"{name} needs a prime p")
        from .paths import require_prime

        require_prime(p)
        arrows = 2 * (p - (2 if name == "THETA" else 1))
        if 32 * arrows > MAX_WORK:  # their candidates at degree 1 alone pass the budget
            raise WorkLimitError(
                f"{name}({p}) has {arrows} arrows, {32 * arrows} units at 32 each, past the limit of "
                f"{MAX_WORK} (oracle.MAX_WORK), so it is refused before it is built"
            )
        return {"OMEGA": _omega_presentation, "THETA": _theta_presentation, "C": _c_presentation}[name](p)
    raise UnknownPresentationError(
        f"unknown presentation {name!r}; expected Y2_P3, Y2_P3_COMPLETED, "
        f"OMEGA, THETA or C"
    )


# -- sparse exact elimination ------------------------------------------------

Row = dict  # candidate (basis id, arrow), int vector key or other hashable -> int or Fraction


def _exact(x):
    """``x``, an int or a Fraction, as an ``int`` when it is integral, else unchanged."""
    return x if type(x) is int or x.denominator != 1 else x.numerator


def _div(a, b):
    """Exact quotient of ints or Fractions: ``a // b`` when b divides a, else a Fraction.

    The one division of the elimination code, so ``int / int`` (a float)
    never happens and integral values stay ``int``, with no ``fractions`` loaded.
    """
    if type(a) is int and type(b) is int and not a % b:
        return a // b
    from fractions import Fraction

    return _exact(Fraction(a, b))


def _add_scaled(dst: Row, coeff, src: Row, shift: int = 0) -> None:
    """``dst += coeff * src`` in place, dropping the entries that cancel; ``shift`` moves int keys."""
    for key, c in src.items():
        if shift:
            key += shift
        val = dst.get(key, 0) + coeff * c
        if val:
            dst[key] = val
        else:
            dst.pop(key, None)


def reduce_row(pivots: dict, row: Row) -> Optional[object]:
    """Echelon-insert ``row`` against ``pivots``; returns its pivot key or None.

    Pivot keys are the maximal support keys; stored rows are normalized to
    pivot coefficient 1.  Exact arithmetic on ints and Fractions, no
    floating point; ``row`` itself is left unchanged.
    """
    row = dict(row)
    while row:
        lead = max(row)
        pivot = pivots.get(lead)
        if pivot is None:
            inv = row[lead]
            pivots[lead] = {key: _div(c, inv) for key, c in row.items()}
            return lead
        _add_scaled(row, -row[lead], pivot)  # the lead cancels: pivot[lead] == 1
    return None


class GradedBasisReport(NamedTuple):
    """Per-(source, target, degree) dimensions of a graded quotient."""

    presentation: str
    max_degree: int
    dims: dict  # (src, tgt, deg) -> int, zero blocks omitted
    basis_paths: Optional[dict]  # (src, tgt, deg) -> list of path tuples
    zero_degrees: list  # degrees <= max_degree at which every block vanishes
    stabilized: bool  # no word of the report has an arrow leading past max_degree

    def dims_by_source_degree(self) -> dict:
        out: dict = {}
        for (src, tgt, deg), d in self.dims.items():
            key = (src, deg)
            out[key] = out.get(key, 0) + d
        return out

    def total_dim(self) -> int:
        return sum(self.dims.values())

    def to_json_dict(self) -> dict:
        blocks = [
            {"source": s, "target": t, "degree": d, "dim": n}
            for (s, t, d), n in sorted(self.dims.items())
        ]
        out = {
            "convention": PATH_CONVENTION,
            "presentation": self.presentation,
            "max_degree": self.max_degree,
            "blocks": blocks,
            "zero_degrees": list(self.zero_degrees),
            "stabilized": self.stabilized,
        }
        if self.basis_paths is not None:
            out["basis_paths"] = [
                {"source": s, "target": t, "degree": d, "paths": [list(x) for x in paths]}
                for (s, t, d), paths in sorted(self.basis_paths.items())
                if paths
            ]
        return out


def quotient_basis(
    pres: QuiverPresentation,
    max_degree: int,
    source: Optional[str] = None,
    with_paths: bool = False,
) -> GradedBasisReport:
    """Graded dimensions of paths modulo the two-sided relation ideal.

    A report over ``GradedQuotient`` built up to ``max_degree``: one block
    per (source, target, degree), listing the quotient's normal words when
    ``with_paths`` is set.  Passing ``source`` builds and reports only the
    column of paths starting there; ``stabilized`` is the engine's either way.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be >= 0")
    if source is not None and source not in pres.vertices:
        raise ValueError(f"unknown source vertex {source!r}")
    quo = GradedQuotient(pres, max_degree=max_degree, source=source)
    blocks: dict = {}
    for idx, block in enumerate(zip(quo.src, quo.tgt, quo.deg)):
        blocks.setdefault(block, []).append(idx)
    dims = {block: len(ids) for block, ids in sorted(blocks.items())}
    basis_paths = (
        {block: sorted(map(quo.word, ids)) for block, ids in sorted(blocks.items())}
        if with_paths
        else None
    )
    live = {deg for _, _, deg in dims}
    zeros = max_degree - len(live - {0})
    # a listed degree holds about 36 bytes: a list slot and an int
    quo.spend(4 * zeros, lambda: f"the report lists {zeros} zero degrees up to degree {max_degree}")
    zero_degrees = [d for d in range(1, max_degree + 1) if d not in live]
    return GradedBasisReport(
        pres.name, max_degree, dims, basis_paths, zero_degrees, quo.stabilized
    )


# -- the quotient engine ------------------------------------------------------


class GradedQuotient:
    """Multiplicative structure of a finite graded quotient algebra.

    Built degree by degree: candidates are one-arrow right extensions of
    the previous basis, relation instances are rewritten through already
    constructed degrees, and an echelon form per block yields the new
    basis, the candidates that lead no pivot row, and the right action of
    the arrows: a pivot candidate is minus the rest of its row.
    The basis words are Groebner-style normal words: no candidate that is
    a pivot of the relation span survives.  They are closed under prefixes,
    so each is stored once, as its ``parent`` word and its ``last`` arrow,
    and ``word`` spells it out.  This is the one engine behind
    ``quotient_basis`` and ``ext_dims``, and ``mul`` is the one arrow
    action: on a vector of basis ids, or on a module vector of ``ext_dims``
    keyed copy * N + basis id, N the number of basis words.

    Once degree d is built, every word of degree <= d is final, so the build
    jumps to the least deg w + deg a over the kept words w and the arrows a
    out of their targets: a degree with no candidate has no relation row
    either.  It stops past ``max_degree`` (None: at the end); ``stabilized``
    says that no degree is left, so the quotient is finite and built whole.

    Every candidate and relation row of a block (v, w) extends a word from v,
    so ``source`` starts the build at that vertex alone, with the full build's
    words, paths and ``stabilized`` for its column.
    """

    def __init__(
        self, pres: QuiverPresentation, max_degree: Optional[int] = None, source: Optional[str] = None
    ):
        self.pres = pres
        self.src: list[str] = []
        self.tgt: list[str] = []
        self.deg: list[int] = []
        # word i is word parent[i] followed by arrow last[i] (both None at degree 0)
        self.last: list[Optional[str]] = []
        self.parent: list[Optional[int]] = []
        self.by_deg: dict = {}  # degree -> target -> basis ids, ascending
        self.rmul: dict = {}  # (basis id, arrow name) -> {basis id: int or Fraction}
        self.out_degrees: dict = {v: set() for v in pres.vertices}
        for a in pres.arrows:
            self.out_degrees[a.src].add(a.deg)
        self.work = 0  # units spent against MAX_WORK
        self._build(max_degree, pres.vertices if source is None else [source])

    def spend(self, units: int, where, *args) -> None:
        """Add ``units`` to this call's work; past ``MAX_WORK``, raise, naming ``where(*args)``."""
        self.work += units
        if self.work > MAX_WORK:
            raise WorkLimitError(
                f"{where(*args)}: {units} units take the call to {self.work}, past the limit of "
                f"{MAX_WORK} (oracle.MAX_WORK), so the quotient is infinite or the call too large"
            )

    def _largest_block(self, d: int, extended: list) -> str:
        """Degree d, its candidates and its largest block, for a ``WorkLimitError``."""
        blocks = Counter((self.src[i], a.tgt) for (_, a), ids in extended for i in ids)
        ((block, most),) = blocks.most_common(1)
        return f"degree {d} has {blocks.total()} candidates, {most} of them in block {block!r}"

    def _extending(self, index: dict, d: int) -> list:
        """``(entry, ids)``: each entry of ``index`` with the kept words it extends to degree d.

        ``index`` maps degree -> source -> entries, each led by its place in
        the presentation, and the pairs come in that order.
        """
        return sorted(
            (entry, ids)
            for e, by_src in index.items()
            for v, ids in self.by_deg.get(d - e, {}).items()
            for entry in by_src.get(v, ())
        )

    def _add_element(self, src, tgt, deg, last=None, parent=None) -> int:
        idx = len(self.src)
        self.src.append(src)
        self.tgt.append(tgt)
        self.deg.append(deg)
        self.last.append(last)
        self.parent.append(parent)
        self.by_deg.setdefault(deg, {}).setdefault(tgt, []).append(idx)
        return idx

    def word(self, idx: int) -> tuple[str, ...]:
        """The normal word of basis element ``idx``, its arrows in order."""
        arrows = []
        while self.parent[idx] is not None:
            arrows.append(self.last[idx])
            idx = self.parent[idx]
        return tuple(reversed(arrows))

    def mul(self, vec: dict, arrow: str) -> dict:
        """``vec`` times ``arrow``: key copy * len(self.src) + basis id keeps its image in its copy."""
        size = len(self.src)
        out: dict = {}
        for key, c in vec.items():
            bidx = key % size
            _add_scaled(out, c, self.rmul[(bidx, arrow)], key - bidx)
        return out

    def mul_vector_by_path(self, vec: dict, path: tuple[str, ...]) -> dict:
        return reduce(self.mul, path, vec)

    def _build(self, max_degree: Optional[int], sources: list[str]) -> None:
        pres = self.pres
        # by degree and source, so that a degree visits only the kept words they extend
        arrows_from: dict = {}
        for i, a in enumerate(pres.arrows):
            arrows_from.setdefault(a.deg, {}).setdefault(a.src, []).append((i, a))
        relations_from: dict = {}
        for i, ((rsrc, rtgt, rdeg), rel) in enumerate(zip(pres.signatures, pres.relations)):
            relations_from.setdefault(rdeg, {}).setdefault(rsrc, []).append((i, rtgt, rel))
        reach: set = set()  # the degrees deg w + deg a not yet built
        for v in sources:
            self._add_element(v, v, 0)
            reach |= self.out_degrees[v]
        while reach:
            d = min(reach)
            if max_degree is not None and d > max_degree:
                break
            reach.remove(d)
            extended = self._extending(arrows_from, d)
            related = self._extending(relations_from, d)
            size = sum(len(ids) for _, ids in extended)
            rows = sum(len(ids) for _, ids in related)
            self.spend(32 * (size + 1) + rows, self._largest_block, d, extended)
            # candidates (basis element, final arrow), grouped per block
            cands: dict = {}
            for (_, a), ids in extended:
                for idx in ids:
                    cands.setdefault((self.src[idx], a.tgt), []).append((idx, a.name))
            rows_by_block: dict = {}
            for (_, rtgt, rel), ids in related:
                for idx in ids:
                    row: dict = {}
                    for coeff, path in rel:
                        vec = self.mul_vector_by_path({idx: 1}, path[:-1])
                        _add_scaled(row, coeff, {(jdx, path[-1]): c for jdx, c in vec.items()})
                    if row:
                        rows_by_block.setdefault((self.src[idx], rtgt), []).append(row)
            for block, cand_list in sorted(cands.items()):
                cand_list.sort()
                piv: dict = {}
                for row in rows_by_block.get(block, ()):
                    reduce_row(piv, row)
                words = len(self.src)
                # a pivot row's other keys are smaller candidates, so their action is final
                for cand in cand_list:
                    row = piv.get(cand)
                    if row is None:
                        bidx, arrow = cand
                        self.rmul[cand] = {self._add_element(block[0], block[1], d, arrow, bidx): 1}
                        continue
                    act: dict = {}
                    for key, c in row.items():
                        if key != cand:
                            _add_scaled(act, -c, self.rmul[key])
                    self.rmul[cand] = {idx: _exact(c) for idx, c in act.items()}
                if len(self.src) > words:
                    reach |= {d + e for e in self.out_degrees[block[1]]}
        self.stabilized = not reach


class ExtReport(NamedTuple):
    """Ext dimensions between simples, via minimal projective covers."""

    presentation: str
    max_n: int
    dims: dict  # (from vertex, to vertex, n) -> dim, zeros omitted
    complete: dict  # vertex -> True when the resolution terminated

    def degree_totals(self) -> dict:
        out: dict = {}
        for (_, _, n), d in self.dims.items():
            out[n] = out.get(n, 0) + d
        return out

    def to_json_dict(self) -> dict:
        return {
            "presentation": self.presentation,
            "max_n": self.max_n,
            "dims": [
                {"from": v, "to": w, "n": n, "dim": d}
                for (v, w, n), d in sorted(self.dims.items())
            ],
            "complete": {v: bool(c) for v, c in sorted(self.complete.items())},
        }


def ext_dims(pres: QuiverPresentation, max_n: int) -> ExtReport:
    """Ext dimensions between the simple modules of the quotient algebra.

    Builds the whole quotient first, then iterates minimal projective
    covers of syzygies, spending on from the quotient's work; the
    multiplicity of the projective at w in stage n is dim Ext^n(L_v, L_w).
    Stage 0 is L_v itself, so one loop records every stage, Ext^0 included.
    ``complete[v]`` distinguishes a terminated resolution from max_n
    running out.

    A module vector maps copy * N + basis id to its coefficient, N being the
    number of basis words, and a piece is a (degree, vertex) homogeneous
    component.  The image of a generator along a normal word is its image
    along the word's parent times the last arrow (``GradedQuotient.mul``).
    A cover is onto the previous kernel, so each piece of its kernel has a
    known dimension: when the arrow images of the lower pieces already span
    it, no elimination over the piece is needed, and the last stage is
    decided by counting alone.

    Cover copies are numbered downward: the cover of stage 0 is copy 0 and
    each later cover takes the next lower numbers, so the keys of the module
    resolved sort below those of its image, as the pairs (copy, basis id)
    would.  A piece eliminates its radical, then each row as its image plus
    its own key; ``reduce_row`` leads with the largest key, so a row led by
    an own key has no image left: it is a kernel vector outside the span so
    far, a new generator.
    """
    quo = GradedQuotient(pres)
    size = len(quo.src)
    arrows_into: dict = {v: [] for v in pres.vertices}
    for a in pres.arrows:
        arrows_into[a.tgt].append(a)
    ids_from: dict = {v: [] for v in pres.vertices}  # ascending, so parents first
    for bidx, src in enumerate(quo.src):
        ids_from[src].append(bidx)
    dims: dict = {}
    complete: dict = {}

    def cover_rows(top, low, at):
        """Per piece, each element of the cover of ``top`` (copies below ``low``) with its image."""
        rows: dict = {}
        for copy, (w, shift, gvec) in enumerate(top, low - len(top)):
            img_of: dict = {}
            for bidx in ids_from[w]:
                parent = quo.parent[bidx]
                img = gvec if parent is None else quo.mul(img_of[parent], quo.last[bidx])
                img_of[bidx] = img
                piece = (shift + quo.deg[bidx], quo.tgt[bidx])
                rows.setdefault(piece, []).append((copy * size + bidx, img))
            quo.spend(sum(1 + len(img) for img in img_of.values()), lambda: at)
        return rows

    def kernel_and_top(rows, image_dims, at):
        """Basis of the kernel per piece, and generators of the kernel.

        ``image_dims[piece]`` is the dimension of the image in that piece.
        The generators (vertex, degree, vector) span the kernel modulo its
        radical, the arrow images of its lower pieces.
        """
        kernel: dict = {}
        top: list = []
        for piece in sorted(rows):
            want = len(rows[piece]) - image_dims.get(piece, 0)
            if not want:
                continue
            d, w = piece
            radical = (
                quo.mul(vec, a.name)
                for a in arrows_into[w]
                for vec in kernel.get((d - a.deg, a.src), ())
            )
            piv: dict = {}
            basis = []
            units = 0
            for img in radical:
                if len(basis) == want:
                    break
                units += 1 + len(img)
                if img and reduce_row(piv, img) is not None:
                    basis.append(img)
            quo.spend(units, lambda: at)
            if len(basis) < want:
                quo.spend(sum(1 + len(row) for _, row in rows[piece]), lambda: at)
                own = {key for key, _ in rows[piece]}
                for key, img in rows[piece]:
                    if len(basis) == want:
                        break
                    # an own key leads only once no image key is left: a new kernel vector
                    lead = reduce_row(piv, {**img, key: 1})
                    if lead in own:
                        basis.append(piv[lead])
                        top.append((w, d, piv[lead]))
            assert len(basis) == want, (piece, len(basis), want)
            kernel[piece] = basis
        return kernel, top

    for v in pres.vertices:
        # stage 0: the simple at v, one generator whose image is its one dimension
        top, image_dims = [(v, 0, {})], {(0, v): 1}
        n, low = 0, 1
        while True:
            for w, _, _ in top:
                dims[(v, w, n)] = dims.get((v, w, n), 0) + 1
            # the new cover is onto the kernel, and injective when no larger
            cover_dim = sum(len(ids_from[w]) for w, _, _ in top)
            complete[v] = cover_dim == sum(image_dims.values())
            if n >= max_n or complete[v]:
                break
            rows = cover_rows(top, low, f"vertex {v!r} at stage {n}")
            low -= len(top)
            n += 1
            kernel, top = kernel_and_top(rows, image_dims, f"vertex {v!r} at stage {n}")
            image_dims = {piece: len(basis) for piece, basis in kernel.items()}
    return ExtReport(pres.name, max_n, dims, complete)
