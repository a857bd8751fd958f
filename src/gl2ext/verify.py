"""Named verification checks and the fast/full suites behind ``verify``.

Each check returns a Check(name, ok, detail); the acceptance test module
and the CLI both drive these, so there is a single source of truth for
what "passing" means.  All randomness is seeded and all comparisons are
exact integer equalities.

Three routes compute Ext dimensions, and each stays in ``src/`` as an
independent route for the checks below: the weight-zero enumeration
(``tower``, behind ``basis`` and ``ext-table``), the operator series
(``series``, behind ``hilbert``), which counts without listing, and the
quiver oracle (``oracle``), which shares no code with the monomial model:
it calls ``paths.require_prime`` only to check p for the builtin
presentations, and importing it loads no other ``gl2ext`` module.

- ``check_oracle_concordance_q1``: oracle Ext of C(p) = series;
- ``check_series_vs_enumeration``: series = enumeration at p <= 3, q <= 2,
  the one home of that equality, q = 1 included;
- ``check_presentation_concordance``: oracle quotient of OMEGA(p) = the
  listed strip, which the printed rules miss;
- ``check_ses_identity`` and ``check_oracle_ses_identity``: the four-term
  identity of ``_four_term_defects``, on listed counts and on oracle
  dimensions;
- ``check_y2_column`` and ``check_calibration``: the oracle's Y2_P3 column
  and arrows = the enumeration's reference column.

``check_reference_column`` and ``check_yoneda_multiset`` hold the
enumeration to recorded data, and ``check_property_suite`` checks the laws
of the products (closure, associativity, gradings, embedding).  Each
check's reported name is the argument of its ``_check`` decorator.

Every check runs in the calling process, one after another, so
``verify`` starts no process of its own.
"""

from __future__ import annotations

import functools
import random
from collections import Counter
from itertools import compress
from typing import NamedTuple

from . import oracle, series, tower
from .lambda_basis import (
    LambdaMonomial,
    bidegree,
    is_valid,
    k_degree,
    lambda_mult,
    level_elements,
    path_j_degree,
)
from .paths import in_theta, omega_basis, pi_mult, sigma, theta_basis
from .tower import below


class Check(NamedTuple):
    name: str
    ok: bool
    detail: str


def _check(name: str):
    """Report a check's ``(ok, detail)``, or its exception, as ``Check(name, ...)``."""

    def decorate(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs) -> Check:
            try:
                return Check(name, *fn(*args, **kwargs))
            except Exception as exc:  # noqa: BLE001 - checks must never crash the suite
                return Check(name, False, f"error: {exc}")

        return run

    return decorate


# The fifteen weight-zero tuples of the reference column at vertex (1,1),
# p = 3, q = 2, in canonical order: ((s, alpha, beta, n, h) per factor, z).
REFERENCE_COLUMN = (
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

YONEDA_MULTISET = (0, 1, 1, 2, 2, 2, 3, 3, 4, 4, 5, 5, 6, 7, 8)


def _flatten(m: tower.TensorMonomial):
    return (
        tuple((f.b.s, f.b.alpha, f.b.beta, f.n, f.h) for f in m.factors),
        m.z,
    )


def _reference_column() -> list[tower.TensorMonomial]:
    """The weight-zero elements at p = 3, q = 2 with left vertices (1,1)."""
    return [
        m
        for m in tower.enumerate_weight_zero(3, 2)
        if tower.vertex_tuples(3, m)[0] == (1, 1)
    ]


@_check("reference_column_reproduction")
def check_reference_column():
    """The weight-zero column at left vertices (1,1) equals the 15 reference tuples."""
    got = tuple(_flatten(m) for m in _reference_column())
    ok = got == REFERENCE_COLUMN
    return ok, f"{len(got)} tuples, exact match" if ok else f"mismatch: {got}"


@_check("yoneda_degree_multiset")
def check_yoneda_multiset():
    """The same fifteen elements carry the reference degree multiset."""
    got = tuple(sorted(m.z for m in _reference_column()))
    return got == YONEDA_MULTISET, f"multiset {got}"


@_check("oracle_concordance_q1")
def check_oracle_concordance_q1(ps=(2, 3)):
    """Ext totals of C(p) equal the q=1 series (``series_matches_enumeration`` checks the series)."""
    problems = []
    for p in ps:
        ext = oracle.ext_dims(oracle.builtin_presentation("C", p), max_n=2 * p - 1)
        totals = ext.degree_totals()
        via_series = series.lambda_q_series(p, 1)
        if not all(ext.complete.values()):
            problems.append(f"p={p}: resolution incomplete")
        if totals != via_series:
            problems.append(f"p={p}: ext {totals} vs series {via_series}")
    return not problems, "; ".join(problems) or f"agree for p in {tuple(ps)}"


@_check("omega_presentation_concordance")
def check_presentation_concordance(ps=(2, 3, 5)):
    """Quotient dims of OMEGA(p) match the corrected counts; printed ones fail."""
    problems = []
    notes = []
    for p in ps:
        rep = oracle.quotient_basis(
            oracle.builtin_presentation("OMEGA", p), max_degree=2 * p
        )
        got = rep.dims_by_source_degree()
        want = Counter()
        for m in omega_basis(p):
            want[(str(m.s), m.degree)] += 1
        if got != dict(want):
            problems.append(f"p={p}: oracle {got} != corrected {dict(want)}")
        if p in (2, 3):
            # the paper's printed strip, alpha <= p - 1 in place of target <= p
            printed = Counter(
                (str(s), a + b) for s in range(1, p + 1) for a in range(p) for b in range(s)
            )
            if dict(printed) == got:
                problems.append(f"p={p}: printed variant unexpectedly matches")
            else:
                notes.append(
                    f"p={p}: printed total {sum(printed.values())} vs oracle "
                    f"{rep.total_dim()}"
                )
    return not problems, "; ".join(problems or notes)


def _four_term_defects(p: int, omega: Counter, theta: Counter) -> list[tuple[int, int, int]]:
    """The columns where the four-term identity fails, as (p, l, defect).

    ``omega`` and ``theta`` count the closed- and open-strip classes by
    source.  For 1 <= l <= p-1 the closed-strip columns at l, p and p-l and
    the open-strip column at p-l fit in an exact sequence, so the
    alternating sum of their dimensions vanishes.
    """
    defects = ((l, omega[l] - omega[p] + omega[p - l] - theta[p - l]) for l in range(1, p))
    return [(p, l, defect) for l, defect in defects if defect]


@_check("exact_sequence_identity")
def check_ses_identity(ps=(2, 3, 5, 7)):
    """The alternating four-term count identity vanishes for all columns."""
    bad = [
        column
        for p in ps
        for column in _four_term_defects(
            p, Counter(m.s for m in omega_basis(p)), Counter(m.s for m in theta_basis(p))
        )
    ]
    return not bad, f"defect nonzero at {bad}" if bad else f"holds for p in {tuple(ps)}"


@_check("oracle_exact_sequence_identity")
def check_oracle_ses_identity(ps=(2, 3, 5, 7)):
    """The same identity on quiver-oracle dimensions instead of counts."""
    bad = []
    for p in ps:
        om_src = Counter()
        th_src = Counter()
        for name, by_src in (("OMEGA", om_src), ("THETA", th_src)):
            rep = oracle.quotient_basis(
                oracle.builtin_presentation(name, p), max_degree=2 * p
            )
            for (s, _, _), n in rep.dims.items():
                by_src[int(s)] += n
        bad += _four_term_defects(p, om_src, th_src)
    return not bad, f"defect nonzero at {bad}" if bad else f"holds for p in {tuple(ps)}"


@_check("series_matches_enumeration")
def check_series_vs_enumeration(pairs=((2, 1), (2, 2), (3, 1), (3, 2))):
    """Operator-series dims equal weight-zero counts degree by degree."""
    problems = []
    for p, q in pairs:
        via_series = series.lambda_q_series(p, q)
        via_enum = dict(Counter(m.z for m in tower.enumerate_weight_zero(p, q)))
        if via_series != via_enum:
            problems.append(f"(p,q)=({p},{q}): {via_series} != {via_enum}")
    return not problems, "; ".join(problems) or f"agree for {tuple(pairs)}"


@_check("y2_p3_column")
def check_y2_column():
    """The quiver oracle reproduces the reference column at vertex (1,1).

    Off-column blocks are compared against the weight-zero model and only
    reported: deviations there trace back to the under-specified relation
    ranges of the base presentation, for which the completed builtin is
    the recorded alternative.
    """
    reports = [
        (name, oracle.quotient_basis(oracle.builtin_presentation(name), 40))
        for name in ("Y2_P3", "Y2_P3_COMPLETED")
    ]
    # the column ends at degree 11, so the whole grid holds all of it
    multiset = tuple(
        sorted(d for (s, _, d), n in reports[0][1].dims.items() if s == "1,1" for _ in range(n))
    )
    ok = multiset == YONEDA_MULTISET
    detail = f"column dim {len(multiset)}, multiset {multiset}"
    # reported, not asserted: full-grid comparison with the tensor model
    model = Counter()
    for (l, r, u), c in tower.ext_dim_table(3, 2).items():
        model[("%d,%d" % l, "%d,%d" % r, u)] = c
    for name, quo in reports:
        if not quo.stabilized:
            detail += f"; {name}: did not stabilize"
            continue
        mism = sum(
            1
            for key in set(model) | set(quo.dims)
            if model.get(key, 0) != quo.dims.get(key, 0)
        )
        detail += (
            f"; {name}: total {quo.total_dim()}, "
            f"{mism} off-column block deviations from the model"
        )
    return ok, detail


@_check("vertex_tuple_calibration")
def check_calibration():
    """Degree-1 arrows out of vertex (1,1) match the weight-zero model."""
    quiver_targets = sorted(
        a.tgt
        for a in oracle.builtin_presentation("Y2_P3").arrows
        if a.src == "1,1" and a.deg == 1
    )
    model_targets = sorted(
        "%d,%d" % tower.vertex_tuples(3, m)[1] for m in _reference_column() if m.z == 1
    )
    return (
        quiver_targets == model_targets,
        f"degree-1 targets {model_targets} vs quiver {quiver_targets}",
    )


def _random_tensor(rng: random.Random, p: int, q: int, nh_max: int):
    """q layer elements with n, h <= nh_max, then z <= 2p; any weight."""
    omega, theta = omega_basis(p), theta_basis(p)
    getrandbits, bound = rng.getrandbits, nh_max + 1
    k = bound.bit_length()
    factors = []
    for _ in range(q):
        n = h = bound  # then n and h, each drawn as ``below(rng, bound)`` draws it
        while n >= bound:
            n = getrandbits(k)
        while h >= bound:
            h = getrandbits(k)
        pool = omega if n == 0 else theta
        factors.append(tuple.__new__(LambdaMonomial, (pool[below(rng, len(pool))], n, h)))
    return tuple.__new__(tower.TensorMonomial, (tuple(factors), below(rng, 2 * p + 1)))


def _gradings(p: int, e: LambdaMonomial) -> tuple[int, int, int, int]:
    """(e_l, e_r, k-degree, path-j-degree) of a layer element."""
    e_l, e_r = bidegree(p, e)
    return e_l, e_r, k_degree(p, e), path_j_degree(p, e)


def _exact_tuples(elements) -> list[tuple]:
    """Equal exact tuples ``(tuple(b), n, h)`` of layer elements, for the sweeps to multiply.

    CPython 3.11 unpacks an exact tuple on its specialized path and a
    NamedTuple through an iterator, which doubles the cost of a product.
    """
    return [(tuple(b), n, h) for b, n, h in elements]


def _property_sweeps(ps) -> tuple[list[str], int]:
    """The property suite's reflection and closure sweeps: ``(problems, checked)``.

    Both closure sweeps multiply every pair once, a row at a time, and
    visit only the nonzero products.  The layer closure computes validity
    and gradings once per distinct product, in a dict that lives for one
    call.
    """
    problems: list[str] = []
    checked = 0

    # reflection is an involution and respects products on the open strip
    for p in ps:
        theta = theta_basis(p)
        for a in theta:
            if sigma(p, sigma(p, a)) != a or not in_theta(p, *sigma(p, a)):
                problems.append(f"sigma involution fails at p={p}, {a}")
        for a in theta:
            for b in theta:
                lhs = pi_mult(a, b)
                rhs = pi_mult(sigma(p, a), sigma(p, b))
                lhs_s = sigma(p, lhs) if lhs is not None else None
                if lhs_s != rhs:
                    problems.append(f"sigma product fails at p={p}, {a}, {b}")
                checked += 1

    # layer membership closure and grading additivity, exhaustive n, h <= 3
    for p in ps:
        pool = [
            e
            for lvl in range(0, 7)
            for e in level_elements(p, lvl)
            if e.n <= 3 and e.h <= 3
        ]
        graded = [_gradings(p, e) for e in pool]
        operands = _exact_tuples(pool)
        facts = {}  # (is_valid, gradings) of each distinct product
        for x, cx, gx in zip(pool, operands, graded):
            row = [lambda_mult(p, cx, cy) for cy in operands]
            checked += len(row)
            for prod, y, gy in compress(zip(row, pool, graded), row):
                fact = facts.get(prod)
                if fact is None:
                    fact = facts[prod] = (is_valid(p, prod), _gradings(p, prod))
                valid, gp = fact
                if not valid:
                    problems.append(f"closure fails: {x} * {y} -> {prod}")
                if gx[0] + gy[0] != gp[0] or gx[1] + gy[1] != gp[1]:
                    problems.append(f"bidegree not additive at {x} * {y}")
                if gx[2] + gy[2] != gp[2]:
                    problems.append(f"k-degree not additive at {x} * {y}")
                if gx[3] + gy[3] != gp[3]:
                    problems.append(f"path-j-degree not additive at {x} * {y}")
        if problems:
            break

    # exhaustive signed closure for small towers
    for p in (2, 3):
        for q in (1, 2):
            basis = tower.enumerate_weight_zero(p, q)
            index = set(basis)
            operands = [
                tuple.__new__(tower.TensorMonomial, (tuple(_exact_tuples(m.factors)), m.z))
                for m in basis
            ]
            for a, ca in zip(basis, operands):
                row = [tower.tensor_mult(p, ca, cb) for cb in operands]
                checked += len(row)
                for r, b in compress(zip(row, basis), row):
                    if r.sign not in (-1, 1) or r.monomial not in index:
                        problems.append(f"closure fails: {a} * {b} -> {r}")
            if problems:
                break

    return problems, checked


# The one random stream of the property suite's random sections.
PROPERTY_SEED = 20240


def _property_draws(random_rounds: int, ps, q_max: int) -> tuple[list[str], int]:
    """The property suite's random draws and basis counts: ``(problems, checked)``."""
    rng = random.Random(PROPERTY_SEED)
    problems: list[str] = []
    checked = 0

    # randomized signed closure, weight additivity and associativity
    rounds = max(1, random_rounds // 2)
    for _ in range(rounds):
        p = ps[below(rng, len(ps))]
        q = 1 + below(rng, q_max)
        a = tower.random_weight_zero(rng, p, q)
        b = tower.random_weight_zero(rng, p, q)
        r = tower.tensor_mult(p, a, b)
        checked += 1
        if r is not None and not tower.is_weight_zero_basis_element(
            p, r.monomial
        ):
            problems.append(f"random closure fails: {a} * {b}")
            break
    for _ in range(rounds):
        p = ps[below(rng, len(ps))]
        q = 1 + below(rng, q_max)
        a, b, c = (_random_tensor(rng, p, q, 3) for _ in range(3))
        ab = tower.tensor_mult(p, a, b)
        bc = tower.tensor_mult(p, b, c)
        lval = rval = None
        if ab is not None:
            abc = tower.tensor_mult(p, ab.monomial, c)
            if abc is not None:
                lval = (ab.sign * abc.sign, abc.monomial)
        if bc is not None:
            abc = tower.tensor_mult(p, a, bc.monomial)
            if abc is not None:
                rval = (bc.sign * abc.sign, abc.monomial)
        checked += 1
        if lval != rval:
            problems.append(f"associativity fails: {a}, {b}, {c}")
            break
        if ab is not None:
            wa, wb = tower.weight(p, a), tower.weight(p, b)
            wab = tower.weight(p, ab.monomial)
            if tuple(x + y for x, y in zip(wa, wb)) != wab:
                problems.append(f"weight not additive: {a}, {b}")
                break

    # embedding: injective, multiplicative, sign preserving, weight prefixing
    for _ in range(500):
        p = ps[below(rng, len(ps))]
        q = 1 + below(rng, q_max)
        a = _random_tensor(rng, p, q, 3)
        b = _random_tensor(rng, p, q, 3)
        ea, eb = tower.embed(a), tower.embed(b)
        if tower.weight(p, ea) != (0,) + tower.weight(p, a):
            problems.append(f"embed weight fails at {a}")
            break
        r = tower.tensor_mult(p, a, b)
        er = tower.tensor_mult(p, ea, eb)
        if (r is None) != (er is None):
            problems.append(f"embed zero pattern fails at {a}, {b}")
            break
        if r is not None and (
            er.sign != r.sign or er.monomial != tower.embed(r.monomial)
        ):
            problems.append(f"embed multiplicativity fails at {a}, {b}")
            break
        checked += 1

    # ext-degree identity and idempotent counts on enumerated bases
    for p, q in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (5, 1)):
        basis = tower.enumerate_weight_zero(p, q)
        degree = functools.partial(k_degree, p)
        for m in basis:
            if sum(map(degree, m.factors)) != m.z:
                problems.append(f"ext-degree identity fails at p={p}, {m}")
                break
        checked += len(basis)
        count = sum(1 for m in basis if m.z == 0)
        if count != p**q:
            problems.append(f"idempotent count {count} != {p**q} at (p,q)=({p},{q})")
        if len(basis) != len(set(map(tower.embed, basis))):
            problems.append(f"embed not injective at (p,q)=({p},{q})")
        for m in basis[:200]:
            if not tower.is_weight_zero_basis_element(p, tower.embed(m)):
                problems.append(f"embed leaves the basis at {m}")
                break

    return problems, checked


@_check("property_suite")
def check_property_suite(random_rounds: int = 10_000, ps=(2, 3, 5), q_max: int = 3):
    """Signed closure, associativity, involution, gradings, embedding, counts.

    What the arguments bound:

    - ``ps``: the primes of the reflection and layer-closure sections and
      of every random draw;
    - ``q_max``: the number of factors of every random draw;
    - ``random_rounds``: the random closure and associativity products
      (half each); the random embedding section always draws 500 pairs.

    Two sections ignore ``ps`` and ``q_max``: the exhaustive signed
    closure on the bases (p, q) with p in {2, 3} and q in {1, 2}, and the
    ext-degree, idempotent and embedding checks on the bases (2, 1..3),
    (3, 1..3) and (5, 1).

    The sweeps (``_property_sweeps``) run first and the draws
    (``_property_draws``) after them, so the first problem is the sweeps'.
    In process, the sweeps take about 0.10 s and the draws 0.13 s with the
    full suite's arguments, and 0.05 s each with the fast suite's (2-vCPU
    VM, Python 3.11.7).
    """
    swept, n_swept = _property_sweeps(ps)
    drawn, n_drawn = _property_draws(random_rounds, ps, q_max)
    problems = swept + drawn
    checked = n_swept + n_drawn
    return not problems, problems[0] if problems else f"{checked} property instances checked"


def run_suite(suite: str = "fast") -> list[Check]:
    """Run the checks of the fast or full suite, in order."""
    if suite not in ("fast", "full"):
        raise ValueError(f"suite must be 'fast' or 'full', got {suite!r}")
    # Each check with its arguments in fast and in full (None: left out).
    # Built per call, so a check swapped on the module is the one that runs.
    table = (
        (check_reference_column, {}, {}),
        (check_yoneda_multiset, {}, {}),
        (check_oracle_concordance_q1, {}, {}),
        (check_series_vs_enumeration, {}, {}),
        (check_calibration, {}, {}),
        (check_presentation_concordance, {"ps": (2, 3)}, {"ps": (2, 3, 5)}),
        (check_ses_identity, {"ps": (2, 3)}, {"ps": (2, 3, 5, 7)}),
        (check_oracle_ses_identity, None, {"ps": (2, 3, 5, 7)}),
        (check_property_suite, {"random_rounds": 2_000, "ps": (2, 3), "q_max": 2}, {}),
        (check_y2_column, {}, {}),
    )
    column = 1 if suite == "fast" else 2
    return [row[0](**row[column]) for row in table if row[column] is not None]
