"""Random input to the CLI and its parsers: every answer is exit 0, or exit 2
with one line on stderr; a parser returns or raises ValueError, KeyError or
TypeError."""

import contextlib
import io
import json
import os
import tempfile

import pytest

from gl2ext import oracle
from gl2ext.cli import factor_record, main, tensor_from_record
from gl2ext.oracle import QuiverPresentation

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from test_oracle import columns_are_cut_from_the_full_build  # noqa: E402

VERTICES = ("1", "2", "3")


@st.composite
def presentations(draw):
    """Small presentation JSON, sometimes invalid on purpose.

    The quiver is acyclic apart from at most one loop, so its quotient has
    polynomially many words per degree.  ``oracle ext`` builds an infinite
    quotient until it spends ``oracle.MAX_WORK``, which the test that runs
    ``oracle`` lowers to ``WORK``.  Most relations are homogeneous
    combinations of composable paths; a few are junk.  Arrow names are one
    letter, so a path spelled as one string iterates to the same names.
    """
    vertices = draw(st.lists(st.sampled_from(VERTICES), min_size=1, max_size=3, unique=True))
    degrees = st.sampled_from([1, 1, 1, 2, 3, 0, True, 1.5])
    arrows = []
    for i in range(draw(st.integers(0, 4))):
        src = draw(st.sampled_from(vertices))
        later = [v for v in vertices if v > src] or ["9"]
        tgt = draw(st.sampled_from(later))
        name = draw(st.sampled_from(["abcd"[i]] * 5 + [i]))
        arrows.append({"name": name, "src": src, "tgt": tgt, "deg": draw(degrees)})
    if draw(st.booleans()):
        v = draw(st.sampled_from(vertices))
        arrows.append({"name": "t", "src": v, "tgt": v, "deg": draw(degrees)})
    # composable paths of up to three arrows, grouped by (source, target, degree)
    groups: dict = {}
    walks = [((a["name"],), a["src"], a["tgt"], a["deg"]) for a in arrows]
    for _ in range(3):
        for path, src, at, deg in walks:
            groups.setdefault((src, at, deg), set()).add(path)
        walks = [
            (path + (a["name"],), src, a["tgt"], deg + a["deg"])
            for path, src, at, deg in walks
            for a in arrows
            if a["src"] == at
        ]
    coeffs = st.sampled_from([1, 1, -1, 2, "1/2", "-3/4", 0, "x", "1/0", "1e4000000", float("inf")])
    junk = st.lists(st.sampled_from([a["name"] for a in arrows] + ["zz"]), max_size=3)
    relations = []
    for _ in range(draw(st.integers(0, 3))):
        if groups and draw(st.integers(0, 5)):
            # arrow names may mix strings and integers, which do not compare
            paths = sorted(groups[draw(st.sampled_from(sorted(groups)))], key=repr)
            chosen = draw(st.lists(st.sampled_from(paths), min_size=1, max_size=2, unique=True))
        else:
            chosen = draw(st.lists(junk, max_size=2))
        spell = draw(st.sampled_from([list] * 5 + [lambda path: "".join(map(str, path))]))
        relations.append([{"coeff": draw(coeffs), "path": spell(path)} for path in chosen])
    return {"name": "fuzz", "vertices": vertices, "arrows": arrows, "relations": relations}


def _factor_records():
    small = st.integers(-1, 4)
    factor = st.fixed_dictionaries(
        {"s": small, "alpha": small, "beta": small, "n": small, "h": small}
    )
    return st.fixed_dictionaries({"factors": st.lists(factor, min_size=1, max_size=2), "z": small})


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_contract(code, out, err):
    assert code in (0, 2), err
    assert "Traceback" not in err
    if code == 2:
        assert out == ""
        assert len(err.splitlines()) == 1


def _well_typed(payload) -> bool:
    """What a presentation that loads has: string arrow names and ends, integer
    (not boolean) degrees, and every path a list of strings."""
    arrows = all(
        all(type(a[k]) is str for k in ("name", "src", "tgt")) and type(a["deg"]) is int
        for a in payload["arrows"]
    )
    paths = (t["path"] for rel in payload["relations"] for t in rel)
    return arrows and all(type(path) is list and all(type(n) is str for n in path) for path in paths)


FUZZ = settings(max_examples=80, deadline=None, derandomize=True, database=None)
# the oracle test's work budget: its finite quotients spend at most 165 units,
# and a lone loop is refused at degree 157, where the real budget
# (test_oracle.py::test_ext_rejects_nonfinite) runs it to degree 312,501
WORK = 10_000


@FUZZ
@given(presentations(), st.integers(0, 3), st.integers(0, 4))
def test_oracle_commands_on_random_presentations(payload, max_n, max_degree):
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "MAX_WORK", WORK)
        path = os.path.join(tmp, "pres.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        for argv in (
            ["oracle", "ext", "--presentation", path, "--max-n", str(max_n)],
            ["oracle", "quotient-dims", "--presentation", path, "--max-degree", str(max_degree)],
        ):
            code, out, err = _run(argv)
            _assert_contract(code, out, err)
            assert code != 0 or _well_typed(payload)


@settings(FUZZ, max_examples=300)  # about one presentation in five loads
@given(presentations(), st.integers(0, 4))
def test_a_column_is_the_full_build_cut_at_its_source(payload, max_degree):
    # test_oracle.py::test_source_filter_is_the_column_of_the_full_report on random quivers
    try:
        pres = QuiverPresentation.from_json_dict(payload)
    except (ValueError, KeyError, TypeError):
        return
    columns_are_cut_from_the_full_build(pres, max_degree)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    | st.sampled_from(["1/0", "0/0", "-", "1/2", "1", "a0", "1e4000000"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=12,
)


@st.composite
def _presentation_texts(draw):
    """JSON text: a presentation with up to three nodes replaced, or any JSON value."""
    if draw(st.integers(0, 3)) == 0:
        return json.dumps(draw(JSON_VALUES))
    payload = draw(presentations())
    for _ in range(draw(st.integers(0, 3))):
        parent, key, node = None, None, payload
        while isinstance(node, (dict, list)) and node and draw(st.integers(0, 3)):
            key = draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
            parent, node = node, node[key]
        if parent is None:
            payload = draw(JSON_VALUES)
        else:
            parent[key] = draw(JSON_VALUES)
    return json.dumps(payload)


@settings(FUZZ, max_examples=300)  # parsing alone is cheap
@given(_presentation_texts())
def test_presentation_loads_returns_or_raises_a_value_error(text):
    try:
        pres = QuiverPresentation.loads(text)
    except (ValueError, KeyError, TypeError):
        return
    assert isinstance(pres, QuiverPresentation)
    assert _well_typed(json.loads(text))


@FUZZ
@given(st.sampled_from(["2", "3"]), _factor_records(), _factor_records())
def test_multiply_on_random_records(p, a, b):
    _assert_contract(*_run(["multiply", "--p", p, json.dumps(a), json.dumps(b)]))


FIELDS = ("s", "alpha", "beta", "n", "h")


@st.composite
def _records(draw):
    """An operand record with integer fields, then up to two fields replaced or dropped."""
    integer = st.integers(-2, 4)
    junk = st.one_of(st.booleans(), st.floats(-2, 4), st.text(max_size=2), st.none(), st.lists(integer, max_size=1))
    factor = st.fixed_dictionaries({k: integer for k in FIELDS})
    rec = {"factors": draw(st.lists(factor, max_size=3)), "z": draw(integer)}
    spots = [(rec, "factors"), (rec, "z")] + [(f, k) for f in rec["factors"] for k in FIELDS]
    for target, key in draw(st.lists(st.sampled_from(spots), max_size=2)):
        if draw(st.booleans()):
            target[key] = draw(junk)
        else:
            target.pop(key, None)
    return draw(st.sampled_from([rec, [rec], json.dumps(rec)]))


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


@FUZZ
@given(_records())
def test_tensor_from_record_takes_only_integer_fields(rec):
    well_formed = (
        isinstance(rec, dict)
        and _is_int(rec.get("z"))
        and isinstance(rec.get("factors"), list)
        and len(rec["factors"]) >= 1
        and all(isinstance(f, dict) and all(_is_int(f.get(k)) for k in FIELDS) for f in rec["factors"])
    )
    try:
        m = tensor_from_record(rec)
    except (KeyError, TypeError, ValueError):
        assert not well_formed
        return
    assert well_formed
    assert m.z == rec["z"]
    assert [factor_record(f) for f in m.factors] == [{k: f[k] for k in FIELDS} for f in rec["factors"]]
