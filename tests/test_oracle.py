import hashlib
import json
import random
import signal
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

from gl2ext import oracle
from gl2ext.oracle import (
    GradedQuotient,
    QuiverPresentation,
    UnknownPresentationError,
    WorkLimitError,
    builtin_presentation,
    ext_dims,
    quotient_basis,
    reduce_row,
)
from gl2ext.cli import main
from gl2ext.paths import in_omega, omega_basis, theta_basis
from gl2ext.verify import check_oracle_ses_identity

ONE = Fraction(1)


def _free_path_dims(pres, max_degree):
    """Reference quotient dimensions by elimination over every free path.

    The ideal at degree d is spanned by the relations of degree d and the
    one-arrow extensions, on either side, of the ideal at lower degrees;
    each (source, target) block of free paths is row-reduced against it.
    Its cost grows with the number of free paths, so keep inputs small.
    """
    paths = [{(v, v): [()] for v in pres.vertices}]
    pivots = [{}]
    dims = {(v, v, 0): 1 for v in pres.vertices}
    for d in range(1, max_degree + 1):
        layer, rows = {}, []
        for a in pres.arrows:
            dd = d - a.deg
            if dd < 0:
                continue
            for (s, t), plist in paths[dd].items():
                if t == a.src:
                    layer.setdefault((s, a.tgt), []).extend(x + (a.name,) for x in plist)
            for (s, t), piv in pivots[dd].items():
                for row in piv.values():
                    if t == a.src:
                        rows.append(((s, a.tgt), {x + (a.name,): c for x, c in row.items()}))
                    if a.tgt == s:
                        rows.append(((a.src, t), {(a.name,) + x: c for x, c in row.items()}))
        for idx, rel in enumerate(pres.relations):
            rsrc, rtgt, rdeg = pres.signatures[idx]
            if rdeg == d:
                rows.append(((rsrc, rtgt), {x: c for c, x in rel}))
        layer_pivots = {}
        for block, row in rows:
            reduce_row(layer_pivots.setdefault(block, {}), row)
        paths.append(layer)
        pivots.append(layer_pivots)
        for (s, t), plist in layer.items():
            dim = len(plist) - len(layer_pivots.get((s, t), {}))
            if dim:
                dims[(s, t, d)] = dim
    return dims


def test_builtin_shapes():
    y2 = builtin_presentation("Y2_P3")
    assert len(y2.vertices) == 9
    assert {a.deg for a in y2.arrows} == {1, 3}
    om3 = builtin_presentation("OMEGA", 3)
    assert sorted(a.name for a in om3.arrows) == ["x1", "x2", "y1", "y2"]
    assert len(om3.relations) == 2
    c2 = builtin_presentation("C", 2)
    assert len(c2.relations) == 1
    assert c2.relations[0] == [(ONE, ("eta1", "xi1"))]
    with pytest.raises(UnknownPresentationError):
        builtin_presentation("NOPE")
    with pytest.raises(UnknownPresentationError):
        builtin_presentation("OMEGA")
    with pytest.raises(ValueError):
        builtin_presentation("C", 4)


def test_presentation_validation():
    with pytest.raises(ValueError):
        QuiverPresentation(
            "bad",
            ["1", "2"],
            [("a", "1", "2", 1)],
            [[(ONE, ("a",)), (ONE, ("a", "a"))]],  # inhomogeneous
        )
    with pytest.raises(ValueError):
        QuiverPresentation("bad", ["1"], [("a", "1", "9", 1)], [])
    for vertices in (["1", "1"], ["1", "2", "1"], "12", ["1", 2], {"1": 0}):
        with pytest.raises(ValueError, match="distinct strings"):
            QuiverPresentation("bad", vertices, [], [])


def test_presentation_json_round_trip():
    for name, p in (("OMEGA", 3), ("C", 2), ("Y2_P3", None), ("THETA", 5)):
        pres = builtin_presentation(name, p)
        clone = QuiverPresentation.loads(pres.dumps())
        assert clone.vertices == pres.vertices
        assert clone.arrows == pres.arrows
        assert clone.relations == pres.relations
        assert "first traverse a, then b" in pres.dumps()


def test_omega2_dims():
    rep = quotient_basis(builtin_presentation("OMEGA", 2), 4)
    per_degree = Counter()
    for (_, _, d), n in rep.dims.items():
        per_degree[d] += n
    assert dict(per_degree) == {0: 2, 1: 2, 2: 1}
    assert rep.total_dim() == 5
    assert rep.zero_degrees == [3, 4]
    assert rep.stabilized


def test_theta_matches_counts():
    for p in (2, 3, 5):
        rep = quotient_basis(builtin_presentation("THETA", p), 2 * p)
        assert rep.total_dim() == len(theta_basis(p))
    assert quotient_basis(builtin_presentation("THETA", 3), 4).total_dim() == 4


def test_quotient_dims_independent_of_enumeration_order():
    pres = builtin_presentation("C", 3)
    baseline = quotient_basis(pres, 4).dims
    rng = random.Random(0)
    for _ in range(3):
        arrows = [(a.name, a.src, a.tgt, a.deg) for a in pres.arrows]
        rng.shuffle(arrows)
        rels = [list(rel) for rel in pres.relations]
        rng.shuffle(rels)
        shuffled = QuiverPresentation(pres.name, pres.vertices, arrows, rels)
        assert quotient_basis(shuffled, 4).dims == baseline


def test_basis_paths_are_reported():
    rep = quotient_basis(
        builtin_presentation("OMEGA", 2), 2, with_paths=True
    )
    assert rep.basis_paths[("1", "2", 1)] == [("x1",)]
    assert rep.basis_paths[("2", "2", 2)] == [("y1", "x1")]


def test_blowup_guard(monkeypatch):
    monkeypatch.setattr(oracle, "MAX_WORK", 1000)
    with pytest.raises(WorkLimitError):
        quotient_basis(builtin_presentation("Y2_P3"), 8)


def test_blowup_message_names_block_degree_and_size(monkeypatch):
    monkeypatch.setattr(oracle, "MAX_WORK", 1000)
    with pytest.raises(
        WorkLimitError,
        match=r"^degree \d+ has \d+ candidates, \d+ of them in block \('.*', '.*'\): "
        r"\d+ units take the call to \d+, past the limit of 1000 ",
    ):
        GradedQuotient(builtin_presentation("Y2_P3"), max_degree=8)


def test_a_degree_is_spent_before_its_candidates_are_built(monkeypatch):
    # 300 loops: degree 2 has 90,000 candidates, 2.88 M units, refused before
    # any is built; building them would take about 6 MB
    monkeypatch.setattr(oracle, "MAX_WORK", 1_000_000)
    loops = QuiverPresentation("loops", ["1"], [(f"t{i}", "1", "1", 1) for i in range(300)], [])
    tracemalloc.start()
    try:
        with pytest.raises(WorkLimitError, match=r"^degree 2 has 90000 candidates, 90000 of them"):
            GradedQuotient(loops)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_work_counts_candidates_and_rows_per_degree():
    # a free loop keeps one word per degree: one candidate (32) and the degree (32)
    loop = QuiverPresentation("loop", ["1"], [("t", "1", "1", 1)], [])
    assert GradedQuotient(loop, max_degree=10).work == 10 * 64
    # with t^3 = 0, degree 3 has one candidate, one row and no word, and ends the build
    cube = QuiverPresentation("cube", ["1"], [("t", "1", "1", 1)], [[(ONE, ("t", "t", "t"))]])
    for _ in range(2):  # each call counts from zero
        quo = GradedQuotient(cube)
        assert (quo.work, quo.stabilized) == (64 + 64 + 65, True)


def test_words_take_memory_linear_in_their_degree():
    # a free loop to degree 3000 keeps 3000 words of 1 to 3000 arrows;
    # stored whole they would hold 4.5 M arrows
    loop = QuiverPresentation("loop", ["1"], [("t", "1", "1", 1)], [])
    tracemalloc.start()
    try:
        quo = GradedQuotient(loop, max_degree=3000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert quo.word(len(quo.src) - 1) == ("t",) * 3000
    assert peak < 4_000_000


def test_the_zero_degree_list_is_spent_before_it_is_built(monkeypatch):
    # C(2) ends at degree 2 and spends 258 units; listing 4,998 zero degrees would take 19,992
    monkeypatch.setattr(oracle, "MAX_WORK", 1000)
    with pytest.raises(WorkLimitError, match=r"^the report lists 4998 zero degrees up to degree 5000: 19992 "):
        quotient_basis(builtin_presentation("C", 2), 5000)


def test_ext_stops_at_the_budget_naming_vertex_and_stage(monkeypatch):
    # the quotient spends 36,135 units and the resolution to n = 6 about 115,000
    monkeypatch.setattr(oracle, "MAX_WORK", 100_000)
    with pytest.raises(WorkLimitError, match=r"^vertex '\d,\d' at stage \d+: \d+ units take the call to \d+"):
        ext_dims(builtin_presentation("Y2_P3_COMPLETED"), 1000)


def test_a_presentation_and_its_quotient_are_built_in_linear_time():
    # OMEGA(20011) has 20,011 vertices and 40,020 arrows; a lookup in the vertex list
    # per arrow end, or a pass over the arrows per vertex, costs 8 * 10^8 steps
    def stop(signum, frame):
        raise TimeoutError("OMEGA(20011) to degree 1 took more than 5 s")

    previous = signal.signal(signal.SIGALRM, stop)
    signal.alarm(5)
    try:
        quo = GradedQuotient(builtin_presentation("OMEGA", 20011), max_degree=1)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert Counter(quo.deg) == {0: 20011, 1: 2 * 20010}


@pytest.mark.parametrize("name", ["OMEGA", "THETA", "C"])
def test_a_builtin_within_the_budget_is_built(monkeypatch, name):
    # 312,469 is the largest prime whose 2(p - 1) arrows fit: each builder is
    # reached, and stubbed, so that nothing of that size is built here
    for builder in ("_omega_presentation", "_theta_presentation", "_c_presentation"):
        monkeypatch.setattr(oracle, builder, lambda p, builder=builder: (builder, p))
    for p in (100003, 312469):
        assert builtin_presentation(name, p) == (f"_{name.lower()}_presentation", p)
    with pytest.raises(WorkLimitError, match=rf"^{name}\(312509\) has \d+ arrows"):
        builtin_presentation(name, 312509)


def test_a_column_reports_its_own_stabilization():
    pres = builtin_presentation("Y2_P3")
    assert quotient_basis(pres, 11, source="1,1").stabilized
    assert not quotient_basis(pres, 11).stabilized
    assert not GradedQuotient(pres, max_degree=11).stabilized


def test_without_a_source_the_report_flag_is_the_engines():
    cases = [(builtin_presentation(name, p), 2 * p + 2) for name in ("OMEGA", "THETA", "C") for p in (2, 3, 5)]
    cases += [(builtin_presentation(name), 14) for name in ("Y2_P3", "Y2_P3_COMPLETED")]
    for pres, top in cases:
        for degree in range(top + 1):
            want = GradedQuotient(pres, max_degree=degree).stabilized
            assert quotient_basis(pres, degree).stabilized == want, (pres.name, degree)


@pytest.mark.parametrize("p", (7, 11, 13))
def test_strip_quotients_at_larger_p(p):
    om = quotient_basis(builtin_presentation("OMEGA", p), 2 * p)
    th = quotient_basis(builtin_presentation("THETA", p), 2 * p)
    assert om.stabilized and th.stabilized
    for rep, basis in ((om, omega_basis(p)), (th, theta_basis(p))):
        assert rep.dims == dict(Counter((str(b.s), str(b.target), b.degree) for b in basis))
    assert check_oracle_ses_identity(ps=(p,)).ok


def columns_are_cut_from_the_full_build(pres, max_degree):
    """Each vertex's column report against the full build cut at that vertex.

    The cut is the report's reference: its dims, paths and zero degrees are
    the full build's words that start at v, and its ``stabilized`` says that
    no arrow out of such a word leads past ``max_degree``.  A column spends
    no more work than the full build.
    """
    full = GradedQuotient(pres, max_degree=max_degree)
    for v in pres.vertices:
        ids = [i for i, src in enumerate(full.src) if src == v]
        blocks = {}
        for i in ids:
            blocks.setdefault((v, full.tgt[i], full.deg[i]), []).append(full.word(i))
        column = quotient_basis(pres, max_degree, source=v, with_paths=True)
        assert column.dims == {block: len(words) for block, words in blocks.items()}, (pres.name, v)
        assert column.basis_paths == {block: sorted(words) for block, words in blocks.items()}
        assert column.zero_degrees == [d for d in range(1, max_degree + 1) if all(full.deg[i] != d for i in ids)]
        out = full.out_degrees
        stabilized = all(full.deg[i] + e <= max_degree for i in ids for e in out[full.tgt[i]])
        assert column.stabilized == stabilized, (pres.name, v, max_degree)
        assert GradedQuotient(pres, max_degree=max_degree, source=v).work <= full.work


def test_source_filter_is_the_column_of_the_full_report():
    cases = [(builtin_presentation(name, p), 2 * p + 2) for name in ("OMEGA", "THETA", "C") for p in (2, 3, 5, 7)]
    cases += [(builtin_presentation(name), 14) for name in ("Y2_P3", "Y2_P3_COMPLETED")]
    for pres, top in cases:
        for degree in range(top + 1):
            columns_are_cut_from_the_full_build(pres, degree)


# sha256 of ``oracle quotient-dims --max-degree 2p --source v --with-paths``
# (degree 11 for Y2_P3) at every vertex v, recorded while a column was still
# cut from the full build.
COLUMN_DIGESTS = {
    ("Y2_P3", "1,1"): "51638b23e7e199ddf6ab27edc69a8dacd79ec5fef6888328fad357f570ea5e0c",
    ("Y2_P3", "1,2"): "fa7e461a0c30fb0a3ccce17984435321d8a229a5832e52ab7fbbb73ebe240930",
    ("Y2_P3", "1,3"): "1c648aba0cc036f4dbf5e65756eefee3eb67753d7a08c2a41b5e8bc5f71508c0",
    ("Y2_P3", "2,1"): "6588651fdee4e5537ad41a35042d0726552a3c66e6630062ed0d266500f746a5",
    ("Y2_P3", "2,2"): "83ff57b69f07e9a96d8e2663e4809cfda8a170b51f45a17f4f216852e4d5ba44",
    ("Y2_P3", "2,3"): "624f83d38cc89d751df67df57e858671e643a8c56c1468d5d7c3717b2c60f783",
    ("Y2_P3", "3,1"): "fdee0921bb337a0cd0a612e8ab2b30787393fb462dacf5eef1e0324bedfa7d02",
    ("Y2_P3", "3,2"): "57e7e9f5a23a5d55b4e20f5e7b5103fe22c4a86e7dda5ed6b40218c08111d51e",
    ("Y2_P3", "3,3"): "b171d6b15bb48132e571e41cad660616a7e5536b6d6844d899cc33953ea863a5",
    ("OMEGA", "1"): "8335d2c4f299b2de6cbc9551b5c36a455c2666ec979ea25c8205e8675570db31",
    ("OMEGA", "2"): "ebc07281945056cdccaf782b42d628ab88c0a804601685eb8953c218690ca053",
    ("OMEGA", "3"): "6d7ff62802e88be11270f480c30ca8e2c94f026ebfd0ff7467c507b830b0be76",
    ("OMEGA", "4"): "800e0d1dbd3a0cb8b9b934437138559bd7b81a14bdef0e94c1c7ef9f2e1a4117",
    ("OMEGA", "5"): "1c2b3b94e45b5874c6f0bc292e2b0fe3d51d9d6b1b5d4c15bdc8e7cec046d10e",
}


@pytest.mark.parametrize("name, source", list(COLUMN_DIGESTS))
def test_columns_keep_their_bytes(capsys, name, source):
    where = ["--max-degree", "11"] if name == "Y2_P3" else ["--p", "5", "--max-degree", "10"]
    argv = ["oracle", "quotient-dims", "--name", name, *where, "--source", source, "--with-paths"]
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == COLUMN_DIGESTS[name, source]


def test_a_column_reaches_past_the_full_builds_budget():
    # OMEGA(401) to degree 802 is refused by MAX_WORK; its column at vertex 1 is
    # one word per vertex, x1 ... x(v-1) to v, as the model's closed strip says
    p = 401
    column = quotient_basis(builtin_presentation("OMEGA", p), 2 * p, source="1")
    model = Counter(("1", str(1 + a - b), a + b) for a in range(p) for b in range(p) if in_omega(p, 1, a, b))
    assert column.stabilized
    assert column.dims == model


def test_c2_dims_and_ext():
    rep = quotient_basis(builtin_presentation("C", 2), 4)
    per_degree = Counter()
    for (_, _, d), n in rep.dims.items():
        per_degree[d] += n
    assert dict(per_degree) == {0: 2, 1: 2, 2: 1}
    ext = ext_dims(builtin_presentation("C", 2), 3)
    assert ext.dims == {
        ("1", "1", 0): 1,
        ("2", "2", 0): 1,
        ("1", "2", 1): 1,
        ("2", "1", 1): 1,
        ("2", "2", 2): 1,
    }
    assert ext.degree_totals() == {0: 2, 1: 2, 2: 1}
    assert ext.complete == {"1": True, "2": True}


def test_c_ext_table_is_vertex_resolved_strip_count():
    # stronger than the degree-total concordance: the full Ext table of C(p)
    # equals the (source, target, degree) census of the closed strip
    for p in (2, 3):
        ext = ext_dims(builtin_presentation("C", p), 2 * p)
        want = Counter()
        for b in omega_basis(p):
            want[(str(b.s), str(b.target), b.degree)] += 1
        assert ext.dims == dict(want)


def test_omega_ext_recovers_zigzag_subquotient_dims():
    # the two builtins are quadratic duals: Ext degree totals of one give
    # the graded dimensions of the other
    for p in (2, 3):
        ext = ext_dims(builtin_presentation("OMEGA", p), 2 * p)
        rep = quotient_basis(builtin_presentation("C", p), 2 * p)
        per_degree = Counter()
        for (_, _, d), n in rep.dims.items():
            per_degree[d] += n
        assert ext.degree_totals() == dict(per_degree)
        assert all(ext.complete.values())


def _inverse(matrix):
    """The inverse of an invertible square matrix over the rationals, by Gauss-Jordan."""
    size = len(matrix)
    rows = [[Fraction(x) for x in row] + [Fraction(i == j) for j in range(size)] for i, row in enumerate(matrix)]
    for col in range(size):
        pivot = next(r for r in range(col, size) if rows[r][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [x / rows[col][col] for x in rows[col]]
        for r in range(size):
            if r != col:
                rows[r] = [x - rows[r][col] * y for x, y in zip(rows[r], rows[col])]
    return [row[size:] for row in rows]


def test_the_euler_form_of_ext_is_the_inverse_cartan_matrix():
    # C[v][w] counts the basis words from v to w, and E[v][w] is the alternating sum
    # over n of dim Ext^n(L_v, L_w); E = C^-1 once every resolution has ended, whatever
    # its keys and pivots.  The one-way quivers fix the orientation: there E != C^-1
    # transposed.  THETA is left out: its Cartan matrix is singular, its resolutions endless.
    line = [("a", "1", "2", 1), ("b", "2", "3", 1)]
    cases = [(builtin_presentation(name, p), 2 * p) for name in ("C", "OMEGA") for p in (2, 3, 5, 7)]
    cases += [
        (QuiverPresentation("A3", ["1", "2", "3"], line, []), 3),
        (QuiverPresentation("A3, ab = 0", ["1", "2", "3"], line, [[(1, ("a", "b"))]]), 3),
        (
            QuiverPresentation(
                "ab = 2c", ["1", "2", "3"], [("a", "1", "2", 1), ("b", "2", "3", 2), ("c", "1", "3", 3)],
                [[(1, ("a", "b")), (-2, ("c",))]],
            ),
            3,
        ),
    ]
    for pres, max_n in cases:
        index = {v: i for i, v in enumerate(pres.vertices)}
        rep = quotient_basis(pres, 4 * max_n)
        assert rep.stabilized, pres.name
        cartan = [[0] * len(index) for _ in index]
        for (src, tgt, _), dim in rep.dims.items():
            cartan[index[src]][index[tgt]] += dim
        ext = ext_dims(pres, max_n)
        assert all(ext.complete.values()), pres.name
        euler = [[0] * len(index) for _ in index]
        for (v, w, n), dim in ext.dims.items():
            euler[index[v]][index[w]] += (-1) ** n * dim
        assert euler == _inverse(cartan), pres.name


def test_ext_max_n_exhaustion_is_flagged():
    ext = ext_dims(builtin_presentation("C", 2), 1)
    assert ext.complete == {"1": True, "2": False}
    assert ("2", "2", 2) not in ext.dims


def test_ext_semisimple_vanishes():
    pres = QuiverPresentation("semisimple", ["1", "2"], [], [])
    ext = ext_dims(pres, 5)
    assert ext.dims == {("1", "1", 0): 1, ("2", "2", 0): 1}
    assert all(ext.complete.values())


def test_ext_rejects_nonfinite():
    # one loop, no relations: the path algebra is infinite dimensional, and
    # 64 units a degree use up the budget at degree 312,501.  This is the home
    # of the real MAX_WORK: other tests that only need a refusal lower it.
    pres = QuiverPresentation("free-loop", ["1"], [("t", "1", "1", 1)], [])
    with pytest.raises(WorkLimitError, match=r"^degree 312501 has 1 candidates, 1 of them in block \('1', '1'\): 64 "):
        ext_dims(pres, 2)


def test_skipped_degrees_match_direct_elimination():
    # arrow degrees 1 to 19 and relations, so most degrees hold no candidate
    pres = QuiverPresentation(
        "far-apart",
        ["1", "2", "3"],
        [("a", "1", "2", 1), ("e", "2", "2", 7), ("b", "2", "3", 11),
         ("c", "1", "3", 12), ("f", "1", "3", 19), ("d", "3", "1", 2)],
        [
            [(ONE, ("a", "b")), (-ONE, ("c",))],
            [(ONE, ("a", "e", "b")), (-ONE, ("f",))],
            [(ONE, ("b", "d", "a")), (-ONE, ("e", "e"))],
            [(ONE, ("d", "c", "d"))],
        ],
    )
    direct = _free_path_dims(pres, 55)
    assert sorted({d for _, _, d in direct}) == [0, 1, 2, 3, 7, 8, 10, 11, 12, 13, 14, 15,
                                                 18, 19, 20, 21, 22, 23, 25, 26, 32, 33]
    for degree in range(56):
        rep = quotient_basis(pres, degree)
        assert rep.dims == {k: n for k, n in direct.items() if k[2] <= degree}, degree
        # the word d f d of degree 23 ends at 1, where f of degree 19 leaves
        assert rep.stabilized == (degree >= 42), degree
    quo = GradedQuotient(pres)
    assert quo.stabilized and max(quo.deg) == 33


def test_engine_matches_direct_elimination():
    for name, p, deg in (("OMEGA", 3, 6), ("THETA", 3, 4), ("C", 3, 5), ("Y2_P3", None, 6)):
        pres = builtin_presentation(name, p)
        direct = _free_path_dims(pres, deg)
        assert quotient_basis(pres, deg).dims == direct


def _rational_presentation():
    # two parallel pairs with one genuinely rational relation
    return QuiverPresentation(
        "rational",
        ["1", "2", "3"],
        [("a", "1", "2", 1), ("b", "1", "2", 1), ("c", "2", "3", 1), ("d", "2", "3", 1)],
        [
            [(Fraction(1, 2), ("a", "c")), (Fraction(-1, 3), ("b", "d"))],
            [(ONE, ("a", "d"))],
            [(ONE, ("b", "c"))],
        ],
    )


@pytest.mark.parametrize("coeff", ["1e4000000", "1E5", "2.5e-3", "-1e0"])
def test_exponent_coefficients_are_rejected(coeff):
    pres = builtin_presentation("C", 2).to_json_dict()
    pres["relations"][0][0]["coeff"] = coeff
    with pytest.raises(ValueError, match="exponent"):
        QuiverPresentation.from_json_dict(pres)


@pytest.mark.parametrize("coeff", [0.3, 1.0, True, False])
def test_float_and_boolean_coefficients_are_rejected(coeff):
    pres = builtin_presentation("C", 2).to_json_dict()
    pres["relations"][0][0]["coeff"] = coeff
    with pytest.raises(ValueError, match='string such as "0.3"'):
        QuiverPresentation.from_json_dict(pres)


def test_rational_coefficients_quotient_and_ext():
    pres = _rational_presentation()
    rep = quotient_basis(pres, 3)
    assert rep.dims[("1", "3", 2)] == 1  # four paths, three independent relations
    assert rep.total_dim() == 3 + 4 + 1
    quo = GradedQuotient(pres, max_degree=6)
    assert quo.stabilized
    assert rep.dims == _free_path_dims(pres, 3)
    ext = ext_dims(pres, 4)
    # 0 -> P3^3 -> P2^2 -> P1 -> L1 -> 0, checked by hand
    assert ext.dims == {
        ("1", "1", 0): 1,
        ("2", "2", 0): 1,
        ("3", "3", 0): 1,
        ("1", "2", 1): 2,
        ("1", "3", 2): 3,
        ("2", "3", 1): 2,
    }
    assert all(ext.complete.values())


def test_engine_multiplication_is_associative():
    rng = random.Random(1)
    for name, p in (("C", 3), ("Y2_P3_COMPLETED", None)):
        quo = GradedQuotient(builtin_presentation(name, p), max_degree=40)
        ids = list(range(len(quo.src)))

        def mul(vec, idx):
            return quo.mul_vector_by_path(vec, quo.word(idx))

        def combine(vec, idx_mul):
            out = {}
            for b, c in vec.items():
                for b2, c2 in idx_mul(b).items():
                    out[b2] = out.get(b2, Fraction(0)) + c * c2
            return {k: v for k, v in out.items() if v}

        for _ in range(1000):
            x = rng.choice(ids)
            ys = [i for i in ids if quo.src[i] == quo.tgt[x]]
            if not ys:
                continue
            y = rng.choice(ys)
            zs = [i for i in ids if quo.src[i] == quo.tgt[y]]
            if not zs:
                continue
            z = rng.choice(zs)
            left = combine(mul({x: ONE}, y), lambda b: mul({b: ONE}, z))
            right = combine(mul({y: ONE}, z), lambda b: mul({x: ONE}, b))
            assert left == right


def test_relations_annihilate_every_basis_element():
    for name, p in (("C", 3), ("OMEGA", 3), ("Y2_P3", None)):
        pres = builtin_presentation(name, p)
        quo = GradedQuotient(pres, max_degree=40)
        for ridx, rel in enumerate(pres.relations):
            rsrc, _, _ = pres.signatures[ridx]
            for idx in range(len(quo.src)):
                if quo.tgt[idx] != rsrc:
                    continue
                total = {}
                for coeff, path in rel:
                    for b, c in quo.mul_vector_by_path({idx: ONE}, path).items():
                        total[b] = total.get(b, Fraction(0)) + coeff * c
                assert not {k: v for k, v in total.items() if v}


def test_reduce_row_ranks():
    pivots = {}
    assert reduce_row(pivots, {"a": ONE, "b": -ONE}) is not None
    assert reduce_row(pivots, {"b": ONE, "c": -ONE}) is not None
    # dependent row reduces to nothing
    assert reduce_row(pivots, {"a": ONE, "c": -ONE}) is None
    assert len(pivots) == 2


def _builtins():
    yield builtin_presentation("Y2_P3")
    yield builtin_presentation("Y2_P3_COMPLETED")
    for name in ("OMEGA", "THETA", "C"):
        for p in (2, 3, 5, 7):
            yield builtin_presentation(name, p)


def test_coefficients_are_ints_or_fractions_never_floats():
    for pres in [*_builtins(), _rational_presentation()]:
        quo = GradedQuotient(pres, max_degree=40)
        coeffs = [c for image in quo.rmul.values() for c in image.values()]
        assert all(type(c) in (int, Fraction) for c in coeffs), pres.name
        # integral values are stored as ints
        assert not any(type(c) is Fraction and c.denominator == 1 for c in coeffs)
        if pres.name == "rational":
            assert Fraction(3, 2) in coeffs
            assert any(type(c) is Fraction for c in coeffs)
        else:
            assert all(type(c) is int for c in coeffs), pres.name


def test_reduce_row_divides_exactly():
    pivots = {}
    assert reduce_row(pivots, {"a": 4, "b": 2}) == "b"
    assert reduce_row(pivots, {"a": 3, "c": 3}) == "c"
    assert pivots == {"b": {"a": 2, "b": 1}, "c": {"a": 1, "c": 1}}
    assert all(type(c) is int for row in pivots.values() for c in row.values())
    assert reduce_row(pivots, {"a": 2, "d": 3}) == "d"
    assert pivots["d"] == {"a": Fraction(2, 3), "d": 1}
    assert type(pivots["d"]["a"]) is Fraction


def test_normal_words_extend_their_parent_by_one_arrow():
    for pres in [*_builtins(), _rational_presentation()]:
        quo = GradedQuotient(pres, max_degree=40)
        for i, last in enumerate(quo.last):
            if quo.deg[i] == 0:
                assert (quo.parent[i], last, quo.word(i)) == (None, None, ())
                continue
            parent = quo.parent[i]
            assert parent < i
            assert quo.word(i) == quo.word(parent) + (last,)
            arrow = pres.arrow_by_name[last]
            assert (arrow.src, arrow.tgt) == (quo.tgt[parent], quo.tgt[i])
            assert quo.deg[i] == quo.deg[parent] + arrow.deg


def test_y2_completed_ext_degree_totals():
    ext = ext_dims(builtin_presentation("Y2_P3_COMPLETED"), 6)
    assert ext.degree_totals() == {0: 9, 1: 32, 2: 64, 3: 100, 4: 156, 5: 248, 6: 395}


# sha256 of each builtin's dumps() and of its ``oracle ext`` JSON, to n = 2p
# (n = 6, then n = 8, for the Y2 pair), recorded before the line quivers shared
# one builder and the simple became stage 0 of the resolution; p = 11, 13 and
# the Y2 pair at n = 8 were recorded before module vectors took int keys.
BUILTIN_DIGESTS = {
    ("OMEGA", 2): (
        "4b9bc4b739933fde8cf921a3634929219a6d8a60bd567381930d7d3245d08fc6",
        "c6a257d5cad1a4ea21118f8d7f47973341f7df1707904aa12c0fdf7c7ca08b4b",
    ),
    ("OMEGA", 3): (
        "57e662a2ca2ee75c801a1f04ea7de75a4c9804e8414537244150e3b4213a42e2",
        "f2b3f60a97deced7dd3eb171c535909587be158855956a4d92672874d8ea1c53",
    ),
    ("OMEGA", 5): (
        "c4aef87d9306a139aa1e9f49d632c6170c219fbf6db61f2fe8ec2698ddfeb00e",
        "9928e423391d174739251031c9c815b0fee3e783836329106e8e780516560f35",
    ),
    ("OMEGA", 7): (
        "37d1b00e908d554b364d70a6dfb424bed9a228c357f2dba750d2ec4071173268",
        "562de4243f4d073583fb1eee460411f416307650ab458ea7bdf032f62f27f020",
    ),
    ("OMEGA", 11): (
        "aed87b53cce5d7911697aaa40e70780b2aac2249c75c0e68d2f15a3b9e75900c",
        "7c66e87e50c802f1251e79d0a4b294284c7c7f6d1a0e5b552fa57379e6606184",
    ),
    ("OMEGA", 13): (
        "90265ece4e9a871e2923d5b05df3e468fa5e5be6d53a337aa8951abcc762bb1f",
        "a5caca5665093d450dcbafe59c91aebdead40933cf3346ad68be674648693e01",
    ),
    ("THETA", 2): (
        "51d02c0b27a0f3ee89b3d6a32569f4491cab6de96eddb968210ace48ced73770",
        "cdc9e2e46a44f8e2cd51e31299b7a8e5415b94fbb5f9a3c5642efce01206104c",
    ),
    ("THETA", 3): (
        "1592f45e6ebf2b7a69c7df1d164b492f96e5ca5f07558cec0662eb2d2c6e1714",
        "22b4f501d31a03edc211125ea32504c979b0c53ea5ae152c6ce33e9b83acaf37",
    ),
    ("THETA", 5): (
        "e31f04a60cfe9e58bdc667db45213c19d117f52a35d5612e8f99f2c667930a4f",
        "3aad91ec2f69d26dfa9247a8ea1c977d074201b5fee5bf86e8805c60ac9fe312",
    ),
    ("THETA", 7): (
        "427046e2a31f2dba0b24cf0293e30b73a23f11a28dc75be0c3514c3b24e02e34",
        "78ab66784ccc39fe43140afaa8ac6c34d6fe7faf72cdc31e05526f7f9e79d091",
    ),
    ("THETA", 11): (
        "2d4363612eabb8a105ae292eec70818329af33d3cbc6995bb2e11d9c0fcc857d",
        "bb5f1a6267b91d5e0b53ec1b70d7fdafd190a3afa69c16ca58fd37c27e8dbd3c",
    ),
    ("THETA", 13): (
        "c4121675fa92ae820514e2972a4ab026905f3108b9760b8526c72a3aa25556eb",
        "fc58cee176221e46e6b4e2c06acec5bf0b7464e5424bc769d9857b1000cb0897",
    ),
    ("C", 2): (
        "897d4d910dbf385efc516894b049eed654df7a40ae1eaf3df0bd8bb1692ba3e2",
        "6e72c5c45be5d03ea9ca2ef70205492cb73f7ba359acf9ad6a2dc38900c21a06",
    ),
    ("C", 3): (
        "0d981cee4e375faad3049970bb039b19cbddcc9b7c05b01d3ede598e549ffbb2",
        "0a11b1aa5d526c2b4c1885d589f970fdb2f6159bef3c3937617df78e991f1450",
    ),
    ("C", 5): (
        "fc988d2d17ca74e6557fc860b04da0b7a6b87190a2e3ffe299fffb6696c256af",
        "7a2b9af7c47293eb46118fe314284813f49ce3da8048bbbe2f9f2cd472f26f19",
    ),
    ("C", 7): (
        "28e59f47f03852029e7df793c0ad115fcd3ecfb8f66403d69b2c2ab2648f6e85",
        "431c53b7b5e859f08f2a916b0289988487f9d631ef441726be0bbd2f3efa52c0",
    ),
    ("C", 11): (
        "5e88ca92f43fa98ef733b109b93135420d5c495d18efdc3e6b4dff5ba1b287db",
        "4460cadd9feb2a9d15396c1109704077c7a0708d9dafc09d205b76b964e9132e",
    ),
    ("C", 13): (
        "9e4c14fb583970d16aa0d969e01be107782ec86a791ff7172e6d0f59f0b3b955",
        "a5de86f3baf5e0d39e4521198d5646faad5263d03cdc53b8f02ba3ba53200966",
    ),
    ("Y2_P3", None): (
        "8af629ac7a9a3447a4e8816e2bf115b49e396dcd3ba4ff1f7d1a745cd7c2830d",
        "4763756faed9c246b9a2fbae2d95c699c7230a25074c925b22244921e1e0fe67",
        "53ea7dfe16add09d0c506032ca22ca321197edb8fa8de0100e3c23b00c05020b",
    ),
    ("Y2_P3_COMPLETED", None): (
        "6b7c3c683b9dc1d7d71f292d0af52ee44823cb9849b4c8878ee1ec39d79195be",
        "6a5d3d64339cd51a6e33e7df912ef685b4ff44c6a31e689b5217d9fb2d1cea21",
        "a181050f72088506e3890e120faafac552aad810188061202213a29447a0ffcc",
    ),
}


@pytest.mark.parametrize("name, p", list(BUILTIN_DIGESTS))
def test_builtins_keep_their_bytes(name, p):
    pres = builtin_presentation(name, p)
    exts = (ext_dims(pres, n) for n in ((6, 8) if p is None else (2 * p,)))
    texts = (pres.dumps(), *(json.dumps(ext.to_json_dict(), indent=2, sort_keys=True) + "\n" for ext in exts))
    assert tuple(hashlib.sha256(t.encode()).hexdigest() for t in texts) == BUILTIN_DIGESTS[name, p]
