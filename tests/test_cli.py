import contextlib
import csv
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys
import tracemalloc

import pytest

import gl2ext
from gl2ext import cli, oracle, series, tower, verify
from gl2ext.cli import (
    basis_record,
    factor_from_record,
    factor_record,
    main,
    tensor_from_record,
)
from gl2ext.lambda_basis import LambdaMonomial
from gl2ext.paths import PathMonomial
from gl2ext.tower import enumerate_weight_zero


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_basis_p2_q1(capsys):
    code, out, _ = run(capsys, "basis", "--p", "2", "--q", "1")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["basis"]) == 5
    assert [rec["z"] for rec in payload["basis"]] == [0, 0, 1, 1, 2]
    assert all(rec["yoneda"] == rec["z"] for rec in payload["basis"])


def test_basis_left_filter_gives_reference_column(capsys):
    code, out, _ = run(capsys, "basis", "--p", "3", "--q", "2", "--left", "1,1")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["basis"]) == 15
    assert sorted(r["z"] for r in payload["basis"]) == [
        0, 1, 1, 2, 2, 2, 3, 3, 4, 4, 5, 5, 6, 7, 8,
    ]


def test_basis_rejects_composite_p(capsys):
    code, _, err = run(capsys, "basis", "--p", "4", "--q", "1")
    assert code == 2
    assert "prime" in err


def test_basis_rejects_bad_left_length(capsys):
    code, _, _ = run(capsys, "basis", "--p", "2", "--q", "2", "--left", "1")
    assert code == 2


def test_byte_identical_reruns(capsys):
    args = ("ext-table", "--p", "3", "--q", "2", "--format", "csv")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    header = out1.splitlines()[0]
    assert header == "left_tuple,right_tuple,n,dim"


def test_ext_table_diagonal_total(capsys):
    code, out, _ = run(
        capsys, "ext-table", "--p", "2", "--q", "1", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert sum(row["dim"] for row in payload["table"]) == 5


def test_ext_table_left_column_counts(capsys):
    code, out, _ = run(
        capsys, "ext-table", "--p", "3", "--q", "2", "--left", "1,1"
    )
    payload = json.loads(out)
    by_degree = {}
    for row in payload["table"]:
        by_degree[row["n"]] = by_degree.get(row["n"], 0) + row["dim"]
    assert by_degree == {0: 1, 1: 2, 2: 3, 3: 2, 4: 2, 5: 2, 6: 1, 7: 1, 8: 1}


def test_hilbert(capsys):
    code, out, _ = run(capsys, "hilbert", "--p", "2", "--q", "1")
    assert code == 0
    assert json.loads(out)["dims"] == {"0": 2, "1": 2, "2": 1}


def test_multiply(capsys):
    rec = json.dumps(
        {
            "factors": [
                {"s": 1, "alpha": 0, "beta": 0, "n": 0, "h": 0},
                {"s": 1, "alpha": 0, "beta": 0, "n": 0, "h": 1},
            ],
            "z": 0,
        }
    )
    other = json.dumps(
        {
            "factors": [
                {"s": 1, "alpha": 1, "beta": 0, "n": 0, "h": 0},
                {"s": 1, "alpha": 0, "beta": 0, "n": 0, "h": 0},
            ],
            "z": 0,
        }
    )
    code, out, _ = run(capsys, "multiply", "--p", "2", rec, other)
    assert code == 0
    payload = json.loads(out)
    assert payload["sign"] == -1
    assert payload["factors"][0] == {"s": 1, "alpha": 1, "beta": 0, "n": 0, "h": 0}
    # zero product
    dead = json.dumps(
        {"factors": [{"s": 2, "alpha": 0, "beta": 0, "n": 0, "h": 0}], "z": 0}
    )
    one = json.dumps(
        {"factors": [{"s": 1, "alpha": 0, "beta": 0, "n": 0, "h": 0}], "z": 0}
    )
    code, out, _ = run(capsys, "multiply", "--p", "2", dead, one)
    assert code == 0
    assert json.loads(out) == {"zero": True}


def test_oracle_quotient_dims(capsys):
    code, out, _ = run(
        capsys,
        "oracle", "quotient-dims", "--name", "OMEGA", "--p", "2",
        "--max-degree", "4",
    )
    assert code == 0
    payload = json.loads(out)
    assert sum(b["dim"] for b in payload["blocks"]) == 5
    assert payload["zero_degrees"] == [3, 4]
    assert "first traverse a, then b" in payload["convention"]


def test_oracle_quotient_dims_from_file(tmp_path, capsys):
    from gl2ext.oracle import builtin_presentation

    path = tmp_path / "c2.json"
    path.write_text(builtin_presentation("C", 2).dumps(), encoding="utf-8")
    code, out, _ = run(
        capsys,
        "oracle", "quotient-dims", "--presentation", str(path),
        "--max-degree", "3", "--format", "csv",
    )
    assert code == 0
    assert out.splitlines()[0] == "source,target,degree,dim"
    assert len(out.splitlines()) == 6  # header + five blocks


def test_oracle_ext(capsys):
    code, out, _ = run(
        capsys, "oracle", "ext", "--name", "C", "--p", "2", "--max-n", "3"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["complete"] == {"1": True, "2": True}
    totals = {}
    for row in payload["dims"]:
        totals[row["n"]] = totals.get(row["n"], 0) + row["dim"]
    assert totals == {0: 2, 1: 2, 2: 1}


def test_oracle_with_paths_flag(capsys):
    code, out, _ = run(
        capsys,
        "oracle", "quotient-dims", "--name", "OMEGA", "--p", "2",
        "--max-degree", "2", "--with-paths",
    )
    assert code == 0
    payload = json.loads(out)
    paths = {
        (b["source"], b["target"], b["degree"]): b["paths"]
        for b in payload["basis_paths"]
    }
    assert paths[("2", "2", 2)] == [["y1", "x1"]]


def test_oracle_builtin_needs_p(capsys):
    code, _, err = run(
        capsys, "oracle", "quotient-dims", "--name", "OMEGA", "--max-degree", "2"
    )
    assert code == 2
    assert "prime" in err


def test_oracle_requires_exactly_one_source(capsys):
    code, _, _ = run(capsys, "oracle", "ext", "--max-n", "2")
    assert code == 2
    code, _, _ = run(
        capsys,
        "oracle", "ext", "--name", "C", "--p", "2",
        "--presentation", "x.json", "--max-n", "2",
    )
    assert code == 2


def _decimal_presentation(coeff) -> dict:
    """Arrows a, b from 1 to 2 with relations coeff·a − b and (3/10)·a − b."""
    return {
        "vertices": ["1", "2"],
        "arrows": [{"name": x, "src": "1", "tgt": "2", "deg": 1} for x in ("a", "b")],
        "relations": [
            [{"coeff": c, "path": ["a"]}, {"coeff": -1, "path": ["b"]}] for c in (coeff, "3/10")
        ],
    }


def test_a_decimal_string_coefficient_is_its_exact_value(tmp_path, capsys):
    """"0.3" is 3/10, so the two relations agree and leave one of the two arrows."""
    path = tmp_path / "decimal.json"
    path.write_text(json.dumps(_decimal_presentation("0.3")), encoding="utf-8")
    code, out, _ = run(capsys, "oracle", "quotient-dims", "--presentation", str(path), "--max-degree", "1")
    assert code == 0
    blocks = {(b["source"], b["target"], b["degree"]): b["dim"] for b in json.loads(out)["blocks"]}
    assert blocks[("1", "2", 1)] == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("oracle", "quotient-dims", "--name", "OMEGA", "--p", "3", "--max-degree", "-1"),
        ("oracle", "ext", "--presentation", "{missing}", "--max-n", "2"),
        ("oracle", "ext", "--presentation", "{bad_endpoint}", "--max-n", "2"),
        ("oracle", "ext", "--presentation", "{not_an_object}", "--max-n", "2"),
        ("oracle", "ext", "--presentation", "{text_degree}", "--max-n", "2"),
        ("hilbert", "--p", "2", "--q", "1", "--max-degree", "-1"),
        ("oracle", "ext", "--name", "C", "--p", "2", "--max-n", "-1"),
        ("oracle", "ext", "--presentation", "{free_loop}", "--max-n", "2"),
        ("oracle", "quotient-dims", "--presentation", "{free_loop}", "--max-degree", "1000000"),
        ("oracle", "quotient-dims", "--presentation", "{ten_loops}", "--max-degree", "7"),
        ("oracle", "quotient-dims", "--name", "C", "--p", "2", "--max-degree", "1000000000"),
        ("multiply", "--p", "2", "{bad_factor}", "{unit}"),
        ("multiply", "--p", "2", "{unit}", "{negative_z}"),
        ("multiply", "--p", "2", "{unit}", "{float_z}"),
        ("multiply", "--p", "2", "{bool_s}", "{unit}"),
        ("multiply", "--p", "2", "{float_alpha}", "{unit}"),
        ("multiply", "--p", "2", "{string_s}", "{unit}"),
        ("multiply", "--p", "2", "{no_factors}", "{no_factors}"),
        ("basis", "--p", "3", "--q", "4", "--left", "1"),
        ("ext-table", "--p", "3", "--q", "4", "--left", "x"),
        ("basis", "--p", "3", "--q", "2", "--left", "9,9"),
        ("ext-table", "--p", "3", "--q", "2", "--right", "0,0"),
        ("basis", "--p", "3", "--q", "2", "--right", "4,1"),
        ("ext-table", "--p", "3", "--q", "2", "--variant", "printed"),
        ("hilbert", "--p", "2", "--q", "1", "--variant", "corrected"),
        ("basis", "--p", "3", "--q", "2", "--left", ""),
        ("multiply", "--p", "2", "--format", "csv", "{unit}", "{unit}"),
        ("oracle", "quotient-dims", "--name", "OMEGA", "--p", "3", "--max-degree", "3",
         "--format", "csv", "--with-paths"),
        ("oracle", "ext", "--presentation", "{exponent}", "--max-n", "2"),
        ("oracle", "ext", "--presentation", "{repeated_vertex}", "--max-n", "2"),
        ("oracle", "ext", "--presentation", "{repeated_arrow_end}", "--max-n", "2"),
        ("oracle", "ext", "--presentation", "{vertex_string}", "--max-n", "2"),
        ("oracle", "ext", "--presentation", "{float_coeff}", "--max-n", "2"),
        ("oracle", "quotient-dims", "--presentation", "{bool_coeff}", "--max-degree", "2"),
        ("oracle", "quotient-dims", "--presentation", "{deep}", "--max-degree", "2"),
        ("oracle", "ext", "--presentation", "{deep}", "--max-n", "2"),
        ("multiply", "--p", "2", "{deep_operand}", "{unit}"),
        ("oracle", "ext", "--presentation", "{bool_degree}", "--max-n", "2"),
        ("oracle", "quotient-dims", "--presentation", "{float_degree}", "--max-degree", "2"),
        ("oracle", "ext", "--presentation", "{float_degree}", "--max-n", "2"),
        ("oracle", "ext", "--presentation", "{int_name}", "--max-n", "2"),
        ("oracle", "ext", "--presentation", "{string_path}", "--max-n", "2"),
        ("oracle", "ext", "--presentation", "{object_path}", "--max-n", "2"),
        ("oracle", "ext", "--presentation", "{newline_name}", "--max-n", "2"),
        ("oracle", "ext", "--presentation", "{newline_endpoint}", "--max-n", "2"),
        ("oracle", "ext", "--presentation", "{line}", "--p", "5", "--max-n", "2"),
        ("basis", "--p", "2", "--q", "8"),
        ("ext-table", "--p", "2", "--q", "8"),
    ],
    ids=[
        "negative-max-degree",
        "missing-file",
        "bad-endpoint",
        "not-an-object",
        "text-degree",
        "hilbert-negative",
        "negative-max-n",
        "ext-does-not-stabilize",
        "quotient-does-not-stabilize",
        "ten-loops-refused-before-building",
        "zero-degrees-refused-before-listing",
        "multiply-invalid-factor",
        "multiply-negative-z",
        "multiply-float-z",
        "multiply-bool-field",
        "multiply-float-field",
        "multiply-string-field",
        "multiply-no-factors",
        "left-wrong-length",
        "left-not-integers",
        "left-above-p",
        "right-below-1",
        "right-above-p",
        "variant-printed",
        "variant-corrected",
        "left-empty",
        "multiply-csv",
        "with-paths-csv",
        "exponent-coefficient",
        "repeated-vertex",
        "repeated-arrow-end",
        "vertices-as-one-string",
        "float-coefficient",
        "boolean-coefficient",
        "deep-presentation-quotient",
        "deep-presentation-ext",
        "deep-multiply-operand",
        "boolean-degree",
        "float-degree-quotient",
        "float-degree-ext",
        "integer-arrow-name",
        "path-as-string",
        "path-as-object",
        "newline-in-presentation-name",
        "newline-in-arrow-name",
        "p-with-presentation",
        "basis-past-the-walk-limit",
        "ext-table-past-the-walk-limit",
    ],
)
def test_bad_input_is_a_one_line_usage_error(tmp_path, capsys, argv):
    arrow = {"name": "a", "src": "1", "tgt": "1", "deg": 1}
    line = {"vertices": ["1", "2"], "arrows": [{**arrow, "tgt": "2"}], "relations": []}
    path_of_two = {  # a: 1 -> 2, b: 2 -> 3, and the relation ab = 0 with its path spelled wrong
        "vertices": ["1", "2", "3"],
        "arrows": [{**arrow, "tgt": "2"}, {"name": "b", "src": "2", "tgt": "3", "deg": 1}],
    }
    payloads = {
        "line": line,  # a valid presentation
        "bad_endpoint": {"vertices": ["1"], "arrows": [{**arrow, "tgt": "9"}], "relations": []},
        "text_degree": {"vertices": ["1"], "arrows": [{**arrow, "deg": "x"}], "relations": []},
        "not_an_object": [],
        "exponent": {
            "vertices": ["1"],
            "arrows": [arrow],
            "relations": [[{"coeff": "1e4000000", "path": ["a", "a"]}]],
        },
        "repeated_vertex": {"vertices": ["1", "1"], "arrows": [], "relations": []},
        "repeated_arrow_end": {
            "vertices": ["1", "2", "1"],
            "arrows": [{**arrow, "tgt": "2"}],
            "relations": [],
        },
        "vertex_string": {"vertices": "12", "arrows": [], "relations": []},
        "float_coeff": _decimal_presentation(0.3),
        "bool_coeff": _decimal_presentation(True),
        "bool_degree": {**line, "arrows": [{**arrow, "tgt": "2", "deg": True}]},
        "float_degree": {**line, "arrows": [{**arrow, "tgt": "2", "deg": 1.5}]},
        "int_name": {**line, "arrows": [{**arrow, "tgt": "2", "name": 1}]},
        "string_path": {**path_of_two, "relations": [[{"coeff": 1, "path": "ab"}]]},
        "object_path": {**path_of_two, "relations": [[{"coeff": 1, "path": {"a": 1, "b": 2}}]]},
        "newline_name": {**line, "name": "x\ny", "arrows": [arrow]},  # a free loop
        "newline_endpoint": {**line, "arrows": [{**arrow, "name": "a\nb", "tgt": "9"}]},
        "free_loop": {  # one loop, no relations: the quotient never stabilizes
            "vertices": ["a"],
            "arrows": [{"name": "x", "src": "a", "tgt": "a", "deg": 1}],
            "relations": [],
        },
        "ten_loops": {  # 10^d words at degree d: degree 6 is refused before it is built
            "vertices": ["a"],
            "arrows": [{"name": f"x{i}", "src": "a", "tgt": "a", "deg": 1} for i in range(10)],
            "relations": [],
        },
    }
    unit = {"s": 1, "alpha": 0, "beta": 0, "n": 0, "h": 0}
    files = {
        "missing": str(tmp_path / "missing.json"),
        "unit": json.dumps({"factors": [unit], "z": 0}),
        "bad_factor": json.dumps({"factors": [{**unit, "s": 9}], "z": 0}),  # s=9 at p=2
        "negative_z": json.dumps({"factors": [unit], "z": -1}),
        "float_z": json.dumps({"factors": [unit], "z": 1.7}),
        "bool_s": json.dumps({"factors": [{**unit, "s": True}], "z": 0}),
        "float_alpha": json.dumps({"factors": [{**unit, "alpha": 0.9}], "z": 0}),
        "string_s": json.dumps({"factors": [{**unit, "s": "1"}], "z": 0}),
        "no_factors": json.dumps({"factors": [], "z": 0}),
    }
    for key, payload in payloads.items():
        path = tmp_path / f"{key}.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        files[key] = str(path)
    files["deep"] = str(tmp_path / "deep.json")  # nested past the recursion limit
    pathlib.Path(files["deep"]).write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    files["deep_operand"] = "[" * 50_000 + "]" * 50_000
    code, out, err = run(capsys, *(arg.format(**files) for arg in argv))
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1


def test_a_long_arrow_ends_a_finite_quotient(tmp_path, capsys):
    # one arrow 1 -> 2 of degree 40: the quotient ends at degree 40
    path = tmp_path / "long_arrow.json"
    arrow = {"name": "a", "src": "1", "tgt": "2", "deg": 40}
    path.write_text(json.dumps({"vertices": ["1", "2"], "arrows": [arrow], "relations": []}))
    code, out, err = run(capsys, "oracle", "ext", "--presentation", str(path), "--max-n", "3")
    assert (code, err) == (0, "")
    ext = json.loads(out)
    assert {"from": "1", "to": "2", "n": 1, "dim": 1} in ext["dims"]
    assert ext["complete"] == {"1": True, "2": True}
    for max_degree, stabilized in (("39", False), ("40", True), ("45", True)):
        code, out, _ = run(capsys, "oracle", "quotient-dims", "--presentation", str(path), "--max-degree", max_degree)
        assert (code, json.loads(out)["stabilized"]) == (0, stabilized)


def test_vertex_filters_are_checked_before_any_enumeration(capsys, monkeypatch):
    def walk(*args):
        raise AssertionError("the weight-zero chains were walked")

    monkeypatch.setattr(tower, "_chains", walk)
    for argv in (
        ("basis", "--p", "3", "--q", "4", "--left", "1"),
        ("basis", "--p", "3", "--q", "4", "--left", "1,1,1,1", "--right", "0,1,1,1"),
        ("ext-table", "--p", "3", "--q", "4", "--right", "x"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1


def test_vertex_filters_accept_the_whole_vertex_range(capsys):
    for flag in ("--left", "--right"):
        for vertex in (1, 3):
            code, out, _ = run(capsys, "basis", "--p", "3", "--q", "1", flag, str(vertex))
            assert code == 0
            assert json.loads(out)["basis"], (flag, vertex)


UNIT = json.dumps({"factors": [{"s": 1, "alpha": 0, "beta": 0, "n": 0, "h": 0}], "z": 0})


def test_json_only_options_are_checked_before_any_work(capsys, monkeypatch):
    def work(*args, **kwargs):
        raise AssertionError("work began before the options were checked")

    monkeypatch.setattr(oracle, "GradedQuotient", work)
    monkeypatch.setattr(tower, "tensor_mult", work)
    for argv in (
        ("multiply", "--p", "2", "--format", "csv", UNIT, UNIT),
        ("oracle", "quotient-dims", "--name", "OMEGA", "--p", "3", "--max-degree", "3",
         "--format", "csv", "--with-paths"),
    ):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1


# sha256 of the stdout of each oracle operation of the benchmark: a change
# to the elimination must not change its answers by a byte.
ORACLE_DIGESTS = {
    "oracle quotient-dims --name OMEGA --p 7 --max-degree 14":
        "04c00c0501b493c513a879f81056dd17e112f222947fbcc479caece900819eb9",
    "oracle quotient-dims --name THETA --p 7 --max-degree 14":
        "91a3715a8d7ffb1ad9989a611e2596971da9e4a421cb40aa0dfe58e0b61256a8",
    "oracle quotient-dims --name Y2_P3 --source 1,1 --max-degree 11":
        "76e432c48b93c283b32c4915d4c715a23d172cd538b3ae5bb0a2617f7bad161b",
    "oracle quotient-dims --name OMEGA --p 5 --max-degree 10 --with-paths":
        "e4f4dcb1a9876382afa661d7f6c41dda7c14cea8355778da473367886555890d",
    "oracle ext --name C --p 13 --max-n 25":
        "8a1c83b7c140ee0c42a4dcb336bb9f77d395ef874f97f74b35f5839784647e52",
    "oracle ext --name Y2_P3_COMPLETED --max-n 6":
        "6a5d3d64339cd51a6e33e7df912ef685b4ff44c6a31e689b5217d9fb2d1cea21",
    "oracle ext --name OMEGA --p 7 --max-n 4":
        "f7457f3f50e6e72d18d094d458c0e2d1f3d2701b6e28756ca384364d836e2b4e",
}


@pytest.mark.parametrize("command", sorted(ORACLE_DIGESTS))
def test_oracle_answers_keep_their_bytes(capsys, command):
    code, out, err = run(capsys, *command.split())
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == ORACLE_DIGESTS[command]


@pytest.mark.parametrize(
    "argv",
    [
        ("basis", "--p", "3", "--q", "2"),
        ("basis", "--p", "3", "--q", "2", "--left", "1,1", "--format", "csv"),
        ("basis", "--p", "3", "--q", "2", "--right", "2,2"),
        ("ext-table", "--p", "3", "--q", "2"),
        ("ext-table", "--p", "3", "--q", "2", "--format", "csv"),
        ("ext-table", "--p", "3", "--q", "2", "--left", "1,1", "--right", "2,2"),
        ("ext-table", "--p", "3", "--q", "2", "--left", "3,3", "--format", "csv"),
        ("hilbert", "--p", "3", "--q", "2"),
        ("hilbert", "--p", "3", "--q", "2", "--format", "csv"),
        ("multiply", "--p", "2", UNIT, UNIT),
        ("oracle", "quotient-dims", "--name", "OMEGA", "--p", "3", "--max-degree", "4", "--with-paths"),
        ("oracle", "quotient-dims", "--name", "Y2_P3", "--source", "1,1", "--max-degree", "5", "--format", "csv"),
        ("oracle", "ext", "--name", "C", "--p", "3", "--max-n", "3"),
        ("oracle", "ext", "--name", "C", "--p", "3", "--max-n", "3", "--format", "csv"),
        ("verify", "--suite", "fast", "--format", "json"),
    ],
)
def test_streamed_output_is_the_one_shot_encoding(capsys, monkeypatch, argv):
    """Any batch size writes what json.dumps or one csv.writer over a StringIO writes."""
    code, out, _ = run(capsys, *argv)
    assert code == 0
    monkeypatch.setattr(cli, "WRITE_BATCH", 3)
    assert run(capsys, *argv) == (0, out, "")
    if "csv" in argv:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(csv.reader(io.StringIO(out)))
        assert out == buf.getvalue()
    else:
        assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("batch", [1, 2, 7, cli.WRITE_BATCH])
def test_emitters_match_the_one_shot_encoders(capsys, monkeypatch, batch):
    monkeypatch.setattr(cli, "WRITE_BATCH", batch)
    payload = {"b": [], "a": {"z": [1, {"y": None, "x": True}, {}], "\u00e9": '"q"'}, "c": -3}
    cli._emit_json(payload)
    assert capsys.readouterr().out == json.dumps(payload, indent=2, sort_keys=True) + "\n"
    rest = {"b": [1], "c": {"x": "y\nz"}}
    for items in ([], [{}], [payload, [], "a\nb", {"k": [[]]}] * 3):
        cli._emit_json_list("a", iter(items), rest)
        want = json.dumps({"a": items, **rest}, indent=2, sort_keys=True) + "\n"
        assert capsys.readouterr().out == want
    for rows in ([], [[1, "a,b"], ['say "x"', 2]], [[i, -i] for i in range(20)]):
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["h1", "h2"])
        writer.writerows(rows)
        cli._emit_csv(["h1", "h2"], iter(rows))
        assert capsys.readouterr().out == buf.getvalue()


def _child_env(**extra) -> dict:
    """The environment of a ``python -m gl2ext`` child that imports this gl2ext."""
    src = os.path.dirname(os.path.dirname(gl2ext.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])), **extra)


@pytest.mark.parametrize(
    "argv",
    [
        ("basis", "--p", "2", "--q", "7"),
        ("ext-table", "--p", "3", "--q", "5"),
        ("oracle", "quotient-dims", "--name", "NOPE", "--p", "3", "--max-degree", "3"),
        ("oracle", "ext", "--presentation", "{missing}", "--max-n", "2"),
        ("hilbert", "--p", "4", "--q", "1"),
    ],
    ids=["basis-walk-limit", "ext-table-walk-limit", "unknown-name", "missing-file", "p-not-prime"],
)
def test_a_child_reports_bad_input_in_one_line(tmp_path, argv):
    # in this process every layer module has already run; a child meets the
    # limit errors of modules that the CLI runs only on first use
    argv = [arg.format(missing=tmp_path / "missing.json") for arg in argv]
    proc = subprocess.run([sys.executable, "-m", "gl2ext", *argv], capture_output=True, text=True, env=_child_env())
    assert (proc.returncode, proc.stdout, len(proc.stderr.splitlines())) == (2, "", 1)


@pytest.mark.parametrize("unbuffered", ["1", ""])
def test_closed_pipe_ends_the_run_quietly(unbuffered):
    # 2.6 MB of output, far more than a pipe holds, so the child must write
    # into the closed pipe
    env = _child_env(PYTHONUNBUFFERED=unbuffered)
    proc = subprocess.Popen(
        [sys.executable, "-m", "gl2ext", "basis", "--p", "5", "--q", "2"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    try:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 0
    finally:
        proc.kill()
        proc.wait()
    assert err == b""


class _Discard(io.TextIOBase):
    def write(self, text):
        return len(text)


# tracemalloc peaks of the same calls when the answer was listed, encoded to
# one string and then written
LISTED_PEAK_MB = {
    ("basis", "--p", "5", "--q", "2"): 27.76,
    ("ext-table", "--p", "3", "--q", "3"): 16.37,
}


def _peak_mb(call):
    """``call()``, its stdout discarded; its result and its tracemalloc peak in MB."""
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        with contextlib.redirect_stdout(_Discard()):
            result = call()
        return result, tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("argv", sorted(LISTED_PEAK_MB))
def test_model_queries_peak_at_half_the_listed_answer(argv):
    code, peak_mb = _peak_mb(lambda: main(list(argv)))
    assert code == 0
    assert peak_mb <= LISTED_PEAK_MB[argv] / 2


def test_basis_holds_its_elements_and_one_write_batch():
    # 10,456 elements: 1.5 MB listed, and 11.5 MB with a record built for each
    _, listed_mb = _peak_mb(lambda: enumerate_weight_zero(3, 3))
    code, peak_mb = _peak_mb(lambda: main(["basis", "--p", "3", "--q", "3"]))
    assert code == 0
    assert peak_mb <= listed_mb + 2  # one batch of pieces takes about 1.3 MB


def test_non_integer_argument_is_named_as_such(capsys):
    for argv in (("--p", "x", "--q", "1"), ("--p", "2", "--q", "1", "--max-degree", "x")):
        code, out, err = run(capsys, "hilbert", *argv)
        assert (code, out) == (2, "")
        assert "must be a non-negative integer, got 'x'" in err


def _failing_checks_with(capsys, monkeypatch, name, p, relations):
    """The failing (name, detail) checks of ``verify --suite fast`` when the builtin
    ``name``, at ``p`` unless p is None, has the relations ``relations(pres.relations)``."""
    builtin = oracle.builtin_presentation

    def corrupted(n, q=None):
        pres = builtin(n, q)
        if n != name or p not in (None, q):
            return pres
        return oracle.QuiverPresentation(pres.name, pres.vertices, pres.arrows, relations(pres.relations))

    monkeypatch.setattr(oracle, "builtin_presentation", corrupted)
    code, out, _ = run(capsys, "verify", "--suite", "fast", "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False
    return [(check["name"], check["detail"]) for check in payload["checks"] if not check["ok"]]


def test_verify_corrupted_presentation_fails_with_named_check(capsys, monkeypatch):
    # C without its last relation: the quotient is infinite, and the work budget refuses it
    failing = _failing_checks_with(capsys, monkeypatch, "C", None, lambda rels: rels[:-1])
    assert [name for name, _ in failing] == ["oracle_concordance_q1"]


def test_verify_compares_ext_with_the_series(capsys, monkeypatch):
    def drop_xi1_xi2(rels):
        assert rels[0] == [(1, ("xi1", "xi2"))]
        return rels[1:]

    # C(3) without xi1 xi2 = 0: the quotient stays finite, and the comparison fails
    failing = _failing_checks_with(capsys, monkeypatch, "C", 3, drop_xi1_xi2)
    assert failing == [(
        "oracle_concordance_q1",
        "p=3: ext {0: 3, 1: 4, 2: 3, 3: 1} vs series {0: 3, 1: 4, 2: 4, 3: 2, 4: 1}",
    )]


@pytest.mark.parametrize("suite", ["fast", "full"])
def test_a_check_that_raises_keeps_its_name(monkeypatch, suite):
    passing = [check.name for check in verify.run_suite(suite)]

    def broken(*args, **kwargs):
        raise RuntimeError("broken on purpose")

    # what each check calls first
    for module, name in (
        (tower, "enumerate_weight_zero"),
        (series, "lambda_q_series"),
        (oracle, "builtin_presentation"),
        (verify, "omega_basis"),
        (verify, "theta_basis"),
    ):
        monkeypatch.setattr(module, name, broken)
    checks = verify.run_suite(suite)
    assert [check.name for check in checks] == passing
    assert all(not check.ok and check.detail == "error: broken on purpose" for check in checks)


# sha256 of the stdout of verify, recorded before the suites became one table.
VERIFY_DIGESTS = {
    "verify --suite fast": "96ee505704ee0a920b23b3c21709dc11b9e9d531ef79828765f19520e8370612",
    "verify --suite full": "8d44ef3dbf5d00d43383885ffd4125d96f196ff479ca694df39f47bd03d824f7",
    "verify --suite fast --format json": "90e161dc6871641f905c11e8ef2068dd8696b1e7d82d233321009625daa851cc",
}


@pytest.mark.parametrize("command", sorted(VERIFY_DIGESTS))
def test_verify_keeps_its_bytes(capsys, command):
    code, out, err = run(capsys, *command.split())
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_DIGESTS[command]


def test_a_verify_child_leaves_no_process_behind():
    """The property suite's forked helper ends within the run and writes nothing of its own."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "gl2ext", "verify", "--suite", "fast"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_child_env(),
        start_new_session=True,
    )
    out, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (0, b"")
    assert hashlib.sha256(out).hexdigest() == VERIFY_DIGESTS["verify --suite fast"]
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)  # the child led its own process group


@pytest.mark.parametrize("unbuffered", ["1", ""])
def test_verify_read_in_part_ends_quietly(unbuffered):
    """``verify --suite fast | head -1``."""
    with subprocess.Popen(
        [sys.executable, "-m", "gl2ext", "verify", "--suite", "fast"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_child_env(PYTHONUNBUFFERED=unbuffered),
    ) as proc:
        try:
            assert proc.stdout.readline().startswith(b"PASS ")
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=120) == 0
        finally:
            proc.kill()
    assert err == b""


def test_record_round_trips():
    for p, q in ((2, 1), (3, 2)):
        for m in enumerate_weight_zero(p, q):
            rec = basis_record(p, m)
            assert tensor_from_record(json.loads(json.dumps(rec))) == m
    f = LambdaMonomial(PathMonomial(2, 1, 1), 3, 4)
    assert factor_from_record(factor_record(f)) == f


def test_tensor_from_record_validates():
    with pytest.raises((KeyError, TypeError)):
        tensor_from_record({"factors": [{"s": 1}], "z": 0})
