"""The operations of each workload and the check each output must pass.

An operation is one ``gl2ext`` CLI call.  Its class names the end-to-end
class time it counts towards; class ``usage`` holds the usage-error calls,
which are attempted and judged but timed into no metric.  Every check
returns a list of problems, empty when the output is right.
"""

from __future__ import annotations

import csv
import io
import json
from collections import Counter
from typing import Callable, NamedTuple, Optional

import model
from model import degree_totals, dim_table, weight_zero

USAGE = "usage"
MISSING_FILE = "bench/data/no-such-presentation.json"
BAD_ENDPOINT_FILE = "bench/data/bad_endpoint.json"


class Op(NamedTuple):
    cls: str
    argv: tuple[str, ...]
    check: Optional[Callable[[bytes], list[str]]]  # None for usage operations

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def _compare(what: str, got, want) -> list[str]:
    if got == want:
        return []
    return [f"{what}: got {str(got)[:200]}, want {str(want)[:200]}"]


def _header(out: dict, p: int, q: int) -> list[str]:
    return _compare("header", (out["p"], out["q"], out["variant"]), (p, q, "corrected"))


def usage_contract(rc: int, stdout: bytes, stderr: bytes) -> list[str]:
    """A usage error exits 2 with one line on stderr and nothing on stdout."""
    problems = []
    if rc != 2:
        problems.append(f"exit code {rc}, want 2")
    if stdout:
        problems.append(f"{len(stdout)} bytes on stdout, want none")
    if len(stderr.splitlines()) != 1:
        problems.append(f"{len(stderr.splitlines())} lines on stderr, want 1")
    return problems


# -- model -------------------------------------------------------------------


def _keep(left, right) -> Callable[[tuple, tuple], bool]:
    return lambda lt, rt: (left is None or lt == left) and (right is None or rt == right)


def basis_check(p: int, q: int, left=None, right=None):
    keep = _keep(left, right)

    def check(stdout: bytes) -> list[str]:
        out = json.loads(stdout)
        records = out["basis"]
        problems = _header(out, p, q)
        for rec in records:
            problems += model.record_weight(p, rec)
        want = [
            model.basis_record(p, f, z)
            for f, z in weight_zero(p, q)
            if keep(*model.vertices(p, f))
        ]
        problems += _compare("records vs own listing", records, want)
        if (p, q, left, right) == (3, 2, (1, 1), None):
            got = tuple(
                (tuple((f["s"], f["alpha"], f["beta"], f["n"], f["h"]) for f in r["factors"]), r["z"])
                for r in records
            )
            problems += _compare("paper column", got, model.PAPER_COLUMN)
            problems += _compare(
                "paper multiset", tuple(sorted(r["yoneda"] for r in records)), model.PAPER_MULTISET
            )
        if left is None and right is None:
            problems += _compare("z = 0 count", sum(r["z"] == 0 for r in records), p**q)
            problems += _compare(
                "totals by degree", dict(Counter(r["z"] for r in records)), degree_totals(p, q)
            )
        return problems

    return check


def table_check(p: int, q: int, left=None, right=None, fmt: str = "json"):
    keep = _keep(left, right)

    def check(stdout: bytes) -> list[str]:
        problems = []
        if fmt == "json":
            out = json.loads(stdout)
            problems += _header(out, p, q)
            rows = [
                (tuple(r["left_tuple"]), tuple(r["right_tuple"]), r["n"], r["dim"])
                for r in out["table"]
            ]
        else:
            reader = csv.reader(io.StringIO(stdout.decode()))
            problems += _compare("csv header", next(reader), ["left_tuple", "right_tuple", "n", "dim"])
            rows = [
                (tuple(map(int, lt.split(","))), tuple(map(int, rt.split(","))), int(n), int(d))
                for lt, rt, n, d in reader
            ]
        want = [(lt, rt, n, d) for (lt, rt, n), d in sorted(dim_table(p, q).items()) if keep(lt, rt)]
        problems += _compare("rows vs own table", rows, want)
        if left is None and right is None:
            problems += _compare("z = 0 count", sum(d for _, _, n, d in rows if n == 0), p**q)
            totals: Counter = Counter()
            for _, _, n, d in rows:
                totals[n] += d
            problems += _compare("totals by degree", dict(totals), degree_totals(p, q))
        return problems

    return check


def hilbert_check(p: int, q: int):
    def check(stdout: bytes) -> list[str]:
        out = json.loads(stdout)
        want = {str(k): v for k, v in sorted(degree_totals(p, q).items())}
        return _header(out, p, q) + _compare("dims vs level fold", out["dims"], want)

    return check


# -- oracle ------------------------------------------------------------------


def quotient_check(want_blocks: dict, max_degree: int, arrows=None, column_multiset=None):
    """Blocks equal ``want_blocks``; paths, when listed, compose over ``arrows``."""
    want_blocks = {k: v for k, v in want_blocks.items() if k[2] <= max_degree}

    def check(stdout: bytes) -> list[str]:
        out = json.loads(stdout)
        blocks = {(b["source"], b["target"], b["degree"]): b["dim"] for b in out["blocks"]}
        problems = _compare("blocks vs strip counts", blocks, want_blocks)
        degrees = {d for _, _, d in blocks}
        problems += _compare(
            "zero degrees",
            out["zero_degrees"],
            [d for d in range(1, max_degree + 1) if d not in degrees],
        )
        problems += _compare("stabilized", out["stabilized"], True)
        if column_multiset is not None:
            multiset = tuple(sorted(d for (_, _, d), n in blocks.items() for _ in range(n)))
            problems += _compare("column multiset", multiset, column_multiset)
            problems += _compare("column total", sum(blocks.values()), len(column_multiset))
        if arrows is not None:
            listed = {}
            for b in out["basis_paths"]:
                key = (b["source"], b["target"], b["degree"])
                paths = [tuple(x) for x in b["paths"]]
                listed[key] = len(paths)
                if len(set(paths)) != len(paths):
                    problems.append(f"block {key} repeats a path")
                for path in paths:
                    at = b["source"]
                    for name in path:
                        src, tgt = arrows[name]
                        if src != at:
                            problems.append(f"path {path} breaks at {name}")
                        at = tgt
                    if (at, len(path)) != (b["target"], b["degree"]):
                        problems.append(f"path {path} does not end at {key}")
            problems += _compare("paths per block", listed, blocks)
        return problems

    return check


def ext_check(arrows: dict, totals: Optional[dict] = None):
    """Ext^0 is the identity on simples and Ext^1(L_v, L_w) counts arrows v -> w.

    Both hold because every relation of the builtins has path length 2.
    With ``totals`` the degree totals must equal them and every
    resolution must terminate.
    """
    vertices = sorted({v for ends in arrows.values() for v in ends})

    def check(stdout: bytes) -> list[str]:
        out = json.loads(stdout)
        dims = {(r["from"], r["to"], r["n"]): r["dim"] for r in out["dims"]}
        problems = _compare(
            "Ext^0",
            {(v, w): d for (v, w, n), d in dims.items() if n == 0},
            {(v, v): 1 for v in vertices},
        )
        problems += _compare(
            "Ext^1",
            {(v, w): d for (v, w, n), d in dims.items() if n == 1},
            dict(Counter(arrows.values())),
        )
        problems += _compare("resolved vertices", sorted(out["complete"]), vertices)
        if totals is not None:
            got: Counter = Counter()
            for (_, _, n), d in dims.items():
                got[n] += d
            problems += _compare("degree totals", dict(got), totals)
            problems += _compare("complete", set(out["complete"].values()), {True})
        return problems

    return check


def _y2_column_blocks() -> dict:
    blocks: Counter = Counter()
    for factors, z in weight_zero(3, 2):
        left, right = model.vertices(3, factors)
        if left == (1, 1):
            blocks[("1,1", "%d,%d" % right, z)] += 1
    return dict(blocks)


# -- verify ------------------------------------------------------------------

FAST_CHECKS = (
    "reference_column_reproduction",
    "yoneda_degree_multiset",
    "oracle_concordance_q1",
    "series_matches_enumeration",
    "vertex_tuple_calibration",
    "omega_presentation_concordance",
    "exact_sequence_identity",
    "property_suite",
    "y2_p3_column",
)
FULL_CHECKS = FAST_CHECKS + ("oracle_exact_sequence_identity",)


def verify_check(suite: str, names: tuple[str, ...]):
    def check(stdout: bytes) -> list[str]:
        lines = stdout.decode().splitlines()
        passed = sorted(line.split(":")[0].split()[1] for line in lines[:-1] if line.startswith("PASS "))
        problems = _compare("passing checks", passed, sorted(names))
        problems += _compare("lines", len(lines), len(names) + 1)
        return problems + _compare("last line", lines[-1:], [f"OK ({suite} suite)"])

    return check


# -- the workloads -------------------------------------------------------------


def _op(cls: str, argv: str, check=None) -> Op:
    return Op(cls, tuple(argv.split()), check)


def model_ops() -> list[Op]:
    return [
        _op("column_query", "basis --p 3 --q 2 --left 1,1", basis_check(3, 2, left=(1, 1))),
        _op("column_query", "basis --p 7 --q 2 --left 1,1", basis_check(7, 2, left=(1, 1))),
        _op("column_query", "ext-table --p 7 --q 2 --left 1,1", table_check(7, 2, left=(1, 1))),
        _op(
            "column_query",
            "ext-table --p 3 --q 3 --right 1,1,1",
            table_check(3, 3, right=(1, 1, 1)),
        ),
        _op("full_table", "ext-table --p 3 --q 3", table_check(3, 3)),
        _op("full_table", "ext-table --p 5 --q 2 --format csv", table_check(5, 2, fmt="csv")),
        _op("full_table", "basis --p 5 --q 2", basis_check(5, 2)),
        _op("hilbert", "hilbert --p 7 --q 3", hilbert_check(7, 3)),
        _op("hilbert", "hilbert --p 3 --q 4", hilbert_check(3, 4)),
        _op("hilbert", "hilbert --p 2 --q 6", hilbert_check(2, 6)),
    ]


def oracle_ops() -> list[Op]:
    omega = lambda p: model.strip_blocks(model.closed_strip(p))  # noqa: E731
    return [
        _op(
            "quotient",
            "oracle quotient-dims --name OMEGA --p 7 --max-degree 14",
            quotient_check(omega(7), 14),
        ),
        _op(
            "quotient",
            "oracle quotient-dims --name THETA --p 7 --max-degree 14",
            quotient_check(model.strip_blocks(model.open_strip(7)), 14),
        ),
        _op(
            "quotient",
            "oracle quotient-dims --name Y2_P3 --source 1,1 --max-degree 11",
            quotient_check(_y2_column_blocks(), 11, column_multiset=model.PAPER_MULTISET),
        ),
        _op(
            "quotient",
            "oracle quotient-dims --name OMEGA --p 5 --max-degree 10 --with-paths",
            quotient_check(omega(5), 10, arrows=model.line_arrows("x", "y", 5)),
        ),
        _op(
            "ext",
            "oracle ext --name C --p 13 --max-n 25",
            ext_check(model.line_arrows("xi", "eta", 13), totals=degree_totals(13, 1)),
        ),
        _op("ext", "oracle ext --name Y2_P3_COMPLETED --max-n 6", ext_check(model.y2_arrows())),
        _op("ext", "oracle ext --name OMEGA --p 7 --max-n 4", ext_check(model.line_arrows("x", "y", 7))),
        # known faults: each exits 1 with a traceback instead of a usage error
        _op(USAGE, "oracle quotient-dims --name OMEGA --p 3 --max-degree -1"),
        _op(USAGE, f"oracle ext --presentation {MISSING_FILE} --max-n 2"),
        _op(USAGE, f"oracle ext --presentation {BAD_ENDPOINT_FILE} --max-n 2"),
        # controls that already meet the usage-error contract
        _op(USAGE, "oracle quotient-dims --name OMEGA --p 4 --max-degree 3"),
        _op(USAGE, "oracle quotient-dims --name NOPE --p 3 --max-degree 3"),
    ]


def verify_ops() -> list[Op]:
    return [
        _op("verify_fast", "verify --suite fast", verify_check("fast", FAST_CHECKS)),
        _op("verify_full", "verify --suite full", verify_check("full", FULL_CHECKS)),
    ]


WORKLOADS = {"model": model_ops, "oracle": oracle_ops, "verify": verify_ops}

# The set-up operation, and its answer from the level fold.
SETUP_ARGV = ("hilbert", "--p", "2", "--q", "1")
setup_check = hilbert_check(2, 1)
