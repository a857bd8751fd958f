"""Command-line surface: bases, tables, series, oracle runs, verification.

Output is deterministic for a fixed configuration: canonical ordering,
sorted JSON keys, no timestamps.  Exit codes: 0 success, 1 verification
failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from typing import Optional

from . import oracle, series, tower, verify
from .lambda_basis import LambdaMonomial, is_valid
from .paths import VARIANTS, PathMonomial, is_prime
from .tower import TensorMonomial


def factor_record(f: LambdaMonomial) -> dict:
    return {"s": f.b.s, "alpha": f.b.alpha, "beta": f.b.beta, "n": f.n, "h": f.h}


def _integer_field(rec: dict, key: str) -> int:
    """A JSON integer field; floats, booleans and strings are rejected, not coerced."""
    value = rec[key]
    if type(value) is not int:
        raise TypeError(f"{key} must be an integer, got {value!r}")
    return value


def factor_from_record(rec: dict) -> LambdaMonomial:
    s, alpha, beta, n, h = (_integer_field(rec, k) for k in ("s", "alpha", "beta", "n", "h"))
    return LambdaMonomial(PathMonomial(s, alpha, beta), n, h)


def basis_record(p: int, m: TensorMonomial) -> dict:
    left, right = tower.vertex_tuples(p, m)
    return {
        "factors": [factor_record(f) for f in m.factors],
        "z": m.z,
        "yoneda": m.z,
        "left_vertices": list(left),
        "right_vertices": list(right),
    }


def tensor_from_record(rec: dict) -> TensorMonomial:
    factors = rec["factors"]
    if type(factors) is not list or not factors:
        raise ValueError(f"factors must be a non-empty list, got {factors!r}")
    return TensorMonomial(
        tuple(factor_from_record(f) for f in factors), _integer_field(rec, "z")
    )


def _emit_json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _emit_csv(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _parse_tuple(text: str, q: int, flag: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"{flag} must be comma-separated integers")
    if len(values) != q:
        raise argparse.ArgumentTypeError(f"{flag} must list exactly q={q} vertices")
    return values


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 2 on usage errors, message to stderr
        self.exit(2, f"{self.prog}: error: {message}\n")


def _non_negative(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return int(text)


def _prime(text: str) -> int:
    value = _non_negative(text)
    if not is_prime(value):
        raise argparse.ArgumentTypeError(f"p must be prime, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gl2ext", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, q=True):
        sp.add_argument("--p", type=_prime, required=True, help="prime parameter")
        if q:
            sp.add_argument("--q", type=int, required=True, help="tensor factors")
        sp.add_argument(
            "--variant",
            choices=VARIANTS,
            default="corrected",
            help="printed selects the uncorrected variant of the rules (comparison runs only)",
        )
        sp.add_argument("--format", choices=("json", "csv"), default="json")

    sp = sub.add_parser("basis", help="list the weight-zero basis")
    add_common(sp)
    sp.add_argument("--left", help="filter on the left vertex tuple, e.g. 1,1")
    sp.add_argument("--right", help="filter on the right vertex tuple")

    sp = sub.add_parser("ext-table", help="dimension table by vertex tuples and degree")
    add_common(sp)
    sp.add_argument("--left", help="filter on the left vertex tuple")
    sp.add_argument("--right", help="filter on the right vertex tuple")

    sp = sub.add_parser("hilbert", help="graded dimensions via the series operator")
    add_common(sp)
    sp.add_argument("--max-degree", type=_non_negative, help="cap on the homological degree")

    sp = sub.add_parser("multiply", help="signed product of two basis records")
    add_common(sp, q=False)
    sp.add_argument("a", help="JSON record {factors: [...], z: n}")
    sp.add_argument("b", help="JSON record {factors: [...], z: n}")

    sp = sub.add_parser("oracle", help="quiver-presentation oracle")
    osub = sp.add_subparsers(dest="oracle_command", required=True)

    def add_presentation_args(osp):
        osp.add_argument("--name", help="builtin presentation name")
        osp.add_argument("--p", type=_prime, help="prime for parameterized builtins")
        osp.add_argument("--presentation", help="JSON presentation file")
        osp.add_argument("--format", choices=("json", "csv"), default="json")

    osp = osub.add_parser("quotient-dims", help="graded dimensions of the quotient")
    add_presentation_args(osp)
    osp.add_argument("--max-degree", type=_non_negative, required=True)
    osp.add_argument("--source", help="restrict to the column of one vertex")
    osp.add_argument("--with-paths", action="store_true")

    osp = osub.add_parser("ext", help="Ext dimensions between the simples")
    add_presentation_args(osp)
    osp.add_argument("--max-n", type=_non_negative, required=True)

    sp = sub.add_parser("verify", help="run the verification suite")
    sp.add_argument("--suite", choices=("fast", "full"), default="fast")
    sp.add_argument("--format", choices=("json", "text"), default="text")
    sp.add_argument("--corrupt", help=argparse.SUPPRESS)  # test hook
    return parser


def _load_presentation(args, parser) -> oracle.QuiverPresentation:
    if bool(args.name) == bool(args.presentation):
        parser.error("exactly one of --name and --presentation is required")
    if args.name:
        try:
            return oracle.builtin_presentation(args.name, args.p)
        except oracle.UnknownPresentationError as exc:
            parser.error(str(exc))
    try:
        with open(args.presentation, encoding="utf-8") as fh:
            return oracle.QuiverPresentation.loads(fh.read())
    except (OSError, ValueError, KeyError, TypeError) as exc:
        parser.error(f"cannot load presentation {args.presentation}: {exc}")


def cmd_basis(args, parser) -> int:
    if args.q < 1:
        parser.error("q must be >= 1")
    basis = tower.enumerate_weight_zero(args.p, args.q, args.variant)
    try:
        left = _parse_tuple(args.left, args.q, "--left") if args.left else None
        right = _parse_tuple(args.right, args.q, "--right") if args.right else None
    except argparse.ArgumentTypeError as exc:
        parser.error(str(exc))
    records = []
    for m in basis:
        lt, rt = tower.vertex_tuples(args.p, m)
        if left is not None and lt != left:
            continue
        if right is not None and rt != right:
            continue
        records.append(basis_record(args.p, m))
    if args.format == "json":
        sys.stdout.write(
            _emit_json({"p": args.p, "q": args.q, "variant": args.variant, "basis": records})
        )
    else:
        rows = [
            [
                json.dumps(rec["factors"], sort_keys=True),
                rec["z"],
                rec["yoneda"],
                ",".join(map(str, rec["left_vertices"])),
                ",".join(map(str, rec["right_vertices"])),
            ]
            for rec in records
        ]
        sys.stdout.write(
            _emit_csv(["factors", "z", "yoneda", "left", "right"], rows)
        )
    return 0


def cmd_ext_table(args, parser) -> int:
    if args.q < 1:
        parser.error("q must be >= 1")
    table = tower.ext_dim_table(args.p, args.q, args.variant)
    try:
        left = _parse_tuple(args.left, args.q, "--left") if args.left else None
        right = _parse_tuple(args.right, args.q, "--right") if args.right else None
    except argparse.ArgumentTypeError as exc:
        parser.error(str(exc))
    rows = []
    for (lt, rt, n), dim in sorted(table.items()):
        if left is not None and lt != left:
            continue
        if right is not None and rt != right:
            continue
        rows.append((lt, rt, n, dim))
    if args.format == "json":
        payload = [
            {
                "left_tuple": list(lt),
                "right_tuple": list(rt),
                "n": n,
                "dim": dim,
            }
            for lt, rt, n, dim in rows
        ]
        sys.stdout.write(
            _emit_json({"p": args.p, "q": args.q, "variant": args.variant, "table": payload})
        )
    else:
        sys.stdout.write(
            _emit_csv(
                ["left_tuple", "right_tuple", "n", "dim"],
                [
                    [",".join(map(str, lt)), ",".join(map(str, rt)), n, dim]
                    for lt, rt, n, dim in rows
                ],
            )
        )
    return 0


def cmd_hilbert(args, parser) -> int:
    if args.q < 0:
        parser.error("q must be >= 0")
    dims = series.lambda_q_series(args.p, args.q, k_max=args.max_degree, variant=args.variant)
    if args.format == "json":
        payload = {
            "p": args.p,
            "q": args.q,
            "variant": args.variant,
            "dims": {str(k): v for k, v in sorted(dims.items())},
        }
        sys.stdout.write(_emit_json(payload))
    else:
        sys.stdout.write(
            _emit_csv(["degree", "dim"], [[k, v] for k, v in sorted(dims.items())])
        )
    return 0


def cmd_multiply(args, parser) -> int:
    try:
        a = tensor_from_record(json.loads(args.a))
        b = tensor_from_record(json.loads(args.b))
    except (KeyError, ValueError, TypeError) as exc:
        parser.error(f"bad operand record: {exc}")
    for operand in (a, b):
        if operand.z < 0:
            parser.error(f"operand z must be >= 0, got {operand.z}")
        for f in operand.factors:
            if not is_valid(args.p, f, args.variant):
                parser.error(
                    f"operand factor {factor_record(f)} is not a layer element "
                    f"at p={args.p} ({args.variant})"
                )
    try:
        result = tower.tensor_mult(args.p, a, b, args.variant)
    except ValueError as exc:
        parser.error(str(exc))
    if result is None:
        sys.stdout.write(_emit_json({"zero": True}))
    else:
        sys.stdout.write(
            _emit_json(
                {
                    "zero": False,
                    "sign": result.sign,
                    "factors": [factor_record(f) for f in result.monomial.factors],
                    "z": result.monomial.z,
                }
            )
        )
    return 0


def cmd_oracle_quotient(args, parser) -> int:
    pres = _load_presentation(args, parser)
    if args.source is not None and args.source not in pres.vertices:
        parser.error(f"unknown source vertex {args.source!r}")
    report = oracle.quotient_basis(
        pres, args.max_degree, source=args.source, with_paths=args.with_paths
    )
    if args.format == "json":
        sys.stdout.write(_emit_json(report.to_json_dict()))
    else:
        sys.stdout.write(
            _emit_csv(
                ["source", "target", "degree", "dim"],
                [[s, t, d, n] for (s, t, d), n in sorted(report.dims.items())],
            )
        )
    return 0


def cmd_oracle_ext(args, parser) -> int:
    pres = _load_presentation(args, parser)
    try:
        report = oracle.ext_dims(pres, args.max_n)
    except oracle.NonFiniteDimensionalError as exc:
        parser.error(str(exc))
    if args.format == "json":
        sys.stdout.write(_emit_json(report.to_json_dict()))
    else:
        sys.stdout.write(
            _emit_csv(
                ["from", "to", "n", "dim"],
                [[v, w, n, d] for (v, w, n), d in sorted(report.dims.items())],
            )
        )
    return 0


def cmd_verify(args, parser) -> int:
    checks = verify.run_suite(args.suite, corrupt=args.corrupt)
    ok = all(c.ok for c in checks)
    if args.format == "json":
        payload = {
            "suite": args.suite,
            "ok": ok,
            "checks": [
                {"name": c.name, "ok": c.ok, "detail": c.detail} for c in checks
            ],
        }
        sys.stdout.write(_emit_json(payload))
    else:
        for c in checks:
            sys.stdout.write(f"{'PASS' if c.ok else 'FAIL'} {c.name}: {c.detail}\n")
        sys.stdout.write(f"{'OK' if ok else 'FAILED'} ({args.suite} suite)\n")
    return 0 if ok else 1


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if args.command == "basis":
            return cmd_basis(args, parser)
        if args.command == "ext-table":
            return cmd_ext_table(args, parser)
        if args.command == "hilbert":
            return cmd_hilbert(args, parser)
        if args.command == "multiply":
            return cmd_multiply(args, parser)
        if args.command == "oracle":
            if args.oracle_command == "quotient-dims":
                return cmd_oracle_quotient(args, parser)
            return cmd_oracle_ext(args, parser)
        if args.command == "verify":
            return cmd_verify(args, parser)
    except SystemExit as exc:  # parser.error inside a command
        return exc.code if isinstance(exc.code, int) else 2
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
