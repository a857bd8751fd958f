"""Command-line surface: bases, tables, series, oracle runs, verification.

Output is deterministic for a fixed configuration: canonical ordering,
sorted JSON keys, no timestamps.  It is written in batches as it is
encoded, never held whole.  Exit codes: 0 success, 1 verification
failure, 2 usage error.  A reader that closes the pipe early (``| head``)
ends the run with exit 0.

Each subcommand runs only the layer modules it uses: ``hilbert`` runs
``series``; ``basis``, ``ext-table`` and ``multiply`` run ``tower``, both
with ``lambda_basis``; ``oracle`` runs ``oracle``; ``verify`` runs them all.
``paths`` always runs.  Every other layer is in ``sys.modules`` once this
module is imported, and its code runs on first use.
"""

from __future__ import annotations

import argparse
import importlib.util
import io
import json
import os
import sys
from itertools import chain, islice, repeat
from typing import Iterable, Iterator, Optional

from .paths import PathMonomial, is_prime


def _deferred(name: str):
    """``from . import name``, but the module's code runs on first attribute use.

    A module already in ``sys.modules`` is returned as it is: one module per name.
    """
    full = f"{__package__}.{name}"
    if full not in sys.modules:
        spec = importlib.util.find_spec(full)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        sys.modules[full] = module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        setattr(sys.modules[__package__], name, module)
    return sys.modules[full]


lambda_basis, oracle, series, tower, verify = map(
    _deferred, ("lambda_basis", "oracle", "series", "tower", "verify")
)


def factor_record(f: lambda_basis.LambdaMonomial) -> dict:
    return {"s": f.b.s, "alpha": f.b.alpha, "beta": f.b.beta, "n": f.n, "h": f.h}


def _integer_field(rec: dict, key: str) -> int:
    """A JSON integer field; floats, booleans and strings are rejected, not coerced."""
    value = rec[key]
    if type(value) is not int:
        raise TypeError(f"{key} must be an integer, got {value!r}")
    return value


def factor_from_record(rec: dict) -> lambda_basis.LambdaMonomial:
    s, alpha, beta, n, h = (_integer_field(rec, k) for k in ("s", "alpha", "beta", "n", "h"))
    return lambda_basis.LambdaMonomial(PathMonomial(s, alpha, beta), n, h)


def basis_record(p: int, m: tower.TensorMonomial) -> dict:
    left, right = tower.vertex_tuples(p, m)
    return {
        "factors": [factor_record(f) for f in m.factors],
        "z": m.z,
        "yoneda": m.z,
        "left_vertices": list(left),
        "right_vertices": list(right),
    }


def tensor_from_record(rec: dict) -> tower.TensorMonomial:
    factors = rec["factors"]
    if type(factors) is not list or not factors:
        raise ValueError(f"factors must be a non-empty list, got {factors!r}")
    return tower.TensorMonomial(
        tuple(factor_from_record(f) for f in factors), _integer_field(rec, "z")
    )


# Pieces joined per write.  Where stdout is unbuffered (PYTHONUNBUFFERED)
# every write is a system call, so one write per piece costs more than the
# encoding; a batch of this many keeps the joined string near 100 kB.
WRITE_BATCH = 1 << 14

_JSON = json.JSONEncoder(indent=2, sort_keys=True)


def _batches(pieces: Iterable) -> Iterator[list]:
    it = iter(pieces)
    while batch := list(islice(it, WRITE_BATCH)):
        yield batch


def _emit_json(payload) -> None:
    """Write the bytes of ``json.dumps(payload, indent=2, sort_keys=True)`` and a newline."""
    for batch in _batches(chain(_JSON.iterencode(payload), ("\n",))):
        sys.stdout.write("".join(batch))


def _emit_json_list(key: str, items: Iterable, rest: dict) -> None:
    """Write what ``_emit_json({key: list(items), **rest})`` writes, never listing the items.

    ``key`` sorts before the keys of ``rest``, so the list comes first, and
    its items are encoded one at a time.  An item two levels down is its own
    encoding with four more spaces after each newline: an encoded string
    holds no raw newline.
    """
    assert all(key < other for other in rest)
    head, tail = _JSON.encode({key: [], **rest}).split("[]", 1)
    sys.stdout.write(head + "[")
    pieces = chain.from_iterable(
        chain((sep,), _JSON.iterencode(item))
        for sep, item in zip(chain(("\n",), repeat(",\n")), items)
    )
    empty = True
    for batch in _batches(pieces):
        empty = False
        sys.stdout.write("".join(batch).replace("\n", "\n    "))
    sys.stdout.write(("]" if empty else "\n  ]") + tail + "\n")


def _emit_csv(header: list[str], rows: Iterable[list]) -> None:
    """Write the header and the rows as ``csv.writer`` lines, a batch of rows per write."""
    import csv  # only a --format csv run loads it

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for batch in _batches(rows):
        writer.writerows(batch)
        sys.stdout.write(buf.getvalue())
        buf.seek(0)
        buf.truncate()
    if buf.tell():  # no rows: the header alone
        sys.stdout.write(buf.getvalue())


def _parse_tuple(text: str, q: int, flag: str, p: int) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"{flag} must be comma-separated integers")
    if len(values) != q:
        raise argparse.ArgumentTypeError(f"{flag} must list exactly q={q} vertices")
    if not all(1 <= v <= p for v in values):
        raise argparse.ArgumentTypeError(f"{flag} vertices must lie in 1..{p}")
    return values


def _vertex_filters(args, parser) -> tuple[Optional[tuple[int, ...]], Optional[tuple[int, ...]]]:
    """The --left and --right tuples, checked before any enumeration.

    Left vertices are path sources, 1..p.  Right vertices are path targets,
    reflected through p after an odd tensor power, and lie in 1..p too.
    """
    if args.q < 1:
        parser.error("q must be >= 1")
    left = right = None
    try:
        if args.left is not None:
            left = _parse_tuple(args.left, args.q, "--left", args.p)
        if args.right is not None:
            right = _parse_tuple(args.right, args.q, "--right", args.p)
    except argparse.ArgumentTypeError as exc:
        parser.error(str(exc))
    return left, right


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
    parser = _Parser(prog="gl2ext", description=__doc__.rsplit("\n\n", 1)[0])  # not the modules paragraph
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--p", type=_prime, required=True, help="prime parameter")
        sp.add_argument("--q", type=int, required=True, help="tensor factors")
        sp.add_argument("--format", choices=("json", "csv"), default="json")

    sp = sub.add_parser("basis", help="list the weight-zero basis")
    sp.set_defaults(run=cmd_basis)
    add_common(sp)
    sp.add_argument("--left", help="filter on the left vertex tuple, e.g. 1,1")
    sp.add_argument("--right", help="filter on the right vertex tuple")

    sp = sub.add_parser("ext-table", help="dimension table by vertex tuples and degree")
    sp.set_defaults(run=cmd_ext_table)
    add_common(sp)
    sp.add_argument("--left", help="filter on the left vertex tuple")
    sp.add_argument("--right", help="filter on the right vertex tuple")

    sp = sub.add_parser("hilbert", help="graded dimensions via the series operator")
    sp.set_defaults(run=cmd_hilbert)
    add_common(sp)
    sp.add_argument("--max-degree", type=_non_negative, help="cap on the homological degree")

    sp = sub.add_parser("multiply", help="signed product of two basis records")
    sp.set_defaults(run=cmd_multiply)
    sp.add_argument("--p", type=_prime, required=True, help="prime parameter")
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
    osp.set_defaults(run=cmd_oracle_quotient)
    add_presentation_args(osp)
    osp.add_argument("--max-degree", type=_non_negative, required=True)
    osp.add_argument("--source", help="restrict to the column of one vertex")
    osp.add_argument("--with-paths", action="store_true")

    osp = osub.add_parser("ext", help="Ext dimensions between the simples")
    osp.set_defaults(run=cmd_oracle_ext)
    add_presentation_args(osp)
    osp.add_argument("--max-n", type=_non_negative, required=True)

    sp = sub.add_parser("verify", help="run the verification suite")
    sp.set_defaults(run=cmd_verify)
    sp.add_argument("--suite", choices=("fast", "full"), default="fast")
    sp.add_argument("--format", choices=("json", "text"), default="text")
    return parser


def _load_presentation(args, parser) -> oracle.QuiverPresentation:
    if bool(args.name) == bool(args.presentation):
        parser.error("exactly one of --name and --presentation is required")
    if args.presentation and args.p is not None:
        parser.error("--p goes only with --name")
    if args.name:
        try:
            return oracle.builtin_presentation(args.name, args.p)
        except oracle.UnknownPresentationError as exc:
            parser.error(str(exc))
    try:
        with open(args.presentation, encoding="utf-8") as fh:
            return oracle.QuiverPresentation.loads(fh.read())
    except (OSError, ValueError, KeyError, TypeError, RecursionError) as exc:  # deep nesting
        parser.error(f"cannot load presentation {args.presentation}: {exc}")


def _kept(left, right, lt, rt) -> bool:
    return (left is None or lt == left) and (right is None or rt == right)


def cmd_basis(args, parser) -> int:
    left, right = _vertex_filters(args, parser)
    records = (
        basis_record(args.p, m)
        for m in tower.enumerate_weight_zero(args.p, args.q)
        if _kept(left, right, *tower.vertex_tuples(args.p, m))
    )
    if args.format == "json":  # the header keeps its fixed rules field; earlier readers check it
        _emit_json_list("basis", records, {"p": args.p, "q": args.q, "variant": "corrected"})
    else:
        _emit_csv(
            ["factors", "z", "yoneda", "left", "right"],
            (
                [
                    json.dumps(rec["factors"], sort_keys=True),
                    rec["z"],
                    rec["yoneda"],
                    ",".join(map(str, rec["left_vertices"])),
                    ",".join(map(str, rec["right_vertices"])),
                ]
                for rec in records
            ),
        )
    return 0


def cmd_ext_table(args, parser) -> int:
    left, right = _vertex_filters(args, parser)
    table = sorted(
        (key, dim)
        for key, dim in tower.ext_dim_table(args.p, args.q).items()
        if _kept(left, right, key[0], key[1])
    )
    if args.format == "json":
        rows = [
            {"left_tuple": list(lt), "right_tuple": list(rt), "n": n, "dim": dim}
            for (lt, rt, n), dim in table
        ]
        del table  # the encoder needs only the rows
        _emit_json({"p": args.p, "q": args.q, "variant": "corrected", "table": rows})
    else:
        _emit_csv(
            ["left_tuple", "right_tuple", "n", "dim"],
            (
                [",".join(map(str, lt)), ",".join(map(str, rt)), n, dim]
                for (lt, rt, n), dim in table
            ),
        )
    return 0


def cmd_hilbert(args, parser) -> int:
    if args.q < 0:
        parser.error("q must be >= 0")
    dims = series.lambda_q_series(args.p, args.q, k_max=args.max_degree)
    if args.format == "json":
        payload = {
            "p": args.p,
            "q": args.q,
            "variant": "corrected",
            "dims": {str(k): v for k, v in sorted(dims.items())},
        }
        _emit_json(payload)
    else:
        _emit_csv(["degree", "dim"], [[k, v] for k, v in sorted(dims.items())])
    return 0


def cmd_multiply(args, parser) -> int:
    try:
        a = tensor_from_record(json.loads(args.a))
        b = tensor_from_record(json.loads(args.b))
    except (KeyError, ValueError, TypeError, RecursionError) as exc:  # deep nesting
        parser.error(f"bad operand record: {exc}")
    for operand in (a, b):
        if operand.z < 0:
            parser.error(f"operand z must be >= 0, got {operand.z}")
        for f in operand.factors:
            if not lambda_basis.is_valid(args.p, f):
                parser.error(
                    f"operand factor {factor_record(f)} is not a layer element at p={args.p}"
                )
    try:
        result = tower.tensor_mult(args.p, a, b)
    except ValueError as exc:
        parser.error(str(exc))
    if result is None:
        _emit_json({"zero": True})
    else:
        _emit_json(
            {
                "zero": False,
                "sign": result.sign,
                "factors": [factor_record(f) for f in result.monomial.factors],
                "z": result.monomial.z,
            }
        )
    return 0


def cmd_oracle_quotient(args, parser) -> int:
    if args.with_paths and args.format != "json":
        parser.error("--with-paths needs --format json")
    pres = _load_presentation(args, parser)
    if args.source is not None and args.source not in pres.vertices:
        parser.error(f"unknown source vertex {args.source!r}")
    report = oracle.quotient_basis(
        pres, args.max_degree, source=args.source, with_paths=args.with_paths
    )
    if args.format == "json":
        _emit_json(report.to_json_dict())
    else:
        _emit_csv(
            ["source", "target", "degree", "dim"],
            [[s, t, d, n] for (s, t, d), n in sorted(report.dims.items())],
        )
    return 0


def cmd_oracle_ext(args, parser) -> int:
    pres = _load_presentation(args, parser)
    report = oracle.ext_dims(pres, args.max_n)
    if args.format == "json":
        _emit_json(report.to_json_dict())
    else:
        _emit_csv(
            ["from", "to", "n", "dim"],
            [[v, w, n, d] for (v, w, n), d in sorted(report.dims.items())],
        )
    return 0


def cmd_verify(args, parser) -> int:
    checks = verify.run_suite(args.suite)
    ok = all(c.ok for c in checks)
    if args.format == "json":
        payload = {
            "suite": args.suite,
            "ok": ok,
            "checks": [
                {"name": c.name, "ok": c.ok, "detail": c.detail} for c in checks
            ],
        }
        _emit_json(payload)
    else:
        for c in checks:
            sys.stdout.write(f"{'PASS' if c.ok else 'FAIL'} {c.name}: {c.detail}\n")
        sys.stdout.write(f"{'OK' if ok else 'FAILED'} ({args.suite} suite)\n")
    return 0 if ok else 1


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        try:
            code = args.run(args, parser)
        except (SystemExit, BrokenPipeError):
            raise  # before the next clause, whose class tuple runs both deferred modules
        except (oracle.WorkLimitError, tower.WalkLimitError) as exc:
            parser.error(str(exc))
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
    except SystemExit as exc:  # a usage error, in parsing or inside a command
        return exc.code if isinstance(exc.code, int) else 2
    except BrokenPipeError:
        # The reader stopped early (``| head``) and has what it read.  Send
        # what is still buffered to devnull so the exit flush stays silent.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    return code


if __name__ == "__main__":
    sys.exit(main())
