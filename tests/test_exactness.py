"""No floating point in the package: every number it computes is exact.

The guard reads the source of ``src/gl2ext``: true division (``/`` and
``/=``), float literals and calls to ``float`` are rejected wherever they
appear.  Exact division goes through ``Fraction`` or ``//``.
"""

import ast
import pathlib

import gl2ext

PACKAGE = pathlib.Path(gl2ext.__file__).parent


def _inexact(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            yield node, "true division"
        elif isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield node, f"float literal {node.value!r}"
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            yield node, "float() call"


def test_no_floating_point_in_the_package():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) >= 8
    found = [
        f"{path.name}:{node.lineno}: {what}"
        for path in sources
        for node, what in _inexact(ast.parse(path.read_text(encoding="utf-8"), str(path)))
    ]
    assert not found, found


def test_the_guard_sees_each_form():
    sample = "a = 1 / 2\nb /= 3\nc = 0.5\nd = float(4)\ne = 7 // 2\nf = 1e3\n"
    assert [what for _, what in _inexact(ast.parse(sample))] == [
        "true division",
        "true division",
        "float literal 0.5",
        "float() call",
        "float literal 1000.0",
    ]
