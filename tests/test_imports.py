"""What importing a gl2ext module loads, and what a CLI call runs, each time in a fresh interpreter."""

import importlib.util
import json
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

import gl2ext
from gl2ext import oracle

LAYERS = {f"gl2ext.{name}" for name in ("paths", "lambda_basis", "tower", "series", "oracle", "verify")}


def _fresh(code: str) -> str:
    """The stdout of ``code`` run in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(gl2ext.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout


def _loaded_after(module: str) -> set[str]:
    """The gl2ext modules in ``sys.modules`` after a fresh ``import module``."""
    return set(_fresh(f"import sys, {module}; print(' '.join(m for m in sys.modules if m.split('.')[0] == 'gl2ext'))").split())


def test_the_oracle_loads_no_model_module():
    # every cross-check in verify relies on the oracle being independent of
    # the monomial model; paths.require_prime is imported only when a builtin
    # presentation needs its prime checked
    assert _loaded_after("gl2ext.oracle") == {"gl2ext", "gl2ext.oracle"}


def test_the_model_loads_no_oracle_module():
    # the oracle is an independent route: nothing in the model, its walk
    # limit included, may come from it
    assert "gl2ext.oracle" not in _loaded_after("gl2ext.tower")


def test_the_walk_loads_no_series_module():
    # the enumeration and the operator series are independent routes that
    # verify compares; the walk's level bound comes from lambda_basis
    assert "gl2ext.series" not in _loaded_after("gl2ext.tower")


def test_the_cli_loads_every_layer_module():
    # the traced benchmark (Tracer.install in bench/spans.py) looks each layer
    # module up in sys.modules after importing gl2ext.cli; every layer is there
    # once cli is imported, and each runs on first use.  A layer imported only
    # inside a command would make ``bench/run.py --trace 1`` fail with a KeyError
    assert LAYERS <= _loaded_after("gl2ext.cli")


@pytest.mark.parametrize(
    "argv, ran",
    [
        (["hilbert", "--p", "2", "--q", "1"], {"paths", "lambda_basis", "series"}),
        (["basis", "--p", "2", "--q", "1"], {"paths", "lambda_basis", "tower"}),
        (["oracle", "quotient-dims", "--name", "C", "--p", "2", "--max-degree", "2"], {"paths", "oracle"}),
        (["verify", "--suite", "fast"], {"paths", "lambda_basis", "tower", "series", "oracle", "verify"}),
    ],
    ids=["hilbert", "basis", "oracle", "verify"],
)
def test_a_subcommand_runs_only_the_layers_it_uses(argv, ran):
    # a deferred module is of a ModuleType subclass until its code has run
    code = (
        "import contextlib, io, sys, types\n"
        "from gl2ext import cli\n"
        f"with contextlib.redirect_stdout(io.StringIO()):\n    assert cli.main({argv!r}) == 0\n"
        "print(' '.join(n for n, m in sys.modules.items() if type(m) is types.ModuleType))"
    )
    assert LAYERS & set(_fresh(code).split()) == {f"gl2ext.{name}" for name in ran}


def test_a_usage_error_inside_a_command_runs_no_other_layer():
    # the limit errors that main catches live in oracle and tower; naming
    # them must not run either module when a command calls parser.error
    code = (
        "import contextlib, io, sys, types\n"
        "from gl2ext import cli\n"
        "with contextlib.redirect_stderr(io.StringIO()):\n"
        "    assert cli.main(['hilbert', '--p', '3', '--q', '-1']) == 2\n"
        "print(' '.join(n for n, m in sys.modules.items() if type(m) is types.ModuleType))"
    )
    assert LAYERS & set(_fresh(code).split()) == {"gl2ext.paths"}


def _run_fresh(argv) -> tuple[str, set[str]]:
    """The stdout of ``cli.main(argv)`` in a fresh interpreter, and the modules it leaves loaded."""
    code = (
        "import contextlib, io, sys\n"
        "from gl2ext import cli\n"
        "out = io.StringIO()\n"
        f"with contextlib.redirect_stdout(out):\n    assert cli.main({argv!r}) == 0\n"
        "print(' '.join(sys.modules)); print(out.getvalue(), end='')"
    )
    loaded, _, out = _fresh(code).partition("\n")
    return out, set(loaded.split())


ARITHMETIC = {"fractions", "decimal", "csv"}


@pytest.mark.parametrize(
    "argv",
    [["oracle", "ext", "--name", "C", "--p", "3", "--max-n", "6"], ["verify", "--suite", "fast"]],
    ids=["oracle", "verify"],
)
def test_integral_input_loads_no_rational_or_csv_module(argv):
    # every builtin is integral, so its elimination never makes a Fraction,
    # and only --format csv writes csv
    assert not ARITHMETIC & _run_fresh(argv)[1]


def test_a_rational_coefficient_loads_fractions(tmp_path):
    # b = 3/4 a: one word of degree 1, and the relation keeps its exact value
    path = tmp_path / "rational.json"
    arrows = [{"name": name, "src": "1", "tgt": "2", "deg": 1} for name in "ab"]
    relation = [{"coeff": "-3/4", "path": ["a"]}, {"coeff": 1, "path": ["b"]}]
    path.write_text(json.dumps({"vertices": ["1", "2"], "arrows": arrows, "relations": [relation]}), encoding="utf-8")
    out, loaded = _run_fresh(["oracle", "quotient-dims", "--presentation", str(path), "--max-degree", "2"])
    assert "fractions" in loaded
    blocks = {(b["source"], b["target"], b["degree"]): b["dim"] for b in json.loads(out)["blocks"]}
    assert blocks == {("1", "1", 0): 1, ("1", "2", 1): 1, ("2", "2", 0): 1}
    assert json.loads(out)["stabilized"]
    assert oracle.QuiverPresentation.loads(path.read_text()).relations[0][0][0] == Fraction(-3, 4)


@pytest.mark.parametrize("first, second", [("gl2ext.oracle", "gl2ext.cli"), ("gl2ext.cli", "gl2ext.oracle")])
def test_a_deferred_layer_is_the_module_that_import_gives(first, second):
    # one module object per name, whichever is imported first: a second
    # gl2ext.oracle would take a patch of MAX_WORK that the CLI never reads
    code = (
        f"import sys, {first}\n"
        "held = sys.modules['gl2ext.oracle']\n"
        f"import {second}\n"
        "assert held is gl2ext.cli.oracle is gl2ext.oracle is sys.modules['gl2ext.oracle']\n"
        "print(gl2ext.oracle.MAX_WORK)"
    )
    assert _fresh(code) == f"{oracle.MAX_WORK}\n"


def test_the_tracer_targets_exist():
    # a renamed or removed target breaks only ``bench/run.py --trace 1``
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for short, names in [*spans.SPANNED.items(), *spans.COUNTED.items(), ("oracle", ("GradedQuotient",))]:
        module = importlib.import_module(f"{spans.PACKAGE}.{short}")
        missing = [name for name in names if not callable(getattr(module, name, None))]
        assert not missing, (short, missing)
