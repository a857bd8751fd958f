"""What importing a gl2ext module loads, each time in a fresh interpreter."""

import importlib.util
import os
import pathlib
import subprocess
import sys

import gl2ext

LAYERS = {f"gl2ext.{name}" for name in ("paths", "lambda_basis", "tower", "series", "oracle", "verify")}


def _loaded_after(module: str) -> set[str]:
    """The gl2ext modules in ``sys.modules`` after a fresh ``import module``."""
    src = os.path.dirname(os.path.dirname(gl2ext.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = f"import sys, {module}; print(' '.join(m for m in sys.modules if m.split('.')[0] == 'gl2ext'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    return set(out.split())


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
    # module up in sys.modules after importing gl2ext.cli; a layer imported
    # lazily would make ``bench/run.py --trace 1`` fail with a KeyError
    assert LAYERS <= _loaded_after("gl2ext.cli")


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
