"""The benchmark's tracer wraps program functions by module and name, so
renaming or deleting one of them breaks the traced run; this catches it
in the test suite."""

import importlib
import types
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    """bench/tracing.py as a module, run from its source text so that
    nothing is written beside it."""
    module = types.ModuleType("bench_tracing")
    code = compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec")
    exec(code, module.__dict__)
    return module


def test_every_traced_name_resolves():
    spans = load_tracing().SPANS
    assert spans
    for name, module, attr in spans:
        owner = importlib.import_module(module)
        if "." in attr:  # a method, which the tracer reads from the class
            cls_name, meth = attr.split(".")
            assert meth in vars(getattr(owner, cls_name)), (name, attr)
        else:
            assert callable(getattr(owner, attr, None)), (name, attr)
    # the tracer counts two-sided cover escapes by this exception
    completeness = importlib.import_module("quasimod.completeness")
    assert issubclass(completeness.CellInclusionError, Exception)
