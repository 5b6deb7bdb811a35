"""The bench tracer patches library functions by module and attribute name.

A renamed or moved function would only surface when the bench runs with
``--trace 1``; resolving every target here makes it fail the test suite too.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves():
    tracer = _load_tracer()
    assert tracer.TARGETS
    for target in tracer.TARGETS:
        module_name, attr = target[2:]
        importlib.import_module(module_name)
        assert callable(tracer._resolve(module_name, attr)[3]), target
