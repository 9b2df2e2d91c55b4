"""The benchmark's traced run resolves every name it patches.

perfbench/tracer.py wraps library functions by name, and its install()
raises when a target has lost its binding.  Loading the tracer as it is
and installing it here makes a deleted or renamed traced name fail this
test instead of the traced benchmark run.
"""

import importlib.util
from pathlib import Path

from brauerloop import psitable

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    original = psitable.compute_table
    tracer = module.Tracer()
    try:
        tracer.install()
        assert psitable.compute_table is not original
    finally:
        tracer.uninstall()
    assert psitable.compute_table is original
