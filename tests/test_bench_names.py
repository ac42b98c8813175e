"""The benchmark's tracer wraps program functions by name: every name it
lists must exist, or each traced benchmark run fails at install."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "wfbench" / "tracer.py"


def load_tracer():
    """Import wfbench/tracer.py without writing a bytecode cache beside it."""
    spec = importlib.util.spec_from_file_location("wfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


@pytest.mark.parametrize("target", [t for t, _ in load_tracer().TRACED])
def test_traced_name_resolves_to_a_callable(target):
    mod_name, attr = target.split(".")
    assert mod_name in ("data", "melfb", "net", "tdfb")
    module = importlib.import_module(f"wavefront.{mod_name}")
    assert callable(getattr(module, attr, None)), target


def test_feature_provider_factory_exists():
    from wavefront import net

    assert callable(net.make_feature_provider)
