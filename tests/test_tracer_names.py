"""Every function the benchmark tracer wraps must still exist under its name."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    # stdlib-only module; loaded from its file without importing the benchmark package
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "layer, fname",
    [(layer, fname) for layer, names in load_tracer().LAYERS.items() for fname in names],
)
def test_traced_function_exists(layer, fname):
    module = importlib.import_module(f"qlorentz.{layer}")
    assert hasattr(module, fname), f"perfbench/tracer.py wraps qlorentz.{layer}.{fname}"
