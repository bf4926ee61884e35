import importlib
import importlib.util
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "qbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("qbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    # the tracer looks each name up with no default, so a renamed or deleted
    # entry point would break every traced benchmark run
    tracer = load_tracer()
    missing = [
        f"qspex.{layer}.{name}"
        for layer, names in tracer.TRACED.items()
        for name in names
        if not inspect.isfunction(getattr(importlib.import_module(f"qspex.{layer}"), name, None))
    ]
    assert missing == []
    traced = {f"{layer}.{name}" for layer, names in tracer.TRACED.items() for name in names}
    assert {span for spans in tracer.GROUPS.values() for span in spans} <= traced
