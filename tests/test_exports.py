"""The package's public names."""

import importlib
import importlib.util
from pathlib import Path

import bigdescents

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_every_export_resolves_once():
    names = bigdescents.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(bigdescents, name)] == []


def test_traced_layers_resolve():
    """Every function the benchmark's tracer wraps still exists, so deleting
    one fails here rather than inside a traced benchmark job."""
    spec = importlib.util.spec_from_file_location("tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for name, module_name, attr, _, _ in tracer.LAYERS:
        obj = importlib.import_module(f"bigdescents.{module_name}")
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if obj is None:
            missing.append(name)
    assert missing == []
