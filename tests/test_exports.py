"""The package's public names."""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import bigdescents

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "bench" / "tracer.py"


def _traced_layers():
    spec = importlib.util.spec_from_file_location("tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.LAYERS


def test_every_export_resolves_once():
    names = bigdescents.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(bigdescents, name)] == []


def test_traced_layers_resolve():
    """Every function the benchmark's tracer wraps still exists where its
    ``install`` looks: a method in its own class's ``__dict__`` (an inherited
    one would not be wrapped), anything else in its module.  So deleting
    one, say ``TruncatedSeries.sqrt``, fails here rather than inside a
    traced benchmark job."""
    missing = []
    for name, module_name, attr, _, _ in _traced_layers():
        holder = importlib.import_module(f"bigdescents.{module_name}")
        owner, _, target = attr.rpartition(".")
        if owner:
            holder = getattr(holder, owner, None)
        if not callable(vars(holder).get(target) if holder else None):
            missing.append(name)
    assert missing == []


def test_cli_import_set():
    """Every CLI process imports the package whole (the tracer wraps modules
    it finds loaded) and never pulls in ``dataclasses`` or ``inspect``, whose
    import and generated methods would slow the start-up of every job."""
    script = ("import json, sys, bigdescents.cli\n"
              "print(json.dumps(sorted(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-B", "-c", script],
                         check=True, capture_output=True, text=True,
                         env={"PYTHONPATH": str(ROOT / "src")}).stdout
    loaded = set(json.loads(out))
    assert {"dataclasses", "inspect"} & loaded == set()
    wanted = {f"bigdescents.{module_name}"
              for _, module_name, _, _, _ in _traced_layers()}
    assert wanted - loaded == set()
