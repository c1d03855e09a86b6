"""The package's public names."""

import ast
import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import bigdescents

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "bench" / "tracer.py"
SRC = ROOT / "src" / "bigdescents"

# The public functions that no other code in the package names, each with the
# reason it stays.
UNCALLED_BY_DESIGN = {
    "perms.enumerate_avoiders": "README entry point",
    "perms.statistic": "README entry point",
    "conjectures.is_real_rooted": "bench/tracer.py wraps it (LAYERS)",
    "symfunc.schur_to_monomial_qsym": "bench/tracer.py wraps it (LAYERS)",
}


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


def _public_functions_without_a_caller():
    """The "module.name" of each public top-level function of the package
    (not counting ``__init__.py``) that no code outside its own body names."""
    defined, users = [], {}  # users: name -> the top-level blocks naming it
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for block in ast.parse(path.read_text()).body:
            owner = (path.stem, getattr(block, "name", None))
            if (isinstance(block, ast.FunctionDef)
                    and not block.name.startswith("_")):
                defined.append(owner)
            for node in ast.walk(block):
                if isinstance(node, ast.Name):
                    users.setdefault(node.id, set()).add(owner)
                elif isinstance(node, ast.Attribute):
                    users.setdefault(node.attr, set()).add(owner)
    return sorted(f"{module}.{name}" for module, name in defined
                  if users.get(name, set()) <= {(module, name)})


def test_every_public_function_has_a_program_caller():
    """A public function that only the tests call is a test oracle: it
    belongs in ``tests/oracles.py``.  The exceptions are exact, so one that
    gains a caller or disappears fails here too."""
    uncalled = _public_functions_without_a_caller()
    unexpected = [name for name in uncalled if name not in UNCALLED_BY_DESIGN]
    assert not unexpected, f"no program caller: {', '.join(unexpected)}"
    stale = sorted(set(UNCALLED_BY_DESIGN) - set(uncalled))
    assert not stale, f"called or gone, yet excepted: {', '.join(stale)}"


def _walk_internals_named_outside_perms():
    """Per module other than ``perms``: its imports of ``merged`` and the
    ``_``-prefixed ``perms`` functions it names."""
    tree = ast.parse((SRC / "perms.py").read_text())
    private = {block.name for block in tree.body
               if isinstance(block, ast.FunctionDef)
               and block.name.startswith("_")}
    found = {}
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "perms":
            continue
        names = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                source = (getattr(node, "module", None) or "").split(".")[-1]
                for alias in node.names:
                    if "merged" in (source, alias.name.split(".")[-1]):
                        names.add("import merged")
                    elif source == "perms" and alias.name in private:
                        names.add(f"perms.{alias.name}")
            elif (isinstance(node, ast.Attribute) and node.attr in private
                  and isinstance(node.value, ast.Name)
                  and node.value.id == "perms"):
                names.add(f"perms.{node.attr}")
        if names:
            found[path.stem] = sorted(names)
    return found


def test_only_perms_walks_a_class():
    """Every walk of an avoider class is chosen and started in ``perms``: no
    other module imports ``merged`` or names a private ``perms`` function,
    so changing one walk edits one module."""
    assert _walk_internals_named_outside_perms() == {}
