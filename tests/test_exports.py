"""The package's public names."""

import ast
import hashlib
import importlib
import importlib.util
import json
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bigdescents
from bigdescents.cli import _COMMANDS

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
    assert set(names) - set(dir(bigdescents)) == set()


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
    """Every CLI process registers the whole package in ``sys.modules`` (the
    tracer wraps modules it finds there; each is loaded on the first read of
    one of its attributes) and never pulls in ``dataclasses`` or ``inspect``,
    whose import and generated methods would slow the start-up of every
    job."""
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


_LOG_COMPILES = """\
import importlib._bootstrap_external as bootstrap, json, runpy, sys
compiled = []
source_to_code = bootstrap.SourceLoader.source_to_code
def logged(self, data, path, *args, **kwargs):
    compiled.append(str(path))
    return source_to_code(self, data, path, *args, **kwargs)
bootstrap.SourceLoader.source_to_code = logged
sys.argv[0] = "bigdescents"
try:
    runpy.run_module("bigdescents.cli", run_name="__main__", alter_sys=True)
finally:
    print(json.dumps(compiled), file=sys.stderr)
"""


@pytest.mark.parametrize("argv, walks", [
    ("table --patterns 231 --n 6", True),
    ("table --patterns 1234 --n 6", False),
    ("verify --scope all --max-n 4", True),
    ("series --id B132 --order 5", False),
    ("bijection --id chi --verify-n 5", False),
    ("qsym --patterns 123 --n 5", True),
    ("conjecture --which schur-positive --max-n 4", True),
    ("--conf {config} formula --id b231 --n 7 --k 3", False),
])
def test_each_command_compiles_its_own_modules(tmp_path, argv, walks):
    """A fresh interpreter on a copy of the package with no bytecode
    compiles the package, ``cli``, ``config`` and ``errors``, then the
    command's modules in the order of its load tuple, and ``merged`` only
    when the job walks a class on it."""
    shutil.copytree(SRC, tmp_path / "bigdescents",
                    ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "limits.json").write_text("{}")
    words = shlex.split(argv.format(config=tmp_path / "limits.json"))
    done = subprocess.run(
        [sys.executable, "-B", "-c", _LOG_COMPILES, *words],
        capture_output=True, text=True, env={"PYTHONPATH": str(tmp_path)})
    assert done.returncode == 0, done.stderr
    package = tmp_path / "bigdescents"
    compiled = [Path(path).stem for path in
                json.loads(done.stderr.splitlines()[-1])
                if Path(path).parent == package]
    command = next(word for word in words if word in _COMMANDS)
    assert compiled == ["__init__", "cli", "config", "errors",
                        *_COMMANDS[command][1]] + ["merged"] * walks


def test_tracer_wraps_every_layer():
    """With the modules registered lazily, the benchmark's tracer still
    loads and wraps every layer it names, and ``cli.main`` is its span."""
    script = f"""\
import contextlib, importlib.util, io, json, sys
import bigdescents.cli
spec = importlib.util.spec_from_file_location("tracer", {str(TRACER)!r})
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
trace = tracer.Tracer()
tracer.install(trace)
with contextlib.redirect_stdout(io.StringIO()):
    codes = [bigdescents.cli.main(["table", "--patterns", "231", "--n", "6"]),
             bigdescents.cli.main(["series", "--id", "B132", "--order", "5"])]
plain = []
for name, module_name, attr, _, _ in tracer.LAYERS:
    holder = sys.modules["bigdescents." + module_name]
    owner, _, target = attr.rpartition(".")
    if owner:
        holder = getattr(holder, owner)
    if not hasattr(vars(holder)[target], "__wrapped__"):
        plain.append(name)
print(json.dumps([codes, plain, trace.stats["cli.main"][0]]))
"""
    out = subprocess.run([sys.executable, "-B", "-c", script], check=True,
                         capture_output=True, text=True,
                         env={"PYTHONPATH": str(ROOT / "src")}).stdout
    assert json.loads(out) == [[0, 0], [], 2]


@pytest.mark.parametrize("argv", [
    "table --patterns 231 --n 8 --stat bdes",
    "verify --scope all --max-n 8",
    "series --id B132 --order 10 --route both",
    "bijection --id chi --apply 2413756",
    "qsym --patterns 123 --n 5 --basis schur",
    "conjecture --which real-rooted --max-n 10",
    "formula --id b231 --n 7 --k 3",
])
def test_module_run_raises_no_warning(argv):
    """``python -W error -m bigdescents.cli`` prints each command's golden
    stdout and nothing on stderr: runpy warns when the module it runs is
    already in ``sys.modules``, and a loader may warn on import."""
    golden = json.loads((ROOT / "bench" / "golden.json").read_text())[argv]
    done = subprocess.run(
        [sys.executable, "-B", "-W", "error", "-m", "bigdescents.cli",
         *shlex.split(argv)], capture_output=True,
        env={"PYTHONPATH": str(ROOT / "src")})
    assert (done.returncode, hashlib.sha256(done.stdout).hexdigest(),
            done.stderr) == (golden["exit"], golden["sha256"], b"")


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
