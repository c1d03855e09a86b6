"""Exact enumeration of big-descent statistics over pattern-avoiding
permutations: permutation and lattice-path statistics, the bijections
relating them, generating functions with exact rational coefficients,
quasisymmetric/Schur expansions, and conjecture checkers.

Every submodule but ``cli`` and ``merged`` is registered in ``sys.modules``
on import, through ``importlib.util.LazyLoader``, and compiled and run on
the first read of one of its attributes; the names below resolve on first
access (PEP 562).  So a CLI job compiles only the modules its command runs.
``cli`` is left to a normal import, so that ``python -m bigdescents.cli``
runs it once; ``merged`` is imported by the first walk that needs it."""

import importlib.util
import sys

_EXPORTS = {
    "algebra": ("MultiPoly", "TruncatedSeries"),
    "bijections": ("BIJECTIONS", "apply", "invert", "verify_transfer"),
    "config": ("DEFAULT_LIMITS", "Limits"),
    "conjectures": ("conjecture_scan", "is_real_rooted"),
    "genfun": ("carlitz_verify", "catalan", "eulerian_r", "expand",
               "expand_by_peak_insertion", "expand_functional", "formula"),
    "paths": ("BinaryWord", "DyckPath", "TwoMotzkinPath", "occ_factor",
              "path_statistic"),
    "perms": ("DistributionTable", "contains", "distribution_rows",
              "distribution_table", "enumerate_avoiders", "standardize",
              "statistic"),
    "symfunc": ("QsymExpansion", "SymExpansion", "is_schur_positive",
                "qsym_sum", "schur_expand"),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items()
           for name in names}

__version__ = "1.0.0"

__all__ = [*_ORIGIN, "__version__"]

for _name in ("algebra", "bijections", "config", "conjectures", "errors",
              "genfun", "paths", "perms", "symfunc", "values", "verify",
              "wilf"):
    _spec = importlib.util.find_spec(f"{__name__}.{_name}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    globals()[_name] = sys.modules[_spec.name] = \
        importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(globals()[_name])
del _name, _spec


def __getattr__(name):
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(globals()[_ORIGIN[name]], name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
