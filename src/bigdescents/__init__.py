"""Exact enumeration of big-descent statistics over pattern-avoiding
permutations: permutation and lattice-path statistics, the bijections
relating them, generating functions with exact rational coefficients,
quasisymmetric/Schur expansions, and conjecture checkers."""

from .algebra import MultiPoly, TruncatedSeries
from .bijections import BIJECTIONS, apply, invert, verify_transfer
from .config import DEFAULT_LIMITS, Limits
from .conjectures import conjecture_scan, is_real_rooted
from .genfun import (carlitz_verify, catalan, eulerian_r, expand,
                     expand_by_peak_insertion, expand_functional, formula)
from .paths import (BinaryWord, DyckPath, TwoMotzkinPath, occ_factor,
                    path_statistic)
from .perms import (DistributionTable, contains, distribution_rows,
                    distribution_table, enumerate_avoiders, standardize,
                    statistic)
from .symfunc import (QsymExpansion, SymExpansion, is_schur_positive, qsym_sum,
                      schur_expand)

__version__ = "1.0.0"

__all__ = [
    "MultiPoly", "TruncatedSeries",
    "BIJECTIONS", "apply", "invert", "verify_transfer",
    "DEFAULT_LIMITS", "Limits",
    "conjecture_scan", "is_real_rooted",
    "carlitz_verify", "catalan", "eulerian_r", "expand",
    "expand_by_peak_insertion", "expand_functional", "formula",
    "BinaryWord", "DyckPath", "TwoMotzkinPath", "occ_factor",
    "path_statistic",
    "DistributionTable", "contains", "distribution_rows",
    "distribution_table", "enumerate_avoiders", "standardize", "statistic",
    "QsymExpansion", "SymExpansion", "is_schur_positive", "qsym_sum",
    "schur_expand",
    "__version__",
]
