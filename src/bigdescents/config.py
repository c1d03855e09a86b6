"""Size guards and defaults, held in one `Limits` value.

Exhaustive enumeration over S_n grows factorially and over avoider classes
like the Catalan numbers, so every brute-force entry point is guarded.  The
defaults below keep any single call comfortably inside a desk-scale budget;
reproduction scripts rely on the hard defaults.  A caller that needs more
passes ``limits=Limits(...)`` (or ``DEFAULT_LIMITS._replace(...)``); the
CLI builds that value from a JSON config file and, for `table` and `qsym`,
from ``--max-n``.  `Limits.check` is the one place a job over a
guard is refused.
"""

from __future__ import annotations

import json
from typing import NamedTuple

from .errors import BudgetError


class Limits(NamedTuple):
    """Hard defaults for enumeration budgets and expansion orders."""

    # enumerate_avoiders / distribution_table over the full symmetric group
    avoider_guard_empty: int = 11
    # ... and over a nonempty pattern class
    avoider_guard_patterns: int = 14
    # quasisymmetric sums enumerate avoiders of weight n
    qsym_guard: int = 8
    # default truncation order for generating function expansions
    series_order: int = 12
    # ... and the largest order an expansion admits
    series_guard: int = 30
    # the longest r-Eulerian recurrence (eulerian_r's n, carlitz_lhs_coeff's
    # n + r); its cost grows about as n^3
    eulerian_guard: int = 500
    # the largest n of a closed counting formula; its values stay below 4^n,
    # 3,011 digits at n = 5000, inside Python's 4300-digit printing limit
    formula_guard: int = 5000
    # starting line index for b-file output
    bfile_offset: int = 1

    def validated(self) -> "Limits":
        """Refuse a field that is not an int (bools included) and a guard
        that is not positive; only ``bfile_offset`` may be zero or less."""
        for name, value in zip(self._fields, self):
            if type(value) is not int:
                raise ValueError(f"guard {name} must be an integer, "
                                 f"not {value!r}")
            if value <= 0 and name != "bfile_offset":
                raise ValueError(f"guard {name} must be positive")
        return self

    def check(self, guard: str, n: int, size: int | None = None) -> None:
        """Refuse a job of size n above the guard field named `guard`."""
        limit = getattr(self, guard)
        if n > limit:
            raise BudgetError(f"n={n} exceeds guard {guard}={limit}"
                              + ("" if size is None else f" ({size} permutations)"))


DEFAULT_LIMITS = Limits()


def load_limits(path: str) -> Limits:
    """Read guard overrides from a JSON object keyed by field name."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        reason = exc.strerror if isinstance(exc, OSError) else exc
        raise ValueError(f"cannot read config {path!r}: {reason}") from None
    if not isinstance(data, dict):
        raise ValueError(f"config {path!r} must hold a JSON object, "
                         f"not {type(data).__name__}")
    unknown = set(data) - set(Limits._fields)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    return Limits(**data).validated()
