"""Equivalence classes of the big-descent distribution over avoider classes.

Two pattern sets are bdes-Wilf equivalent when the distribution of big
descents over their avoider classes agrees for every length.  Replacing a set
by its reverse-complement image is always such an equivalence (the trivial
ones).  The partitions below are the complete classifications for all pattern
sets of size 1 and size 2 inside S_3; ``class_partition_report`` re-derives
them by exhaustive pairwise comparison, which is how the package certifies
the classification.  Each set's rows for lengths 0..max_n come from one
walk of its generating tree (``perms.distribution_rows``).

``TABLE_CLASS_ROUTES`` gives every class at least one enumeration route: a
pattern set of the class with a ``rows(N)`` callable that returns its
big-descent rows b(n, 0..) for n = 0..N, read off a generating function
expanded through order N or evaluated from a closed counting formula
b(n, k).  Brute-force enumeration is the oracle for both.  ``verify`` prints
the class comparisons in class order and the route checks in route order,
so the two tables keep their own orders.
"""

from __future__ import annotations

from functools import partial
from typing import NamedTuple

from . import genfun
from .config import DEFAULT_LIMITS, Limits
from .perms import Perm, distribution_rows, parse_pattern_set as _ps

PatternTuple = tuple[Perm, ...]

SINGLETON_CLASSES: tuple[tuple[PatternTuple, ...], ...] = (
    (_ps("231"), _ps("312")),
    (_ps("132"), _ps("213")),
    (_ps("123"),),
    (_ps("321"),),
)

PAIR_CLASSES: tuple[tuple[PatternTuple, ...], ...] = (
    (_ps("213,231"), _ps("132,312"), _ps("213,312"), _ps("132,231")),
    (_ps("231,321"), _ps("312,321")),
    (_ps("123,231"), _ps("123,312")),
    (_ps("132,321"), _ps("213,321")),
    (_ps("123,132"), _ps("123,213"), _ps("132,213")),
    (_ps("123,321"),),
    (_ps("231,312"),),
)

ALL_SINGLETONS: tuple[PatternTuple, ...] = tuple(
    ps for cls in SINGLETON_CLASSES for ps in cls)
ALL_PAIRS: tuple[PatternTuple, ...] = tuple(
    ps for cls in PAIR_CLASSES for ps in cls)

# The one class whose distribution polynomials are not always real-rooted.
NON_REAL_ROOTED_CLASS: tuple[PatternTuple, ...] = (
    _ps("123,132"), _ps("123,213"), _ps("132,213"))


def _series_rows(gf_id: str, N: int) -> list[list[int]]:
    series = genfun.expand(gf_id, N)
    return [genfun.series_row(series, n) for n in range(N + 1)]


def _formula_rows(b, N: int) -> list[list[int]]:
    return [[b(n, k) for k in range(n + 1)] for n in range(N + 1)]


def _series(gf_id: str, patterns: str):
    return (f"series:{gf_id}", _ps(patterns), partial(_series_rows, gf_id))


def _formula(b, patterns: str):
    return (f"formula:{b.__name__}", _ps(patterns), partial(_formula_rows, b))


# (label, pattern set, rows)
TABLE_CLASS_ROUTES: tuple[tuple[str, PatternTuple, object], ...] = (
    _series("B132", "132"),
    _formula(genfun.b231, "231"),
    _series("B321", "321"),
    _formula(genfun.b123, "123"),
    _formula(genfun.b213_231, "213,231"),
    _formula(genfun.b213_312, "213,312"),
    _series("B123_132", "123,132"),
    _series("B132_213", "132,213"),
    _series("B231_321", "231,321"),
    _formula(genfun.b123_231, "123,231"),
    _formula(genfun.b132_321, "132,321"),
    _formula(genfun.b231_312, "231,312"),
    _series("B123_321", "123,321"),
)


def class_of(patterns: PatternTuple) -> tuple[PatternTuple, ...] | None:
    for cls in SINGLETON_CLASSES + PAIR_CLASSES:
        if tuple(sorted(patterns)) in cls:
            return cls
    return None


class ClassComparison(NamedTuple):
    left: PatternTuple
    right: PatternTuple
    same_class: bool
    witness_n: int | None       # smallest n where the distributions differ

    def consistent(self) -> bool:
        """Equal iff predicted equal, with a witness when predicted unequal."""
        return (self.witness_n is None) == self.same_class


class PartitionReport(NamedTuple):
    max_n: int
    comparisons: tuple[ClassComparison, ...]

    def failures(self) -> list[ClassComparison]:
        return [c for c in self.comparisons if not c.consistent()]


def class_partition_report(max_n: int,
                           limits: Limits = DEFAULT_LIMITS) -> PartitionReport:
    """Compare bdes distributions pairwise within each size.

    Every pair inside a listed class must agree for all n <= max_n, and every
    cross-class pair must exhibit a witness length.
    """
    comparisons: list[ClassComparison] = []
    for family in (ALL_SINGLETONS, ALL_PAIRS):
        rows = {ps: distribution_rows(max_n, ps, "bdes", limits=limits)
                for ps in family}
        for i, left in enumerate(family):
            for right in family[i + 1:]:
                witness = next((a.n for a, b in zip(rows[left], rows[right])
                                if a.counts != b.counts), None)
                comparisons.append(ClassComparison(
                    left=left, right=right,
                    same_class=class_of(left) is class_of(right),
                    witness_n=witness,
                ))
    return PartitionReport(max_n=max_n, comparisons=tuple(comparisons))
