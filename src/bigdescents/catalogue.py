"""Catalogue of enumeration routes per avoidance class.

Each size-1 or size-2 pattern class with a known enumeration carries a
``rows(N)`` callable: its big-descent rows b(n, 0..) for n = 0..N, read off
a generating function expanded through order N or evaluated from a closed
counting formula b(n, k).  Brute-force enumeration is the oracle for both.
"""

from __future__ import annotations

from functools import partial

from . import genfun
from .perms import parse_pattern_set


def _series_rows(gf_id: str, N: int) -> list[list[int]]:
    series = genfun.expand(gf_id, N)
    return [genfun.series_row(series, n) for n in range(N + 1)]


def _formula_rows(b, N: int) -> list[list[int]]:
    return [[b(n, k) for k in range(n + 1)] for n in range(N + 1)]


def _series(gf_id: str, patterns: str):
    return (f"series:{gf_id}", parse_pattern_set(patterns),
            partial(_series_rows, gf_id))


def _formula(b, patterns: str):
    return (f"formula:{b.__name__}", parse_pattern_set(patterns),
            partial(_formula_rows, b))


# (label, pattern set, rows)
TABLE_CLASS_ROUTES: tuple[tuple[str, tuple, object], ...] = (
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
