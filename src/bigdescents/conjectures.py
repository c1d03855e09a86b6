"""Exact real-root counting and property scans over avoider distributions.

Polynomials here are univariate in t with exact rational coefficients, held
as ``algebra.MultiPoly`` values; the public entry points also take
coefficient lists (index = degree) and convert them once with ``poly``.
Root counting is fully exact: Sturm's theorem, which counts the distinct
real roots of any nonzero polynomial, and for multiplicities the same count
on each member of the chain p, gcd(p, p'), ..., all on ``MultiPoly.divmod``.
Each Sturm chain ends at the gcd of its polynomial and the derivative, so it
also hands over the next member of that chain.  There is no floating-point
root finding anywhere.

Conventions: the zero polynomial is rejected by the root counters; constants
and degree-1 polynomials count as (vacuously) real-rooted.  Scans over
distribution polynomials treat an identically-zero distribution (an empty
avoider class) as vacuously satisfying every property.

Each scan is one entry of ``SCANS``.  Real-rootedness, log-concavity and
unimodality are ``RowProperty`` values: one witness function, which names
the first failure of a row of counts and returns None where the row has the
property, and the classes predicted to fail it.  ``is_real_rooted`` asks
whether the real-rootedness witness of one nonzero polynomial is None.
"""

from __future__ import annotations

from typing import Callable, Iterator, NamedTuple, Sequence

from .algebra import MultiPoly
from .config import DEFAULT_LIMITS, Limits
from .perms import distribution_rows, format_permutation
from .symfunc import asymmetry_witness, is_schur_positive, qsym_sum, schur_expand
from .wilf import (ALL_PAIRS, ALL_SINGLETONS, NON_REAL_ROOTED_CLASS, PatternTuple)


# ---------------------------------------------------------------------------
# univariate polynomials in t
# ---------------------------------------------------------------------------

def poly(p: MultiPoly | Sequence) -> MultiPoly:
    """A coefficient list (index = degree) as a polynomial in t; a
    ``MultiPoly`` in t alone is returned as it is."""
    if not isinstance(p, MultiPoly):
        return MultiPoly.univariate(p)
    if p.used_vars() - {"t"}:
        raise ValueError(f"{p} is not a polynomial in t alone")
    return p


def degree(p: MultiPoly) -> int:
    """Degree in t; -1 for the zero polynomial."""
    return p.degree("t")


def _sign_changes(signs: list[bool]) -> int:
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _sturm_count(r: MultiPoly) -> tuple[int, MultiPoly]:
    """Distinct real roots of a nonzero polynomial from its Sturm chain, and
    gcd(r, r') made monic.

    The chain ends at gcd(r, r'), up to sign and scale, and dividing every
    member by it changes no sign count, so r need not be squarefree.  Each
    member's sign at +inf is its leading coefficient's; at -inf it flips
    with odd degree.
    """
    if r.is_zero():
        raise ValueError("the zero polynomial has infinitely many roots")
    chain, rem = [r], r.derivative("t")
    while not rem.is_zero():
        chain.append(rem)
        rem = -chain[-2].divmod(rem)[1]
    at_plus = [q.leading_term()[1] > 0 for q in chain]
    at_minus = [s != (degree(q) % 2 == 1) for s, q in zip(at_plus, chain)]
    gcd = chain[-1].exact_div(chain[-1].leading_term()[1])
    return _sign_changes(at_minus) - _sign_changes(at_plus), gcd


def real_root_count_with_multiplicity(p: MultiPoly | Sequence) -> int:
    """A root of multiplicity m is a distinct root of each of g_0 = p,
    g_1 = gcd(g_0, g_0'), ..., g_(m-1), so the distinct counts of the g_j
    that are not constants add up to the count with multiplicity.  Each
    g_(j+1) is the gcd that g_j's own Sturm chain ends at."""
    total, g = _sturm_count(poly(p))
    while degree(g) > 0:
        count, g = _sturm_count(g)
        total += count
    return total


def _real_rooted_witness(p: MultiPoly | Sequence) -> str | None:
    """None when every root is real (the zero polynomial and degree <= 1
    are vacuous truths), else the real roots counted against the degree."""
    q = poly(p)
    d = degree(q)
    roots = real_root_count_with_multiplicity(q) if d > 1 else d
    return None if roots == d else (
        f"{roots} real roots with multiplicity, degree {d}")


def _log_concave_witness(counts: Sequence[int]) -> str | None:
    """The first interior index k with c_k^2 < c_{k-1} c_{k+1}, if any."""
    return next((f"index {k}: {counts[k]}^2 < {counts[k-1]}*{counts[k+1]}"
                 for k in range(1, len(counts) - 1)
                 if counts[k] ** 2 < counts[k - 1] * counts[k + 1]), None)


def _unimodal_witness(counts: Sequence[int]) -> str | None:
    """None when the counts rise weakly and then fall weakly (the empty row
    vacuously)."""
    k = 0
    while k + 1 < len(counts) and counts[k] <= counts[k + 1]:
        k += 1
    while k + 1 < len(counts) and counts[k] >= counts[k + 1]:
        k += 1
    return "interior dip" if k + 1 < len(counts) else None


def is_real_rooted(p: MultiPoly | Sequence) -> bool:
    """All roots real (degree <= 1 and nonzero constants are vacuous truths)."""
    q = poly(p)
    if q.is_zero():
        raise ValueError("the zero polynomial is excluded")
    return _real_rooted_witness(q) is None


# ---------------------------------------------------------------------------
# conjecture scans
# ---------------------------------------------------------------------------

class ScanRecord(NamedTuple):
    patterns: PatternTuple
    n: int
    holds: bool
    expected: bool
    witness: str | None

    def to_json(self) -> dict:
        return {
            "patterns": [format_permutation(p) for p in self.patterns],
            "n": self.n, "holds": self.holds, "expected": self.expected,
            "witness": self.witness,
        }


class ScanReport(NamedTuple):
    which: str
    max_n: int
    records: tuple[ScanRecord, ...]

    def all_as_predicted(self) -> bool:
        """Every record predicted to hold holds, and every class predicted
        to fail fails at some scanned length."""
        predicted = {r.patterns for r in self.records if not r.expected}
        failed = {r.patterns for r in self.records if not r.holds}
        return predicted <= failed and all(
            r.holds for r in self.records if r.expected)

    def to_json(self) -> dict:
        return {"which": self.which, "max_n": self.max_n,
                "as_predicted": self.all_as_predicted(),
                "records": [r.to_json() for r in self.records]}


_SCAN_TARGETS = ALL_SINGLETONS + ALL_PAIRS
_SCHUR_TARGETS: tuple[PatternTuple, ...] = ((), ((1, 2, 3),), ((1, 2, 3, 4),))


class RowProperty(NamedTuple):
    """A property of each bdes distribution row of the size-1 and size-2
    classes.  `witness` maps a row's counts to None when the row has the
    property and to the reason when it does not; each class in
    `predicted_failures` is predicted to fail at some length."""

    witness: Callable[[Sequence[int]], str | None]
    predicted_failures: tuple[PatternTuple, ...] = ()

    def records(self, max_n: int, limits: Limits) -> Iterator[ScanRecord]:
        for patterns in _SCAN_TARGETS:
            expected = patterns not in self.predicted_failures
            for table in distribution_rows(max_n, patterns, "bdes",
                                           limits=limits):
                witness = self.witness(table.counts)
                yield ScanRecord(patterns=patterns, n=table.n,
                                 holds=witness is None, expected=expected,
                                 witness=witness)


def _schur_positive_records(max_n: int,
                            limits: Limits) -> Iterator[ScanRecord]:
    """Schur positivity of the big-descent quasisymmetric sums over S_n and
    its 123- and 1234-avoiders, each predicted to hold."""
    limits.check("qsym_guard", max_n)
    for patterns in _SCHUR_TARGETS:
        for n in range(max_n + 1):
            q = qsym_sum(n, patterns, r=1, limits=limits)
            try:
                expansion = schur_expand(q)
            except ValueError:  # not symmetric
                bad = asymmetry_witness(q)
                witness = f"not symmetric: {bad[0]} vs {bad[1]}"
            else:
                witness = None if is_schur_positive(expansion) else str(min(
                    lam for lam, c in expansion.coeffs.items() if c < 0))
            yield ScanRecord(patterns=patterns, n=n, holds=witness is None,
                             expected=True, witness=witness)


# Every scan by name: the records of lengths 0..max_n under the guards.
SCANS: dict[str, Callable[[int, Limits], Iterator[ScanRecord]]] = {
    "real_rooted": RowProperty(_real_rooted_witness,
                               NON_REAL_ROOTED_CLASS).records,
    "log_concave": RowProperty(_log_concave_witness).records,
    "unimodal": RowProperty(_unimodal_witness).records,
    "schur_positive": _schur_positive_records,
}


def conjecture_scan(which: str, max_n: int,
                    limits: Limits = DEFAULT_LIMITS) -> ScanReport:
    """Scan the property `which`, one of ``SCANS``, at lengths 0..max_n.

    Failures are data, not errors; each record carries the verdict, the
    predicted verdict, and a witness when the property fails.
    """
    if which not in SCANS:
        raise ValueError(f"unknown scan {which!r}")
    if max_n < 0:
        raise ValueError("length must be non-negative")
    return ScanReport(which=which, max_n=max_n,
                      records=tuple(SCANS[which](max_n, limits)))
