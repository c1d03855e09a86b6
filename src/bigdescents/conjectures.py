"""Exact checkers for real-rootedness, log-concavity, and related identities.

Polynomials here are univariate in t with exact rational coefficients,
represented as coefficient lists (index = degree).  Root counting is fully
exact: Sturm's theorem on the radical (squarefree part), with multiplicities
recovered from Yun's squarefree decomposition.  There is no floating-point
root finding anywhere.

Conventions: the zero polynomial is rejected by the root counters; constants
and degree-1 polynomials count as (vacuously) real-rooted.  Scans over
distribution polynomials treat an identically-zero distribution (an empty
avoider class) as vacuously satisfying every property.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .config import DEFAULT_LIMITS, Limits
from .errors import BudgetError, InexactDivisionError
from .perms import distribution_rows, distribution_table
from .wilf import (ALL_PAIRS, ALL_SINGLETONS, NON_REAL_ROOTED_CLASS, PatternTuple)

Poly = list[Fraction]


# ---------------------------------------------------------------------------
# univariate polynomial helpers
# ---------------------------------------------------------------------------

def poly(coeffs: Sequence) -> Poly:
    out = [Fraction(c) for c in coeffs]
    while len(out) > 1 and not out[-1]:
        out.pop()
    return out or [Fraction(0)]


def degree(p: Poly) -> int:
    return -1 if is_zero(p) else len(p) - 1


def is_zero(p: Poly) -> bool:
    return all(not c for c in p)


def poly_mul(a: Poly, b: Poly) -> Poly:
    if is_zero(a) or is_zero(b):
        return [Fraction(0)]
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return poly(out)


def poly_add(a: Poly, b: Poly) -> Poly:
    out = [Fraction(0)] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, y in enumerate(b):
        out[i] += y
    return poly(out)


def poly_sub(a: Poly, b: Poly) -> Poly:
    return poly_add(a, [-c for c in b])


def poly_derivative(p: Poly) -> Poly:
    return poly([i * c for i, c in enumerate(p)][1:] or [0])


def poly_divmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    if is_zero(b):
        raise ZeroDivisionError("polynomial division by zero")
    a = poly(a)
    b = poly(b)
    q = [Fraction(0)] * max(1, len(a) - len(b) + 1)
    r = list(a)
    db, lead = len(b) - 1, b[-1]
    while not is_zero(r) and len(r) - 1 >= db:
        shift = len(r) - 1 - db
        factor = r[-1] / lead
        q[shift] = factor
        for i, c in enumerate(b):
            r[shift + i] -= factor * c
        r = poly(r)
        if not is_zero(r) and len(r) - 1 >= shift + db:
            raise ArithmeticError("leading term failed to cancel")
    return poly(q), r


def poly_gcd(a: Poly, b: Poly) -> Poly:
    a, b = poly(a), poly(b)
    while not is_zero(b):
        a, b = b, poly_divmod(a, b)[1]
    if is_zero(a):
        return a
    return poly([c / a[-1] for c in a])  # monic


def radical(p: Poly) -> Poly:
    """Product of the distinct irreducible factors: p / gcd(p, p')."""
    if is_zero(p):
        raise ValueError("the zero polynomial has no radical")
    if degree(p) == 0:
        return poly([1])
    g = poly_gcd(p, poly_derivative(p))
    q, r = poly_divmod(p, g)
    if not is_zero(r):
        raise InexactDivisionError(f"gcd {g} does not divide {p}")
    return q


def squarefree_decomposition(p: Poly) -> list[tuple[Poly, int]]:
    """Yun's algorithm: p = c * prod q_i^i with the q_i squarefree, coprime."""
    if is_zero(p):
        raise ValueError("the zero polynomial has no squarefree decomposition")
    if degree(p) == 0:
        return []
    dp = poly_derivative(p)
    a = poly_gcd(p, dp)
    b = poly_divmod(p, a)[0]
    c = poly_divmod(dp, a)[0]
    d = poly_sub(c, poly_derivative(b))
    out: list[tuple[Poly, int]] = []
    i = 1
    while degree(b) > 0:
        a = poly_gcd(b, d)
        if degree(a) > 0:
            out.append((a, i))
        b, _ = poly_divmod(b, a)
        c, _ = poly_divmod(d, a)
        d = poly_sub(c, poly_derivative(b))
        i += 1
    return out


def _sign_at_plus_inf(p: Poly) -> int:
    return 1 if p[-1] > 0 else -1


def _sign_at_minus_inf(p: Poly) -> int:
    s = _sign_at_plus_inf(p)
    return s if degree(p) % 2 == 0 else -s


def _sign_changes(signs: list[int]) -> int:
    filtered = [s for s in signs if s]
    return sum(1 for a, b in zip(filtered, filtered[1:]) if a != b)


def sturm_distinct_real_roots(p: Poly) -> int:
    """Distinct real roots of a nonzero polynomial via a Sturm chain.

    The chain is built on the radical, so multiple roots are counted once.
    """
    if is_zero(p):
        raise ValueError("the zero polynomial is excluded")
    r = radical(p)
    if degree(r) == 0:
        return 0
    chain = [r, poly_derivative(r)]
    while degree(chain[-1]) >= 0 and not is_zero(chain[-1]):
        rem = poly_divmod(chain[-2], chain[-1])[1]
        if is_zero(rem):
            break
        chain.append([-c for c in rem])
    at_minus = [_sign_at_minus_inf(q) for q in chain if not is_zero(q)]
    at_plus = [_sign_at_plus_inf(q) for q in chain if not is_zero(q)]
    return _sign_changes(at_minus) - _sign_changes(at_plus)


def real_root_count(p: Sequence) -> int:
    """Number of real roots counted without multiplicity."""
    return sturm_distinct_real_roots(poly(p))


def real_root_count_with_multiplicity(p: Sequence) -> int:
    q = poly(p)
    if is_zero(q):
        raise ValueError("the zero polynomial is excluded")
    return sum(mult * sturm_distinct_real_roots(factor)
               for factor, mult in squarefree_decomposition(q))


def is_real_rooted(p: Sequence) -> bool:
    """All roots real (degree <= 1 and nonzero constants are vacuous truths)."""
    q = poly(p)
    if is_zero(q):
        raise ValueError("the zero polynomial is excluded")
    d = degree(q)
    if d <= 1:
        return True
    return real_root_count_with_multiplicity(q) == d


def is_log_concave(counts: Sequence[int]) -> bool:
    """c_k^2 >= c_{k-1} c_{k+1} at every interior index, literally."""
    seq = list(counts)
    return all(seq[k] ** 2 >= seq[k - 1] * seq[k + 1]
               for k in range(1, len(seq) - 1))


def is_unimodal(counts: Sequence[int]) -> bool:
    seq = list(counts)
    k = 0
    while k + 1 < len(seq) and seq[k] <= seq[k + 1]:
        k += 1
    while k + 1 < len(seq) and seq[k] >= seq[k + 1]:
        k += 1
    return k == len(seq) - 1


# ---------------------------------------------------------------------------
# the 231-avoider identities
# ---------------------------------------------------------------------------

def branden_check(n: int) -> bool:
    """Exact check of A_n(t) = ((1+t)/2)^(n-1) P_n(4t/(1+t)^2) over the
    231-avoiders, where A counts descents and P counts peaks.

    Cleared of denominators: 2^(n-1) A_n(t) must equal
    sum_k p_k 4^k t^k (1+t)^(n-1-2k), a polynomial identity since peaks
    never exceed (n-1)/2.
    """
    if n < 1:
        raise ValueError("defined for n >= 1")
    a_poly = distribution_table(n, ((2, 3, 1),), "des").poly()
    p_poly = distribution_table(n, ((2, 3, 1),), "pk").poly()
    lhs = poly([c * 2 ** (n - 1) for c in a_poly])
    rhs = [Fraction(0)]
    one_plus_t = poly([1, 1])
    for k, coeff in enumerate(p_poly):
        if not coeff:
            continue
        if n - 1 - 2 * k < 0:
            return False
        term = poly([0] * k + [coeff * 4 ** k])
        power = poly([1])
        for _ in range(n - 1 - 2 * k):
            power = poly_mul(power, one_plus_t)
        rhs = poly_add(rhs, poly_mul(term, power))
    return lhs == poly(rhs)


def stembridge_consistency(n: int) -> bool:
    """Both 231-avoider polynomials (descents and peaks) real-rooted, and the
    substitution-equivalence they should satisfy observed: equal verdicts."""
    a_rooted = is_real_rooted(distribution_table(n, ((2, 3, 1),), "des").poly())
    p_rooted = is_real_rooted(distribution_table(n, ((2, 3, 1),), "pk").poly())
    return a_rooted == p_rooted and a_rooted


# ---------------------------------------------------------------------------
# conjecture scans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScanRecord:
    patterns: PatternTuple
    n: int
    holds: bool
    expected: bool
    witness: str | None

    def as_predicted(self) -> bool:
        return self.holds == self.expected

    def to_json(self) -> dict:
        return {
            "patterns": ["".join(map(str, p)) for p in self.patterns],
            "n": self.n, "holds": self.holds, "expected": self.expected,
            "witness": self.witness,
        }


@dataclass(frozen=True)
class ScanReport:
    which: str
    max_n: int
    records: tuple[ScanRecord, ...]

    def all_as_predicted(self) -> bool:
        ok = all(r.as_predicted() for r in self.records if r.expected)
        # For classes where failure is predicted, at least one failure must
        # actually be observed within the scanned range.
        predicted_failures = [r for r in self.records if not r.expected]
        if predicted_failures:
            by_class: dict[PatternTuple, bool] = {}
            for r in predicted_failures:
                by_class[r.patterns] = by_class.get(r.patterns, False) or not r.holds
            ok = ok and all(by_class.values())
        return ok

    def to_json(self) -> dict:
        return {"which": self.which, "max_n": self.max_n,
                "as_predicted": self.all_as_predicted(),
                "records": [r.to_json() for r in self.records]}


_SCAN_TARGETS = ALL_SINGLETONS + ALL_PAIRS
_SCHUR_TARGETS: tuple[PatternTuple, ...] = ((), ((1, 2, 3),), ((1, 2, 3, 4),))


def conjecture_scan(which: str, max_n: int,
                    limits: Limits = DEFAULT_LIMITS) -> ScanReport:
    """Scan a property over the size-1 and size-2 avoidance classes.

    which: real_rooted | log_concave | unimodal | schur_positive.
    Failures are data, not errors; each record carries the verdict, the
    predicted verdict, and a witness when the property fails.
    """
    records: list[ScanRecord] = []
    if which in ("real_rooted", "log_concave", "unimodal"):
        for patterns in _SCAN_TARGETS:
            expected_fail = (which == "real_rooted"
                             and patterns in NON_REAL_ROOTED_CLASS)
            for table in distribution_rows(max_n, patterns, "bdes",
                                           limits=limits):
                counts = table.counts
                p = poly(counts)
                if which == "real_rooted":
                    if is_zero(p):
                        holds, witness = True, None
                    else:
                        holds = is_real_rooted(p)
                        witness = None if holds else (
                            f"{real_root_count_with_multiplicity(p)} real roots "
                            f"with multiplicity, degree {degree(p)}")
                elif which == "log_concave":
                    holds = is_log_concave(counts)
                    witness = None if holds else next(
                        f"index {k}: {counts[k]}^2 < {counts[k-1]}*{counts[k+1]}"
                        for k in range(1, len(counts) - 1)
                        if counts[k] ** 2 < counts[k - 1] * counts[k + 1])
                else:
                    holds = is_unimodal(counts)
                    witness = None if holds else "interior dip"
                records.append(ScanRecord(
                    patterns=patterns, n=table.n, holds=holds,
                    expected=not expected_fail, witness=witness))
        return ScanReport(which=which, max_n=max_n, records=tuple(records))
    if which == "schur_positive":
        from .symfunc import asymmetry_witness, is_schur_positive, qsym_sum, schur_expand
        if max_n > limits.qsym_guard:
            raise BudgetError(f"max_n={max_n} exceeds qsym_guard={limits.qsym_guard}")
        for patterns in _SCHUR_TARGETS:
            for n in range(max_n + 1):
                q = qsym_sum(n, patterns, r=1, limits=limits)
                witness = None
                bad = asymmetry_witness(q)
                if bad is not None:
                    holds = False
                    witness = f"not symmetric: {bad[0]} vs {bad[1]}"
                else:
                    expansion = schur_expand(q)
                    holds = is_schur_positive(expansion)
                    if not holds:
                        witness = str(min(
                            (lam for lam, c in expansion.coeffs.items() if c < 0)))
                records.append(ScanRecord(patterns=patterns, n=n, holds=holds,
                                          expected=True, witness=witness))
        return ScanReport(which=which, max_n=max_n, records=tuple(records))
    raise ValueError(f"unknown scan {which!r}")
