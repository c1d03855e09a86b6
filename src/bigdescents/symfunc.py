"""Quasisymmetric functions indexed by descent-type sets, and Schur expansion.

Quasisymmetric functions are held abstractly as coefficient maps on the
monomial quasisymmetric basis M, symmetric ones on the Schur basis s; no
underlying variables are ever expanded.  The fundamental basis element
F_{n,S} for S inside [n-1] is the sum of M_beta over all compositions beta
of n refining the composition determined by S, i.e. M_{alpha(T)} over
supersets T of S.  The descent-set sums read their counts of avoiders by
r-descent set from `perms.descent_set_counts`, which chooses the walk.

Schur expansion of a symmetric input solves against the Kostka matrix
(s_lam = sum over mu of K_{lam,mu} m_mu).  The coefficient of the monomial
symmetric function m_lam in a symmetric input is its coefficient of M_lam,
so the solve reads it straight off the M-expansion.  The matrix is
unitriangular with respect to dominance order; processing partitions in
reverse-lexicographic order (a linear extension of dominance) makes the
solve triangular, and integrality is automatic.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from typing import Iterable, Iterator, Sequence

from .config import DEFAULT_LIMITS, Limits
from .perms import descent_set_counts
from .values import Value

Composition = tuple[int, ...]
Partition = tuple[int, ...]


# ---------------------------------------------------------------------------
# compositions and partitions
# ---------------------------------------------------------------------------

def composition_from_set(n: int, subset: Iterable[int]) -> Composition:
    """The composition of n with partial sums given by the subset of [n-1]."""
    s = sorted(set(subset))
    if s and (s[0] < 1 or s[-1] > n - 1):
        raise ValueError(f"{s} is not a subset of [{n - 1}]")
    bounds = [0] + s + [n]
    if n == 0:
        return ()
    return tuple(b - a for a, b in zip(bounds, bounds[1:]))


def partitions_of(n: int) -> list[Partition]:
    """All partitions of n, in reverse-lexicographic (dominance-compatible) order."""

    def gen(remaining: int, cap: int) -> Iterator[Partition]:
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, cap), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first,) + rest

    return list(gen(n, n))


@lru_cache(maxsize=None)
def kostka(lam: Partition, mu: Partition) -> int:
    """Number of semistandard tableaux of shape lam and content mu.

    Peeling the largest entry removes a horizontal strip, so
    K(lam, mu) = sum over shapes lam' with lam/lam' a horizontal strip of
    size mu_last of K(lam', mu[:-1]).  It is 0 unless lam dominates mu.
    """
    if sum(lam) != sum(mu) or any(
            a < b for a, b in zip(accumulate(lam), accumulate(mu))):
        return 0
    if not mu:
        return 1
    strip = mu[-1]
    rest = mu[:-1]
    total = 0
    for inner in _horizontal_strip_removals(lam, strip):
        total += kostka(inner, rest)
    return total


def _horizontal_strip_removals(lam: Partition, size: int) -> Iterator[Partition]:
    rows = len(lam)

    def walk(i: int, remaining: int, acc: list[int]) -> Iterator[Partition]:
        if i == rows:
            if remaining == 0:
                trimmed = tuple(v for v in acc if v)
                yield trimmed
            return
        lower = lam[i + 1] if i + 1 < rows else 0
        for keep in range(max(lower, lam[i] - remaining), lam[i] + 1):
            acc.append(keep)
            yield from walk(i + 1, remaining - (lam[i] - keep), acc)
            acc.pop()

    yield from walk(0, size, [])


# ---------------------------------------------------------------------------
# expansions
# ---------------------------------------------------------------------------

class _Expansion(Value):
    """Integer combination, of one weight n, of the basis elements named by
    the keys of `coeffs`; zero coefficients are dropped.  It holds a dict,
    so it has no hash."""

    _fields = ("n", "coeffs")
    _noun: str
    __hash__ = None
    n: int
    coeffs: dict[tuple[int, ...], int]

    def __init__(self, n: int, coeffs: dict[tuple[int, ...], int]):
        if n < 0:
            raise ValueError("weight must be non-negative")
        clean = {}
        for key, value in coeffs.items():
            key = tuple(key)
            if sum(key) != n or not self._is_key(key):
                raise ValueError(f"{key} is not a {self._noun} of {n}")
            if value:
                clean[key] = value
        self.__dict__.update(n=n, coeffs=clean)

    def coefficient(self, key: tuple[int, ...]) -> int:
        return self.coeffs.get(tuple(key), 0)


class QsymExpansion(_Expansion):
    """Integer combination of monomial quasisymmetric functions M_alpha of
    one weight."""

    _noun = "composition"

    @staticmethod
    def _is_key(comp: Composition) -> bool:
        return all(p >= 1 for p in comp)


class SymExpansion(_Expansion):
    """Integer combination of Schur functions of one weight."""

    _noun = "partition"

    @staticmethod
    def _is_key(lam: Partition) -> bool:
        return (QsymExpansion._is_key(lam)
                and list(lam) == sorted(lam, reverse=True))


def _mask_to_comp(n: int, mask: int) -> Composition:
    subset = {k + 1 for k in range(max(n - 1, 0)) if mask >> k & 1}
    return composition_from_set(n, subset)


def qsym_fundamental(n: int, patterns: Iterable[Sequence[int]], r: int = 1,
                     limits: Limits = DEFAULT_LIMITS) -> dict[Composition, int]:
    """Sum of F_{n, Des_r(pi)} over the avoiders, in the fundamental basis:
    the number of avoiders keyed by the composition of their descent set."""
    by_mask = descent_set_counts(n, patterns, r, limits)
    return {_mask_to_comp(n, mask): c for mask, c in enumerate(by_mask) if c}


def qsym_sum(n: int, patterns: Iterable[Sequence[int]], r: int = 1,
             limits: Limits = DEFAULT_LIMITS) -> QsymExpansion:
    """Sum of F_{n, Des_r(pi)} over the avoiders of the patterns,
    returned in the monomial quasisymmetric basis."""
    by_mask = descent_set_counts(n, patterns, r, limits)
    m = max(n - 1, 0)
    # subset-sum transform: M-coefficient of alpha(T) sums F-counts over S <= T
    sums = list(by_mask)
    for bit in range(m):
        step = 1 << bit
        for mask in range(1 << m):
            if mask & step:
                sums[mask] += sums[mask ^ step]
    coeffs: dict[Composition, int] = {}
    for mask in range(1 << m):
        if sums[mask]:
            coeffs[_mask_to_comp(n, mask)] = sums[mask]
    return QsymExpansion(n=n, coeffs=coeffs)


def _rearrangements(parts: Sequence[int]) -> Iterator[Composition]:
    """The distinct rearrangements of ``parts``, in lexicographic order.

    Each step is the next-permutation successor, so equal parts are never
    swapped with each other: 1^9 yields one tuple, not 9! of them.
    """
    a = sorted(parts)
    while True:
        yield tuple(a)
        i = len(a) - 2
        while i >= 0 and a[i] >= a[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(a) - 1
        while a[j] <= a[i]:
            j -= 1
        a[i], a[j] = a[j], a[i]
        a[i + 1:] = reversed(a[i + 1:])


def asymmetry_witness(q: QsymExpansion) -> tuple[Composition, Composition] | None:
    """A pair of compositions with the same parts but different coefficients,
    or None when the expansion is symmetric."""
    seen: dict[Partition, Composition] = {}
    for comp in sorted(q.coeffs):
        lam = tuple(sorted(comp, reverse=True))
        if lam not in seen:
            seen[lam] = comp
    for lam, rep in seen.items():
        value = q.coefficient(rep)
        for comp in _rearrangements(lam):
            if q.coefficient(comp) != value:
                a, b = sorted((rep, comp))
                return (a, b)
    return None


def schur_expand(q: QsymExpansion) -> SymExpansion:
    """Schur expansion of a symmetric quasisymmetric expansion.

    Raises ValueError (with a witness pair) on non-symmetric input, and
    ArithmeticError unless the solve reproduces m_mu's coefficient for each
    partition mu, which certifies every composition: both sides are symmetric.
    """
    witness = asymmetry_witness(q)
    if witness is not None:
        raise ValueError(f"not symmetric; witness {witness}")
    out: dict[Partition, int] = {}
    for lam in partitions_of(q.n):  # reverse-lex: dominating shapes first
        value = q.coefficient(lam)  # m_lam's coefficient, read off M_lam
        for nu, coeff in out.items():
            value -= coeff * kostka(nu, lam)
        if value:
            out[lam] = value
    if any(value != q.coefficient(mu)
           for mu, value in _monomial_coefficients(out, q.n).items()):
        raise ArithmeticError("Schur expansion failed to reproduce its input")
    return SymExpansion(n=q.n, coeffs=out)


def _monomial_coefficients(schur: dict, n: int) -> dict[Partition, int]:
    """m_mu's coefficient in sum of a_lam s_lam, for each partition mu of n."""
    return {mu: sum(a * kostka(lam, mu) for lam, a in schur.items())
            for mu in partitions_of(n)}


def schur_to_monomial_qsym(e: SymExpansion) -> QsymExpansion:
    """Re-expand a Schur combination into monomial quasisymmetrics."""
    return QsymExpansion(n=e.n, coeffs={
        comp: v for mu, v in _monomial_coefficients(e.coeffs, e.n).items()
        if v for comp in _rearrangements(mu)})


def is_schur_positive(e: SymExpansion) -> bool:
    return all(v >= 0 for v in e.coeffs.values())


def format_schur(e: SymExpansion) -> str:
    """Render like s(2,2,1)+4s(3,2), partitions in lexicographic order."""
    if not e.coeffs:
        return "0"
    parts = []
    for lam in sorted(e.coeffs):
        value = e.coeffs[lam]
        body = "s(" + ",".join(map(str, lam)) + ")"
        if value == 1:
            parts.append(body)
        elif value == -1:
            parts.append(f"-{body}")
        else:
            parts.append(f"{value}{body}")
    out = parts[0]
    for p in parts[1:]:
        out += p if p.startswith("-") else f"+{p}"
    return out
