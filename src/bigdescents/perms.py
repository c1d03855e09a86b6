"""Permutations, pattern containment, avoider enumeration, and statistics.

Permutations are tuples of the integers 1..n in one-line notation; the empty
tuple is the unique permutation of length 0.  All functions treat them as
immutable values.

Statistics follow the descent-family definitions: position k (1-based,
k <= n-1) is a descent when pi_k > pi_{k+1}, an r-descent when
pi_k > pi_{k+1} + r, a big descent when r = 1, and a small descent when
pi_k = pi_{k+1} + 1.  Right big descents additionally count position n when
pi_n > 1 (equivalently, big descents of the word pi with a 0 appended).
Big ascents are positions with pi_k + 1 < pi_{k+1}; a big ascent k is high
when k+1 is a weak excedance (pi_{k+1} >= k+1) and low otherwise.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter, deque
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from .config import DEFAULT_LIMITS, Limits
from .errors import BudgetError

Perm = tuple[int, ...]


# ---------------------------------------------------------------------------
# basic structure
# ---------------------------------------------------------------------------

def check_permutation(word: Sequence[int]) -> Perm:
    """Validate one-line notation: a rearrangement of 1..n.

    >>> check_permutation([2, 1, 3])
    (2, 1, 3)
    """
    pi = tuple(word)
    if sorted(pi) != list(range(1, len(pi) + 1)):
        raise ValueError(f"{pi} is not a permutation of 1..{len(pi)}")
    return pi


def standardize(word: Sequence[int]) -> Perm:
    """Replace the smallest letter by 1, the next by 2, and so on.

    >>> standardize((5, 7, 1, 8))
    (2, 3, 1, 4)
    """
    letters = tuple(word)
    if len(set(letters)) != len(letters):
        raise ValueError(f"letters of {letters} are not distinct")
    rank = {v: i + 1 for i, v in enumerate(sorted(letters))}
    return tuple(rank[v] for v in letters)


def reverse(pi: Sequence[int]) -> Perm:
    return tuple(reversed(pi))


def complement(pi: Sequence[int]) -> Perm:
    n = len(pi)
    return tuple(n + 1 - v for v in pi)


def reverse_complement(pi: Sequence[int]) -> Perm:
    return complement(reverse(pi))


def symmetry(pi: Sequence[int], kind: str) -> Perm:
    """Apply one of the symmetries reverse, complement, reverse_complement."""
    try:
        fn = {"reverse": reverse, "complement": complement,
              "reverse_complement": reverse_complement}[kind]
    except KeyError:
        raise ValueError(f"unknown symmetry {kind!r}") from None
    return fn(tuple(pi))


# ---------------------------------------------------------------------------
# pattern containment and avoider enumeration
# ---------------------------------------------------------------------------

def contains(pi: Sequence[int], sigma: Sequence[int]) -> bool:
    """Does some subsequence of pi standardize to sigma?

    >>> contains((1, 5, 2, 3, 7, 6, 4), (2, 1, 3))
    True
    >>> contains((7, 6, 1, 2, 5, 4, 3), (2, 1, 3))
    False
    """
    pi = tuple(pi)
    sigma = check_permutation(sigma)
    k = len(sigma)
    if k > len(pi):
        return False
    if k == 0:
        return True
    if k == 3:
        return _contains_len3(pi, sigma)
    return _contains_general(pi, sigma)


def _contains_len3(pi: Perm, sigma: Perm) -> bool:
    n = len(pi)
    for j in range(1, n - 1):
        b = pi[j]
        for i in range(j):
            a = pi[i]
            if (a < b) != (sigma[0] < sigma[1]):
                continue
            for k in range(j + 1, n):
                c = pi[k]
                if ((a < c) == (sigma[0] < sigma[2])
                        and (b < c) == (sigma[1] < sigma[2])):
                    return True
    return False


def _contains_general(pi: Perm, sigma: Perm) -> bool:
    k = len(sigma)

    def extend(start: int, chosen: list[int]) -> bool:
        depth = len(chosen)
        if depth == k:
            return True
        for idx in range(start, len(pi) - (k - depth) + 1):
            v = pi[idx]
            ok = all((pi[c] < v) == (sigma[d] < sigma[depth])
                     for d, c in enumerate(chosen))
            if ok and extend(idx + 1, chosen + [idx]):
                return True
        return False

    return extend(0, [])


def avoids(pi: Sequence[int], patterns: Iterable[Sequence[int]]) -> bool:
    return not any(contains(pi, sigma) for sigma in patterns)


def _extension_creates_len3(candidate: Perm, pos: int, sigma: Perm) -> bool:
    """Does inserting the maximum at `pos` create an occurrence of sigma?

    The rest of `candidate` already avoids sigma, so any new occurrence uses
    the new letter, which is the global maximum and must play the pattern's
    largest role.  That reduces the check to an O(n) scan of the prefix or
    suffix (or both) around the insertion point.
    """
    prefix = candidate[:pos]
    suffix = candidate[pos + 1:]
    where = sigma.index(3)
    if where == 0:
        # need a pair after the new letter, ordered like (sigma_2, sigma_3)
        return _has_pair(suffix, ascending=sigma[1] < sigma[2])
    if where == 2:
        return _has_pair(prefix, ascending=sigma[0] < sigma[1])
    # max in the middle: one letter each side, compared like (sigma_1, sigma_3)
    if not prefix or not suffix:
        return False
    if sigma[0] < sigma[2]:
        return min(prefix) < max(suffix)
    return max(prefix) > min(suffix)


def _has_pair(seq: Perm, ascending: bool) -> bool:
    if ascending:
        lo = None
        for v in seq:
            if lo is not None and v > lo:
                return True
            lo = v if lo is None else min(lo, v)
        return False
    hi = None
    for v in seq:
        if hi is not None and v < hi:
            return True
        hi = v if hi is None else max(hi, v)
    return False


def _levels(n: int, patterns: Iterable[Sequence[int]], limits: Limits,
            max_n: int | None) -> Iterator[Iterable[Perm]]:
    """Yield the avoiders of each length 0..n, unsorted, one level at a time.

    Built levelwise: avoiders of length m arise by inserting m into avoiders
    of length m-1 and filtering the insertions that create an occurrence
    (avoider classes are closed under letter deletion, so nothing is missed).
    Length-3 patterns use the O(n) insertion check; other lengths fall back
    to a full containment test on the candidate.  Only the level being
    extended and the one being built are alive at once.  With no patterns
    each level streams from itertools in lexicographic order.
    """
    if n < 0:
        raise ValueError("length must be non-negative")
    patterns = tuple(check_permutation(p) for p in patterns)
    guard = max_n if max_n is not None else (
        limits.avoider_guard_empty if not patterns else limits.avoider_guard_patterns
    )
    if n > guard:
        kind = "avoider_guard_empty" if not patterns else "avoider_guard_patterns"
        raise BudgetError(
            f"n={n} exceeds enumeration guard {kind}={guard}; "
            f"pass max_n or a Limits override to go further"
        )
    if not patterns:
        for m in range(n + 1):
            yield itertools.permutations(range(1, m + 1))
        return

    short = [p for p in patterns if len(p) <= n]
    # every permutation, even the empty one, contains the empty pattern
    level: list[Perm] = [()] if all(patterns) else []
    for m in range(1, n + 1):
        yield level
        nxt: list[Perm] = []
        for sigma in level:
            for pos in range(m):
                candidate = sigma[:pos] + (m,) + sigma[pos:]
                ok = True
                for p in short:
                    if len(p) == 3:
                        if _extension_creates_len3(candidate, pos, p):
                            ok = False
                            break
                    elif contains(candidate, p):
                        ok = False
                        break
                if ok:
                    nxt.append(candidate)
        level = nxt
    yield level


def enumerate_avoiders(n: int, patterns: Iterable[Sequence[int]],
                       limits: Limits = DEFAULT_LIMITS,
                       max_n: int | None = None) -> Iterator[Perm]:
    """Yield S_n(patterns) exactly once each, in lexicographic order."""
    # keep only the last level (maxlen=1 drops each earlier one as it goes)
    level = deque(_levels(n, patterns, limits, max_n), maxlen=1).pop()
    # a built level is a list; the unrestricted stream is already in order
    yield from sorted(level) if isinstance(level, list) else level


def count_avoiders(n: int, patterns: Iterable[Sequence[int]], **kw) -> int:
    return sum(1 for _ in enumerate_avoiders(n, patterns, **kw))


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def des_r(pi: Sequence[int], r: int) -> int:
    """Number of positions k with pi_k > pi_{k+1} + r."""
    if r < 0:
        raise ValueError("r must be non-negative")
    return sum(1 for a, b in zip(pi, pi[1:]) if a > b + r)


def des(pi: Sequence[int]) -> int:
    return des_r(pi, 0)


def bdes(pi: Sequence[int]) -> int:
    return des_r(pi, 1)


def sdes(pi: Sequence[int]) -> int:
    """Descents that are not big: pi_k = pi_{k+1} + 1."""
    return sum(1 for a, b in zip(pi, pi[1:]) if a == b + 1)


def lddes(pi: Sequence[int]) -> int:
    """Left double descents: k=1 with pi_1 > pi_2, or pi_{k-1} > pi_k > pi_{k+1}."""
    n = len(pi)
    count = 0
    if n >= 2 and pi[0] > pi[1]:
        count += 1
    for k in range(1, n - 1):
        if pi[k - 1] > pi[k] > pi[k + 1]:
            count += 1
    return count


def pk(pi: Sequence[int]) -> int:
    """Interior positions with pi_{k-1} < pi_k > pi_{k+1}."""
    return sum(1 for k in range(1, len(pi) - 1) if pi[k - 1] < pi[k] > pi[k + 1])


def rbdes(pi: Sequence[int]) -> int:
    """Big descents of the word pi with a 0 appended."""
    if not pi:
        return 0
    return bdes(pi) + (1 if pi[-1] > 1 else 0)


def basc(pi: Sequence[int]) -> int:
    """Big ascents: positions with pi_k + 1 < pi_{k+1}."""
    return sum(1 for a, b in zip(pi, pi[1:]) if a + 1 < b)


def lbasc(pi: Sequence[int]) -> int:
    """Big ascents plus position 0 when pi_1 > 1."""
    if not pi:
        return 0
    return basc(pi) + (1 if pi[0] > 1 else 0)


def weak_excedance_set(pi: Sequence[int]) -> set[int]:
    return {k for k, v in enumerate(pi, start=1) if v >= k}


def hibasc(pi: Sequence[int]) -> int:
    """Big ascents k such that k+1 is a weak excedance."""
    wex = weak_excedance_set(pi)
    return sum(1 for k in range(1, len(pi))
               if pi[k - 1] + 1 < pi[k] and (k + 1) in wex)


def lobasc(pi: Sequence[int]) -> int:
    """Big ascents k such that k+1 is not a weak excedance."""
    wex = weak_excedance_set(pi)
    return sum(1 for k in range(1, len(pi))
               if pi[k - 1] + 1 < pi[k] and (k + 1) not in wex)


_PLAIN_STATS = {
    "des": des, "bdes": bdes, "sdes": sdes, "lddes": lddes, "pk": pk,
    "rbdes": rbdes, "basc": basc, "lbasc": lbasc,
    "hibasc": hibasc, "lobasc": lobasc,
}


def _stat_function(name: str) -> Callable[[Sequence[int]], int]:
    """Resolve a statistic name to the function that evaluates it.

    Accepts the plain names, ``des_r(r)``, and the shorthand ``des_k`` for a
    literal non-negative integer k.  ``des_r(0)`` is des and ``des_r(1)`` is
    bdes.
    """
    name = name.strip()
    if name in _PLAIN_STATS:
        return _PLAIN_STATS[name]
    if name.startswith("des_r(") and name.endswith(")"):
        return functools.partial(des_r, r=int(name[len("des_r("):-1]))
    if name.startswith("des_") and name[len("des_"):].isdigit():
        return functools.partial(des_r, r=int(name[len("des_"):]))
    raise ValueError(f"unknown statistic {name!r}")


def statistic(pi: Sequence[int], name: str) -> int:
    """Evaluate a named statistic; every statistic of the empty word is 0.

    >>> statistic((7, 4, 2, 1, 3, 6, 5), "des_r(1)")
    2
    """
    return _stat_function(name)(pi)


def statistic_set(pi: Sequence[int], which: str) -> set[int]:
    """Position or letter sets: Des_r(r), Bdes, RLmax, LRmax, weak_excedances.

    RLmax and LRmax return letter values (so n is always a right-to-left
    maximum of a nonempty permutation); the others return positions.
    """
    which = which.strip()
    if which == "Bdes":
        return {k for k in range(1, len(pi)) if pi[k - 1] > pi[k] + 1}
    if which.startswith("Des_r(") and which.endswith(")"):
        r = int(which[len("Des_r("):-1])
        if r < 0:
            raise ValueError("r must be non-negative")
        return {k for k in range(1, len(pi)) if pi[k - 1] > pi[k] + r}
    if which == "RLmax":
        out, hi = set(), 0
        for v in reversed(pi):
            if v > hi:
                out.add(v)
                hi = v
        return out
    if which == "LRmax":
        out, hi = set(), 0
        for v in pi:
            if v > hi:
                out.add(v)
                hi = v
        return out
    if which == "weak_excedances":
        return weak_excedance_set(pi)
    raise ValueError(f"unknown statistic set {which!r}")


# ---------------------------------------------------------------------------
# pattern sets and distribution tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PatternSet:
    """An avoidance class index: a set of patterns, order-normalized.

    ``canonical_id`` is invariant under replacing the set by its
    reverse-complement image, which indexes the trivial equivalences of the
    big-descent distribution.
    """

    patterns: tuple[Perm, ...]

    def __init__(self, patterns: Iterable[Sequence[int]]):
        normalized = tuple(sorted({check_permutation(p) for p in patterns}))
        object.__setattr__(self, "patterns", normalized)

    @property
    def canonical_id(self) -> str:
        rc = tuple(sorted(reverse_complement(p) for p in self.patterns))
        return format_pattern_set(min(self.patterns, rc, key=lambda ps: ps))

    def __iter__(self):
        return iter(self.patterns)

    def __len__(self):
        return len(self.patterns)

    def __str__(self):
        return format_pattern_set(self.patterns)


@dataclass(frozen=True)
class DistributionTable:
    """Counts b_{n,k} of avoiders of given length by a statistic value."""

    n: int
    stat: str
    patterns: tuple[Perm, ...]
    counts: tuple[int, ...]  # length n+1, index k

    def poly(self) -> list[int]:
        """Coefficients trimmed to the degree (at least [c0])."""
        out = list(self.counts)
        while len(out) > 1 and out[-1] == 0:
            out.pop()
        return out

    def total(self) -> int:
        return sum(self.counts)


def _tally(m: int, patterns: tuple[Perm, ...], stat: str,
           value: Callable[[Sequence[int]], int],
           level: Iterable[Perm]) -> DistributionTable:
    found = Counter(map(value, level))
    return DistributionTable(n=m, stat=stat, patterns=patterns,
                             counts=tuple(found[k] for k in range(m + 1)))


def distribution_table(n: int, patterns: Iterable[Sequence[int]], stat: str,
                       limits: Limits = DEFAULT_LIMITS,
                       max_n: int | None = None) -> DistributionTable:
    """Brute-force distribution of a statistic over S_n(patterns)."""
    value = _stat_function(stat)
    pats = tuple(sorted({check_permutation(p) for p in patterns}))
    level = deque(_levels(n, pats, limits, max_n), maxlen=1).pop()
    return _tally(n, pats, stat, value, level)


def distribution_rows(n: int, patterns: Iterable[Sequence[int]], stat: str,
                      limits: Limits = DEFAULT_LIMITS,
                      max_n: int | None = None) -> list[DistributionTable]:
    """The tables of lengths 0..n from one levelwise pass: equal to
    ``distribution_table(m, ...)`` for each m, with the guard applied to n."""
    value = _stat_function(stat)
    pats = tuple(sorted({check_permutation(p) for p in patterns}))
    return [_tally(m, pats, stat, value, level)
            for m, level in enumerate(_levels(n, pats, limits, max_n))]


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def format_permutation(pi: Sequence[int]) -> str:
    """Comma-free digits for n <= 9, comma-separated integers otherwise."""
    if len(pi) <= 9:
        return "".join(str(v) for v in pi)
    return ",".join(str(v) for v in pi)


def parse_permutation(text: str) -> Perm:
    text = text.strip()
    if not text:
        return ()
    if "," in text:
        return check_permutation([int(v) for v in text.split(",")])
    return check_permutation([int(ch) for ch in text])


def format_pattern_set(patterns: Iterable[Sequence[int]]) -> str:
    return ",".join(format_permutation(p) for p in sorted(tuple(p) for p in patterns))


def parse_pattern_set(text: str) -> tuple[Perm, ...]:
    """Parse e.g. "213,231"; the empty string is the empty set."""
    text = text.strip()
    if not text:
        return ()
    return tuple(sorted({check_permutation([int(ch) for ch in part.strip()])
                         for part in text.split(",")}))
