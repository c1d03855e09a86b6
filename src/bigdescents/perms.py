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
when k+1 is a weak excedance (pi_{k+1} >= k+1) and low otherwise.  Each named
statistic is one entry of ``STATISTICS``: its value function and, for
des_r(r) of pi, of pi with a 0 appended or of either reversed, the r of
the generating tree's O(1) update.  ``des_r(r)`` and its shorthand
``des_k`` name des_r for any r.

Avoider classes live on their generating tree: each avoider of length m
has as children its insertions of m + 1 at the active sites, computed once
per parent (an interval or a prefix split for a length-3 pattern, an
occurrence scan pinned to the new maximum for any other length).  Every
walk of a class starts in this module, the one that imports `merged`, and
its tallies count the children's values without building the last level,
updating des_r(r) in O(1) from the neighbours of the inserted letter:
- the merged walk (`merged.walk`) tallies des_r(r) for ``distribution_rows``
  (``_merged_rows``) and the r-descent sets of ``descent_set_counts`` over
  S_n and over every class of patterns of length at most 3.  Level by level
  it keeps one state per key, a finite label of the node's future (West
  1995; Vatter, J. Symbolic Comput. 41, 2006), and derives each child's
  state from its parent's, so it tallies a few hundred states where the
  tree has tens of thousands of avoiders;
- the depth-first walk (``_walk``) visits every node in O(n) memory.  Its
  tally (``_grow``) serves the tables of a class with a longer pattern and
  of a statistic without an O(1) update, and ``tree_rows`` (the exhaustive
  oracle of ``verify``); its stream (``avoider_stream``) yields the leaves
  in no promised order, which the bijection checks and the descent-set
  counts of a class with a longer pattern count and ``enumerate_avoiders``
  sorts.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .config import DEFAULT_LIMITS, Limits

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


# The generating tree of an avoider class (West, Discrete Math. 146, 1995):
# the children of an avoider of length m are its insertions of the new maximum
# m + 1 at the active sites i (0 <= i <= m, before the parent's letter i) that
# create no occurrence of a pattern.  Avoider classes are closed under letter
# deletion, so every avoider of length m + 1 arises once, from the parent left
# by deleting its maximum.  The parent avoids every pattern, so a new
# occurrence must use the new letter as the pattern's maximum: each pattern's
# site rule looks only at such occurrences, once per parent.

def _prefix_pair_sites(parent: list[int], rising: bool) -> range:
    """Sites for xy3 (123, 213): the letters before the site must hold no pair
    ordered like xy.  Letters are distinct, so such a prefix is monotone and
    the active sites end at the first adjacent pair ordered like xy."""
    for j in range(1, len(parent)):
        if (parent[j - 1] < parent[j]) == rising:
            return range(j + 1)
    return range(len(parent) + 1)


def _suffix_pair_sites(parent: list[int], rising: bool) -> range:
    """Sites for 3xy (312, 321): the letters from the site on must hold no pair
    ordered like xy, so they are monotone and the active sites start after
    the last adjacent pair ordered like xy."""
    for j in range(len(parent) - 2, -1, -1):
        if (parent[j] < parent[j + 1]) == rising:
            return range(j + 1, len(parent) + 1)
    return range(len(parent) + 1)


def _split_sites(parent: list[int], rising: bool) -> list[int]:
    """Sites for x3y (132, 231): for 132 every letter before the site must
    exceed every letter after it, so the prefix holds the top i values; for
    231 it holds the bottom i values."""
    sites = [0]
    if rising:
        lo = top = len(parent) + 1
        for i, v in enumerate(parent, 1):
            if v < lo:
                lo = v
            if lo + i == top:
                sites.append(i)
    else:
        hi = 0
        for i, v in enumerate(parent, 1):
            if v > hi:
                hi = v
            if hi == i:
                sites.append(i)
    return sites


def _order_links(sigma: Perm) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """For each index d of sigma, the earlier index holding the largest
    smaller letter and the one holding the smallest larger letter; k and
    k + 1 (two sentinel slots holding 0 and infinity) when there is none.
    A letter chosen for index d must lie strictly between the letters
    already chosen for these two."""
    k = len(sigma)
    below = tuple(max((e for e in range(d) if sigma[e] < sigma[d]),
                      key=sigma.__getitem__, default=k) for d in range(k))
    above = tuple(min((e for e in range(d) if sigma[e] > sigma[d]),
                      key=sigma.__getitem__, default=k + 1) for d in range(k))
    return below, above


def _pinned_sites(parent: list[int], rest: Perm, w: int,
                  links: tuple[tuple[int, ...], tuple[int, ...]]) -> list[int]:
    """Sites for a pattern of any length other than 3 whose maximum sits at
    index w and whose other letters standardize to `rest`.

    An occurrence of `rest` in the parent at positions p_0 < ... < p_{k-1}
    rules out the sites i with p_{w-1} < i <= p_w, where the new maximum
    completes the pattern.  The first w letters are chosen in every way that
    can still rule out a site; for each choice of p_w one completion of the
    remaining letters suffices.
    """
    m, k = len(parent), len(rest)
    below, above = links
    chosen = [0] * k + [0, m + 1]
    active = [True] * (m + 1)
    last = m  # every site past `last` is ruled out

    def completes(d: int, start: int) -> bool:
        if d == k:
            return True
        lo, hi = chosen[below[d]], chosen[above[d]]
        for idx in range(start, m - k + d + 1):
            v = parent[idx]
            if lo < v < hi:
                chosen[d] = v
                if completes(d + 1, idx + 1):
                    return True
        return False

    def kill(first: int, stop: int) -> None:
        # rule out the sites first..stop-1, and lower `last` past them
        nonlocal last
        active[first:stop] = [False] * (stop - first)
        if stop > last:
            last = first - 1
            while last >= 0 and not active[last]:
                last -= 1

    def rule_out(d: int, start: int) -> None:
        # the sites still at stake are start..last
        if start > last:
            return
        if d == k:
            kill(start, last + 1)
            return
        lo, hi = chosen[below[d]], chosen[above[d]]
        done = start  # for d == w: the sites start..done-1 are ruled out
        for idx in range(start, m - k + d + 1):
            v = parent[idx]
            if not lo < v < hi:
                continue
            chosen[d] = v
            if d < w:
                rule_out(d + 1, idx + 1)
                continue
            while done <= idx and not active[done]:
                done += 1
            if done <= idx and completes(d + 1, idx + 1):
                kill(done, idx + 1)
                done = idx + 1

    rule_out(0, 0)
    return [i for i, free in enumerate(active) if free]


def _site_rule(sigma: Perm) -> Callable[[list[int]], Sequence[int]]:
    """The active-site routine of one nonempty pattern."""
    k = len(sigma)
    w = sigma.index(k)
    rest = standardize(sigma[:w] + sigma[w + 1:])
    if k == 3:
        kind = (_suffix_pair_sites, _split_sites, _prefix_pair_sites)[w]
        return functools.partial(kind, rising=rest == (1, 2))
    return functools.partial(_pinned_sites, rest=rest, w=w,
                             links=_order_links(rest))


def _active_sites(parent: list[int], rules) -> Sequence[int]:
    """The sites of `parent` where its new maximum creates no occurrence of
    any pattern: the intersection of the per-pattern rules' sites."""
    sites = None
    for rule in rules:
        allowed = rule(parent)
        sites = allowed if sites is None else [i for i in sites if i in allowed]
    return range(len(parent) + 1) if sites is None else sites


def _checked_patterns(n: int, patterns: Iterable[Sequence[int]],
                      limits: Limits) -> tuple[Perm, ...]:
    """Validate the length and the patterns (returned sorted and without
    repeats) and apply the enumeration guard for length n."""
    if n < 0:
        raise ValueError("length must be non-negative")
    pats = tuple(sorted({check_permutation(p) for p in patterns}))
    limits.check("avoider_guard_patterns" if pats else "avoider_guard_empty",
                 n, _class_size(n, pats))
    return pats


# The refusal states |S_n(pats)| where it has a closed form: n! for S_n and
# the Catalan number for one length-3 pattern (Simion & Schmidt, 1985).  Past
# length 100 it runs to hundreds of digits, and Python will not print an int
# of more than 4300 digits.
def _class_size(n: int, pats: tuple[Perm, ...]) -> int | None:
    if n > 100 or len(pats) > 1 or pats and len(pats[0]) != 3:
        return None
    return math.comb(2 * n, n) // (n + 1) if pats else math.factorial(n)


def _walk(n: int, pats: tuple[Perm, ...], label: Callable
          ) -> Iterator[tuple[list[int], Sequence[int], Sequence]]:
    """Walk the generating tree of S_m(pats), m < n, for checked patterns,
    depth first on an explicit stack: the one loop that descends the tree.

    Each node is yielded with its active sites, computed once, and its
    children's labels, ``label(node, sites, own)`` from the node's own label
    (0 at the root), paired with the sites.  No leaf is visited.  The
    node is one list, changed in place, and only the path from the root is
    alive: O(n) memory, however many nodes a client counts.
    """
    if n == 0 or not all(pats):
        return  # no node is shorter than 0, and no permutation avoids ()
    rules = [_site_rule(p) for p in pats if len(p) <= n]
    node: list[int] = []
    sites = _active_sites(node, rules)
    labels = label(node, sites, 0)
    yield node, sites, labels
    # per node on the path whose children have children: its unwalked ones
    pending = [zip(sites, labels)] if n > 1 else []
    while pending:
        top = len(node) + 1
        for i, own in pending[-1]:
            node.insert(i, top)
            sites = _active_sites(node, rules)
            labels = label(node, sites, own)
            yield node, sites, labels
            if top + 1 < n:  # descend
                pending.append(zip(sites, labels))
                break
            del node[i]
        else:  # node is done: back up to its parent
            pending.pop()
            if node:
                node.remove(len(node))


def _grow(n: int, pats: tuple[Perm, ...], stat: Statistic) -> list[list[int]]:
    """Tally S_m(pats), m <= n, by a statistic on `_walk`: for `tree_rows`,
    and for `distribution_rows` when the merged walk does not apply (a
    pattern of length 4 or more, or a statistic other than des_r(r)).

    Returns ``counts[m][k]``, the number of avoiders of length m with
    statistic value k, for every m <= n.  A node's label is its value, and
    it tallies its children's values without building them.  When
    ``stat.r`` is set the statistic is des_r(r), updated from the
    neighbours a, b of the inserted maximum m + 1 as
    ``s - [a > b + r] + [m + 1 > b + r]``, with b = 0 past the end of a
    padded word and the caller passing a reversed statistic the reversed
    patterns; otherwise ``stat.value`` is evaluated on each child.
    """
    counts = [[0] * (m + 1) for m in range(n + 1)]
    counts[0][0] = int(all(pats))  # the empty word avoids nonempty patterns
    value, r, padded = stat.value, stat.r, stat.padded

    def tally(node: list[int], sites: Sequence[int], s: int) -> list[int]:
        top = len(node) + 1
        if r is not None:
            # sentinels: no pair is broken at site 0, and none is made at
            # site m unless the word is padded with a 0
            ext = [0, *node, 0 if padded else top]
            thr = top - r
            values = [s - (ext[i] > ext[i + 1] + r) + (ext[i + 1] < thr)
                      for i in sites]
        else:
            values = []
            for i in sites:
                node.insert(i, top)
                values.append(value(node))
                del node[i]
        row = counts[top]
        for t in values:
            row[t] += 1
        return values

    for _ in _walk(n, pats, tally):
        pass
    return counts


def avoider_stream(n: int, patterns: Iterable[Sequence[int]],
                   limits: Limits = DEFAULT_LIMITS) -> Iterator[Perm]:
    """Yield S_n(patterns) under `limits`' guard, each once and in no
    promised order: the children of `_walk`'s nodes of length n - 1."""
    pats = _checked_patterns(n, patterns, limits)
    if n == 0 and all(pats):  # the empty word, where the walk has no node
        yield ()
    for node, sites, _ in _walk(n, pats, lambda node, sites, own: sites):
        if len(node) == n - 1:
            for i in sites:
                yield (*node[:i], n, *node[i:])


def _merged_walk_covers(pats: tuple[Perm, ...]) -> bool:
    """Whether `merged.walk` covers the class of the checked patterns: every
    pattern has length 1 to 3.  Decided before `merged` is imported, so a
    job that never walks does not load it."""
    return all(1 <= len(p) <= 3 for p in pats)


def _merged_rows(n: int, pats: tuple[Perm, ...],
                 stat: Statistic) -> list[list[int]]:
    """`_grow`'s ``counts`` for a statistic with an r over a class whose
    patterns all have length at most 3, tallied on `merged.walk`.

    The key of a state is `merged.live_codes`: the codes of site 0, of the
    live interior sites in order and of the end; with no patterns, every
    code sorted.  Sound because avoiders with one key have the same subtree
    up to a shift of the statistic: their sites pair off (site 0, the live
    interior sites in order, the end), site i adds [(top, b) is an
    r-descent] - [(a, b) was one], which its code holds, and each paired
    child has one key, since its codes are the parent's slices kept,
    killed, or killed but for site 0 or the end, around two codes set by
    site i's; where dead interior sites lie does not matter.  With no
    patterns every site is live in every child, in any order.
    """
    from . import merged  # loaded by the first walk, not by every job
    counts = [[0] * (m + 1) for m in range(n + 1)]
    key = merged.live_codes if pats else _sorted_codes
    walk = merged.walk(n, pats, stat.r, key, _shift, stat.padded)
    for row, tallies in zip(counts, walk):
        for tally in tallies:
            for s, c in tally.items():
                row[s] += c
    return counts


def _sorted_codes(codes: bytes) -> bytes:
    return bytes(sorted(codes))


def _shift(values: dict, i: int, made: int, broken: int, into: dict) -> None:
    """des_r's update at a site: s - [a > b + r] + [top > b + r]."""
    step = made - broken
    for s, c in values.items():
        into[s + step] = into.get(s + step, 0) + c


def descent_set_counts(n: int, patterns: Iterable[Sequence[int]], r: int,
                       limits: Limits) -> list[int]:
    """Count avoiders by their r-descent set, encoded as a bitmask of [n-1].

    A class of patterns of length at most 3 is tallied on `merged.walk`,
    keyed by the codes of every site in order without their descent flags
    (`merged.site_ranks`).  Sound because avoiders with one key have the same
    subtree up to `_insert_bit`: it reads only the site's place and whether
    (top, b) is an r-descent, which the site's rank fixes, and a child's
    ranks and dead sites follow from the parent's and the place alone.
    The mask itself holds every pair's descent flag.  Any other class
    reads its avoiders one by one from `avoider_stream`.
    """
    if r < 0:
        raise ValueError("r must be non-negative")
    limits.check("qsym_guard", n)
    pats = _checked_patterns(n, patterns, limits)
    by_mask = [0] * (1 << max(n - 1, 0))
    if _merged_walk_covers(pats):
        from . import merged  # loaded by the first walk, not by every job
        for tallies in merged.walk(n, pats, r, merged.site_ranks, _insert_bit):
            pass  # only the last level's tally is read
        for mask, c in tallies[0].items():
            by_mask[mask] += c
        return by_mask
    for pi in avoider_stream(n, pats, limits):
        mask, bit = 0, 1  # bit k - 1 stands for position k
        letters = iter(pi)
        prev = next(letters, 0)
        for b in letters:
            if prev > b + r:
                mask |= bit
            prev, bit = b, bit << 1
        by_mask[mask] += 1
    return by_mask


def _insert_bit(masks: dict, i: int, made: int, broken: int,
                into: dict) -> None:
    """The r-descent sets after inserting the new maximum at site i: the
    pairs before position i stay, position i becomes an ascent, position
    i + 1 is an r-descent when `made`, and the later pairs move up by one."""
    low = ((1 << i) - 1) >> 1
    for mask, c in masks.items():
        mask = (mask & low) | (made << i) | (mask >> i << i + 1)
        into[mask] = into.get(mask, 0) + c


def enumerate_avoiders(n: int, patterns: Iterable[Sequence[int]],
                       limits: Limits = DEFAULT_LIMITS) -> Iterator[Perm]:
    """Yield S_n(patterns) exactly once each, in lexicographic order.

    The avoiders of `avoider_stream` are sorted.  With no patterns the
    permutations stream from itertools, already in order, so a caller that
    stops early never builds S_n.
    """
    pats = _checked_patterns(n, patterns, limits)
    if not pats:
        yield from itertools.permutations(range(1, n + 1))
        return
    yield from sorted(avoider_stream(n, pats, limits))


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def des_r(pi: Sequence[int], r: int) -> int:
    """Number of positions k with pi_k > pi_{k+1} + r."""
    if r < 0:
        raise ValueError("r must be non-negative")
    count = prev = 0  # a 0 before pi_1 makes no r-descent
    for b in pi:
        if prev > b + r:
            count += 1
        prev = b
    return count


def des(pi: Sequence[int]) -> int:
    return des_r(pi, 0)


def bdes(pi: Sequence[int]) -> int:
    return des_r(pi, 1)


def sdes(pi: Sequence[int]) -> int:
    """Descents that are not big: pi_k = pi_{k+1} + 1."""
    count = prev = 0
    for b in pi:
        if prev == b + 1:
            count += 1
        prev = b
    return count


def lddes(pi: Sequence[int]) -> int:
    """Left double descents: k=1 with pi_1 > pi_2, or pi_{k-1} > pi_k > pi_{k+1}."""
    count, rose = 0, False  # rose: pi_{k-1} < pi_k, false at k = 1
    letters = iter(pi)
    prev = next(letters, 0)
    for b in letters:
        if prev > b:
            if not rose:
                count += 1
            rose = False
        else:
            rose = True
        prev = b
    return count


def pk(pi: Sequence[int]) -> int:
    """Interior positions with pi_{k-1} < pi_k > pi_{k+1}."""
    count, rose = 0, False  # rose: pi_{k-1} < pi_k, false at k = 1
    letters = iter(pi)
    prev = next(letters, 0)
    for b in letters:
        if prev > b:
            if rose:
                count += 1
            rose = False
        else:
            rose = True
        prev = b
    return count


def rbdes(pi: Sequence[int]) -> int:
    """Big descents of pi with a 0 appended: bdes, plus 1 when pi_n > 1."""
    return des_r(pi, 1) + (len(pi) > 0 and pi[-1] > 1)


def basc(pi: Sequence[int]) -> int:
    """Big ascents, positions with pi_k + 1 < pi_{k+1}: the big descents of
    the reversed word."""
    return des_r(reversed(pi), 1)


def lbasc(pi: Sequence[int]) -> int:
    """Big ascents plus position 0 when pi_1 > 1: the big ascents of the
    word pi with a 0 prepended, or rbdes of the reversed word."""
    return des_r(reversed(pi), 1) + (len(pi) > 0 and pi[0] > 1)


def hibasc(pi: Sequence[int]) -> int:
    """Big ascents k such that k+1 is a weak excedance (pi_{k+1} >= k+1)."""
    count = 0
    letters = iter(pi)
    prev, k = next(letters, 0), 1
    for b in letters:  # b is pi_{k+1}
        if prev + 1 < b and b >= k + 1:
            count += 1
        prev, k = b, k + 1
    return count


def lobasc(pi: Sequence[int]) -> int:
    """Big ascents k such that k+1 is not a weak excedance."""
    count = 0
    letters = iter(pi)
    prev, k = next(letters, 0), 1
    for b in letters:  # b is pi_{k+1}
        if prev + 1 < b and b < k + 1:
            count += 1
        prev, k = b, k + 1
    return count


class Statistic(NamedTuple):
    """A registered statistic: its value on one permutation and, when it
    counts r-descents, the r that the generating tree updates in O(1) and
    by which the merged walk tallies the classes of patterns of length at
    most 3.  With r set, the value is des_r(r) of the word reversed when
    `reversed` and then with a 0 appended when `padded`."""

    value: Callable[[Sequence[int]], int]
    r: int | None = None
    padded: bool = False
    reversed: bool = False


# Every named statistic; `statistic`, the distribution tables and the CLI's
# --stat read this table, and des_r(r) extends it for every r.
STATISTICS: dict[str, Statistic] = {
    "des": Statistic(des, r=0),
    "bdes": Statistic(bdes, r=1),
    "sdes": Statistic(sdes),
    "lddes": Statistic(lddes),
    "pk": Statistic(pk),
    "rbdes": Statistic(rbdes, r=1, padded=True),
    "basc": Statistic(basc, r=1, reversed=True),
    "lbasc": Statistic(lbasc, r=1, padded=True, reversed=True),
    "hibasc": Statistic(hibasc),
    "lobasc": Statistic(lobasc),
}


def _resolve_stat(name: str) -> Statistic:
    """The registered statistic `name`, or des_r(r) for ``des_r(r)`` and for
    the shorthand ``des_k`` with a literal non-negative integer k.  Blanks
    around the name are ignored; ``des_r(0)`` is des and ``des_r(1)`` bdes.
    """
    name = name.strip()
    if name in STATISTICS:
        return STATISTICS[name]
    if name.startswith("des_r(") and name.endswith(")"):
        digits = name[len("des_r("):-1]
    elif name.startswith("des_") and name[len("des_"):].isdigit():
        digits = name[len("des_"):]
    else:
        digits = ""
    try:
        r = int(digits)
    except ValueError:
        raise ValueError(f"unknown statistic {name!r}") from None
    if r < 0:
        raise ValueError("r must be non-negative")
    return Statistic(functools.partial(des_r, r=r), r)


def statistic(pi: Sequence[int], name: str) -> int:
    """Evaluate a named statistic; every statistic of the empty word is 0.

    >>> statistic((7, 4, 2, 1, 3, 6, 5), "des_r(1)")
    2
    """
    return _resolve_stat(name).value(pi)


# ---------------------------------------------------------------------------
# distribution tables
# ---------------------------------------------------------------------------

class DistributionTable(NamedTuple):
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


def _tables(stat: str, pats: tuple[Perm, ...],
            counts: list[list[int]]) -> list[DistributionTable]:
    return [DistributionTable(n=m, stat=stat, patterns=pats, counts=tuple(row))
            for m, row in enumerate(counts)]


def distribution_rows(n: int, patterns: Iterable[Sequence[int]], stat: str,
                      limits: Limits = DEFAULT_LIMITS) -> list[DistributionTable]:
    """The tables of lengths 0..n from one walk, tallied at every depth,
    with the guard applied to n.  des_r(r) over a class whose patterns all
    have length at most 3 (or over S_n) is tallied on the merged walk; any
    other class or statistic on the depth-first tree, as in `tree_rows`."""
    resolved = _resolve_stat(stat)
    pats = _checked_patterns(n, patterns, limits)
    # reversal maps S_n(pats) onto S_n(reversed pats), where a reversed
    # statistic is its unreversed self
    walked = tuple(p[::-1] for p in pats) if resolved.reversed else pats
    if resolved.r is None or not _merged_walk_covers(pats):
        return _tables(stat, pats, _grow(n, walked, resolved))
    return _tables(stat, pats, _merged_rows(n, walked, resolved))


def tree_rows(n: int, patterns: Iterable[Sequence[int]], stat: str,
              limits: Limits = DEFAULT_LIMITS) -> list[DistributionTable]:
    """`distribution_rows` from the depth-first tree for every class and
    statistic: it visits each avoider, so it is the exhaustive oracle that
    `verify` holds the merged walk to."""
    resolved = _resolve_stat(stat)
    pats = _checked_patterns(n, patterns, limits)
    walked = tuple(p[::-1] for p in pats) if resolved.reversed else pats
    return _tables(stat, pats, _grow(n, walked, resolved))


def distribution_table(n: int, patterns: Iterable[Sequence[int]], stat: str,
                       limits: Limits = DEFAULT_LIMITS) -> DistributionTable:
    """Brute-force distribution of a statistic over S_n(patterns): the last
    table of `distribution_rows`."""
    return distribution_rows(n, patterns, stat, limits)[-1]


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


def parse_pattern_set(text: str) -> tuple[Perm, ...]:
    """Parse e.g. "213,231"; the empty string is the empty set."""
    text = text.strip()
    if not text:
        return ()
    parts = [part.strip() for part in text.split(",")]
    if "" in parts:
        raise ValueError(f"empty pattern in {text!r}")
    return tuple(sorted({check_permutation([int(ch) for ch in part])
                         for part in parts}))
