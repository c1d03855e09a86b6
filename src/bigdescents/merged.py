"""The merged walk: the generating tree of a class of patterns of length at
most 3, level by level, with one state per key.

An avoider of length m has m + 1 sites, site i lying before its letter i
(0-based) and between the letters a = pi_i and b = pi_{i+1}, with the
sentinels a = 0 at site 0 and b = m + 1 at the end site m.  Its children are
its insertions of m + 1 at the live sites, those where the new maximum makes
no occurrence of a pattern (West, Discrete Math. 146, 1995).  A state holds
one byte per site, in order, and a ``{value: count}`` tally of the avoiders
it stands for.  A live site's byte is rank = min(r + 1, m + 1 - b) plus
`DESCENT` when (a, b) is an r-descent; other sites hold `DEAD`.  A 0 after
the word puts b = 0 at the end, which changes the root's code alone.

A child's codes follow from its parent's codes and the site i (the view of
the insertion encoding, Albert, Linton & Ruskuc, Electron. J. Combin. 12,
2005).  Every pair of the parent other than (a, b) survives with its
descent flag, and its rank goes up by one unless it is 0 or r + 1; (a, top)
is an ascent of rank 1, and (top, b) is an r-descent exactly when site i had
rank r + 1, with that rank bumped.  A site where some pattern's occurrence
would end never revives, since the occurrence stays in every descendant, so
liveness alone decides the future, and for each pattern the child's live
sites follow from the parent's by its kind:
- 123 and 213 (the prefix before the site holds no 12, resp. 21): the
  sites before i stay, and those after i die; (top, b) lives for 213, and
  for 123 only when i = 0, where every site stays;
- 312 and 321 (the suffix after the site holds no 12, resp. 21), mirrored:
  the sites after i stay and those before die; (a, top) lives for 312, and
  for 321 only at the end, where every site stays;
- 132 and 231 (the prefix holds the top, resp. bottom, values): 132 keeps
  site 0 and the sites after i, (a, top) dead unless i = 0, where every
  site stays; 231, mirrored, keeps the sites before i and the end;
- 12 and 21 leave site 0 only and the end only, and 1 kills the empty
  permutation's one site.
A class's live sites are the sites live for each of its patterns, so one
dead mark per site, not one flag per pattern, is all the state needs.  The
child's codes are slices of the parent's, bumped by one ``bytes.translate``,
killed, or killed but for site 0 or the end, around two new codes.

Soundness splits in two.  `walk` merges two avoiders of one length when
`key` gives their codes one value, and it needs only that avoiders with one
key have the same subtree up to the update of their values by `push`.  Each
client's key proves that on its own; both clients live in `perms`
(`_merged_rows`, `descent_set_counts`), the one module that imports this.
"""

from __future__ import annotations

from typing import Callable, Iterator, Sequence

DESCENT, DEAD = 0x80, 0xFF
_RANKS = bytes(c if c == DEAD else c & ~DESCENT for c in range(256))
_DEAD = bytes([DEAD])

# How a rule treats the parent's sites on one side of the chosen site.
KILL, OUTER, KEEP = 0, 1, 2
# The chosen site where a rule keeps every site and both new ones.
FIRST, LAST = 1, 2
_KEEP_ALL = (KEEP, True, True, KEEP)

# Each pattern's rule: (sites before i, (a, top) live, (top, b) live, sites
# after i), and where it is _KEEP_ALL instead.  OUTER keeps only site 0 on
# the left and only the end on the right.
_RULES = {
    (1,): ((KILL, False, False, KILL), 0),
    (1, 2): ((KILL, True, False, KILL), 0),
    (2, 1): ((KILL, False, True, KILL), 0),
    (1, 2, 3): ((KEEP, True, False, KILL), FIRST),
    (2, 1, 3): ((KEEP, True, True, KILL), 0),
    (1, 3, 2): ((OUTER, False, True, KEEP), FIRST),
    (2, 3, 1): ((KEEP, True, False, OUTER), LAST),
    (3, 1, 2): ((KILL, True, True, KEEP), 0),
    (3, 2, 1): ((KILL, False, True, KEEP), LAST),
}


def live_codes(codes: bytes) -> bytes:
    """Site 0's code, the live interior codes in order, and the end's code."""
    return codes[:1] + codes[1:-1].translate(None, _DEAD) + codes[-1:]


def site_ranks(codes: bytes) -> bytes:
    """The codes with their descent flags cleared."""
    return codes.translate(_RANKS)


class Sites:
    """The codes of a class for des_r(r), of the word with a 0 appended
    when `padded`, and how a child's codes follow from its parent's.  r is
    capped at n, which changes no code: no pair of 0..n is an n-descent."""

    def __init__(self, pats: Sequence[Sequence[int]], r: int, n: int,
                 padded: bool):
        r = min(r, n)
        if r + 1 >= DEAD & ~DESCENT:
            raise ValueError("site codes fit one byte only while "
                             "min(r, n) <= 125")
        live = [rank | flag for flag in (0, DESCENT) for rank in range(r + 2)]
        made, broken = bytearray(256), bytearray(256)
        bump = bytearray(range(256))
        for c in live:
            rank = c & ~DESCENT
            made[c], broken[c] = rank == r + 1, c != rank
            if 0 < rank <= r:
                bump[c] += 1
        self.made, self.broken, self.bump = bytes(made), bytes(broken), \
            bytes(bump)
        self.dead = _DEAD * (n + 2)
        self.root = bytes([DEAD if (1,) in map(tuple, pats) else padded])
        self.moves = []
        for case in range(4):  # FIRST when i = 0, LAST when i = m
            left, a, b, right = _KEEP_ALL
            for p in pats:
                rule, special = _RULES[tuple(p)]
                if not case & special:
                    left, right = min(left, rule[0]), min(right, rule[3])
                    a, b = a and rule[1], b and rule[2]
            mid = {c: bytes([1 if a else DEAD,
                             bump[c & ~DESCENT] | DESCENT * made[c] if b
                             else DEAD]) for c in live}
            self.moves.append((left, mid, right))

    def child(self, codes: bytes, up: bytes, i: int) -> bytes:
        """The codes after inserting the new maximum at live site i, given
        the parent's `codes` and ``up = codes.translate(self.bump)``."""
        m = len(codes) - 1
        left, mid, right = self.moves[(i == 0) | (i == m) << 1]
        if left == KEEP:
            head = up[:i]
        elif left == KILL:
            head = self.dead[:i]
        else:
            head = up[:1] + self.dead[:i - 1]
        if right == KEEP:
            tail = up[i + 1:]
        elif right == KILL:
            tail = self.dead[:m - i]
        else:
            tail = self.dead[:m - i - 1] + up[m:]
        return head + mid[codes[i]] + tail


def walk(n: int, pats: Sequence[Sequence[int]], r: int,
         key: Callable[[bytes], object],
         push: Callable[[dict, int, int, int, dict], None],
         padded: bool = False) -> Iterator[list[dict]]:
    """Yield, for each length m = 0..n, tallies whose sum counts the
    avoiders of length m by value; the empty permutation has value 0.

    For each live site i of a state, ``push(values, i, made, broken, into)``
    adds to the tally `into` the values of the children at i, where `made`
    is 1 when (top, b) is an r-descent and 0 otherwise, and `broken` is 1
    when (a, b) was one; b = 0 past the last letter when `padded`.
    The children of one key share one state, whose codes are the first
    child's.  The last level is tallied from its parents, into one tally,
    without building its codes.  Each level is dropped once walked.
    """
    sites = Sites(pats, r, n, padded)
    bump, made, broken, child = sites.bump, sites.made, sites.broken, \
        sites.child
    level = {None: (sites.root, {0: 1})}
    yield [{0: 1}]
    for top in range(1, n + 1):
        following, final = {}, {}
        while level:
            codes, values = level.popitem()[1]
            up = codes.translate(bump)
            for i, c in enumerate(codes):
                if c == DEAD:
                    continue
                if top == n:
                    push(values, i, made[c], broken[c], final)
                    continue
                codes_i = child(codes, up, i)
                state = following.get(k := key(codes_i))
                if state is None:
                    state = following[k] = (codes_i, {})
                push(values, i, made[c], broken[c], state[1])
        level = following
        yield [final] if top == n else [values for _, values in level.values()]
