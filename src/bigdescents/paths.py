"""Dyck paths, 2-Motzkin paths, and binary words, with factor statistics.

Height convention: U = +1, D = -1, starting at 0; "level 0" means an
occurrence whose first step starts at height 0.  Factor occurrences may
overlap (sliding-window counting).

Peak coloring: the U and D steps belonging to UD-factors (peaks) are red,
all other steps blue, so a U step is red iff a D follows it and a D step is
red iff a U precedes it.  Within each maximal ascent run followed by a
descent run, exactly the last U and the first D are red.  The blue steps of
a Dyck path form a Dyck path again (its core); blue U and blue D steps are
numbered independently, each starting from 1.

Factor counts run on ``str.find``.  The statistics the bijection identities
read (`path_statistics`) come from one scan of the steps, made at most once
per path and cached on it.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Iterator, Mapping

from .values import Value


def _balanced(word, up, down, level=()) -> bool:
    """Whether `word` is a walk of `up` (+1), `down` (-1) and `level` (0)
    steps that never goes below height 0 and ends there."""
    height = 0
    for step in word:
        if step == up:
            height += 1
        elif step == down:
            height -= 1
            if height < 0:
                return False
        elif step not in level:
            return False
    return height == 0


def _dyck_words(n: int) -> Iterator[str]:
    """Every Dyck word of n steps, in lexicographic order (D < U).

    A step is taken only when the walk can still come back to height 0 in
    the steps left, so no prefix is a dead end unless n is odd.  The stack
    pops D first."""
    stack = [("", 0)]
    while stack:
        prefix, height = stack.pop()
        left = n - len(prefix)
        if height == left:  # only down steps remain
            yield prefix + "D" * left
            continue
        if height + 1 < left:
            stack.append((prefix + "U", height + 1))
        if height:
            stack.append((prefix + "D", height - 1))


class DyckPath(Value):
    """A balanced U/D word whose every prefix has at least as many U as D."""

    _fields = ("steps",)
    steps: str

    def __init__(self, steps: str):
        if not DyckPath.is_valid(steps):
            raise ValueError(f"{steps!r} is not a Dyck word")
        self.__dict__["steps"] = steps

    @staticmethod
    def is_valid(steps: str) -> bool:
        return isinstance(steps, str) and _balanced(steps, "U", "D")

    @property
    def semilength(self) -> int:
        return len(self.steps) // 2

    @property
    def statistics(self) -> Mapping[str, int]:
        """`path_statistics` of this path, computed on first use and kept in
        the instance dict (a `functools.cached_property` would take a lock
        on every first read).  Equality and the hash read only `steps`, so
        the cache changes neither."""
        stats = self.__dict__.get("_statistics")
        if stats is None:
            stats = self.__dict__["_statistics"] = path_statistics(self)
        return stats

    def __str__(self):
        return self.steps

    def __len__(self):
        return len(self.steps)


class TwoMotzkinPath(Value):
    """A word over u, d, h0, h1 with balanced u/d and non-negative prefixes."""

    _fields = ("steps",)
    steps: tuple[str, ...]

    def __init__(self, steps: tuple[str, ...]):
        if not TwoMotzkinPath.is_valid(steps):
            raise ValueError(f"{steps!r} is not a 2-Motzkin word")
        self.__dict__["steps"] = steps

    @staticmethod
    def is_valid(steps: tuple[str, ...]) -> bool:
        return isinstance(steps, tuple) and _balanced(steps, "u", "d",
                                                      ("h0", "h1"))

    @classmethod
    def parse(cls, text: str) -> "TwoMotzkinPath":
        return cls(tuple(text.split()))

    def step_counts(self) -> Mapping[str, int]:
        """The number of steps of each kind, by token (a read-only mapping),
        counted on first use and cached on the path like
        `DyckPath.statistics`."""
        counts = self.__dict__.get("_step_counts")
        if counts is None:
            steps = self.steps
            counts = self.__dict__["_step_counts"] = MappingProxyType({
                "u": steps.count("u"), "d": steps.count("d"),
                "h0": steps.count("h0"), "h1": steps.count("h1")})
        return counts

    def __str__(self):
        return " ".join(self.steps)

    def __len__(self):
        return len(self.steps)


class BinaryWord(Value):
    """A word over {0,1}, stored most-significant-first as written."""

    _fields = ("bits",)
    bits: str

    def __init__(self, bits: str):
        if not BinaryWord.is_valid(bits):
            raise ValueError(f"{bits!r} is not a binary word")
        self.__dict__["bits"] = bits

    @staticmethod
    def is_valid(bits: str) -> bool:
        return isinstance(bits, str) and all(ch in "01" for ch in bits)

    def __str__(self):
        return self.bits

    def __len__(self):
        return len(self.bits)


# ---------------------------------------------------------------------------
# factor statistics
# ---------------------------------------------------------------------------

def occ_factor(p: DyckPath | BinaryWord, factor: str, level0_only: bool = False) -> int:
    """Occurrences (possibly overlapping) of a factor; optionally only those
    starting at height 0 (Dyck paths only).

    >>> occ_factor(DyckPath("UUUDDUDDUDUUDD"), "UD")
    4
    >>> occ_factor(DyckPath("UUUDDUDDUDUUDD"), "UD", level0_only=True)
    1
    """
    if isinstance(p, DyckPath):
        word = p.steps
    elif isinstance(p, BinaryWord):
        if level0_only:
            raise ValueError("level-0 restriction only applies to Dyck paths")
        word = p.bits
    else:
        raise TypeError("occ_factor expects a DyckPath or BinaryWord")
    if not factor:
        raise ValueError("empty factor")
    count = ups = seen = 0  # ups: the U steps before step `seen`
    i = word.find(factor)
    while i >= 0:
        if level0_only:
            ups += word.count("U", seen, i)
            seen = i
        # the height before step i is 2 * ups - i
        if not level0_only or 2 * ups == i:
            count += 1
        i = word.find(factor, i + 1)
    return count


# ---------------------------------------------------------------------------
# colored statistics
# ---------------------------------------------------------------------------

def path_statistics(p: DyckPath) -> Mapping[str, int]:
    """The path statistics read by the bijection identities, by name, from
    one scan of the steps (a read-only mapping):

    - pk: number of UD-factors.
    - con: indices i with the i-th and (i+1)-th D steps adjacent while the
      i-th and (i+1)-th U steps are not.
    - hibasc: peaks other than the first that are not immediately preceded
      by another peak.
    - lobasc: indices l with the l-th and (l+1)-th blue D steps adjacent
      while the l-th and (l+1)-th blue U steps are not.
    - ini_UU: 1 if the path starts with UU.
    - returns: visits to height 0 after the start.

    The k-th U step comes before the k-th D step, and likewise for the blue
    (core) steps, so when a D step closes an adjacent pair of D steps the
    matching pair of U steps has already been seen.  A U step is blue iff a
    U follows it, and a D step iff a D precedes it, so two blue U steps are
    adjacent exactly inside UUU and two blue D steps exactly inside DDD.

    >>> dict(path_statistics(DyckPath("UUDUUDDDUUUDDD")))
    {'pk': 3, 'con': 1, 'hibasc': 2, 'lobasc': 1, 'ini_UU': 1, 'returns': 2}
    """
    steps = p.steps
    pk = con = lobasc = returns = after_peak = 0
    u_after_u = []  # per U step: the step before it is a U
    blue_u_after_blue_u = []  # per blue U step: the blue U before it is adjacent
    downs = blue_downs = height = 0
    peak_d = False  # the last D step ended a peak
    before = prev = ""  # the two steps before s
    for s in steps:
        if s == "U":
            height += 1
            u_after_u.append(prev == "U")
            if prev == "U":  # the U before this one is blue
                blue_u_after_blue_u.append(before == "U")
        else:
            height -= 1
            if prev == "U":
                pk += 1
                if before == "D" and peak_d:
                    after_peak += 1
                peak_d = True
            else:  # a blue D
                peak_d = False
                con += not u_after_u[downs]
                if before == "D":
                    lobasc += not blue_u_after_blue_u[blue_downs]
                blue_downs += 1
            downs += 1
            if not height:
                returns += 1
        before, prev = prev, s
    return MappingProxyType({
        "pk": pk, "con": con, "hibasc": max(pk - 1 - after_peak, 0),
        "lobasc": lobasc, "ini_UU": int(steps.startswith("UU")),
        "returns": returns})


def path_statistic(p: DyckPath, name: str) -> int:
    """One of `path_statistics`, read from the path's cached scan."""
    try:
        return p.statistics[name]
    except KeyError:
        raise ValueError(f"unknown path statistic {name!r}") from None


# ---------------------------------------------------------------------------
# exhaustive generator (the domain of the Dyck-path bijection checks)
# ---------------------------------------------------------------------------

def iter_dyck_paths(m: int) -> Iterator[DyckPath]:
    """All Dyck paths of semilength m, in lexicographic order (D < U),
    built unchecked: `_dyck_words` yields Dyck words alone."""
    if m < 0:
        raise ValueError("semilength must be non-negative")
    yield from map(DyckPath._trusted, _dyck_words(2 * m))
