"""Test-side oracles: the identities, counts and enumerators that several test
files check the package against and that no program path runs.

The 231-avoider identities take their distributions from
``perms.distribution_table``; the root and shape checks ask the witnesses
that the conjecture scans run; the 2-Motzkin and binary-word enumerators
build their own words, so the package's generators are not their oracle.
"""

from typing import Iterator, Sequence

from bigdescents import conjectures as cj
from bigdescents.algebra import MultiPoly
from bigdescents.paths import BinaryWord, TwoMotzkinPath
from bigdescents.perms import distribution_table

_T = MultiPoly.var("t")


# ---------------------------------------------------------------------------
# real roots and the shape of a row of counts
# ---------------------------------------------------------------------------

def real_root_count(p) -> int:
    """Number of real roots counted without multiplicity: the distinct count
    of one Sturm chain."""
    return cj._sturm_count(cj.poly(p))[0]


def is_log_concave(counts: Sequence[int]) -> bool:
    """c_k^2 >= c_{k-1} c_{k+1} at every interior index, literally."""
    return cj._log_concave_witness(list(counts)) is None


def is_unimodal(counts: Sequence[int]) -> bool:
    return cj._unimodal_witness(list(counts)) is None


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
    rhs = MultiPoly.zero()
    for k, coeff in enumerate(p_poly):
        if not coeff:
            continue
        if n - 1 - 2 * k < 0:
            return False
        rhs = rhs + coeff * 4 ** k * _T ** k * (1 + _T) ** (n - 1 - 2 * k)
    return cj.poly(a_poly) * 2 ** (n - 1) == rhs


def stembridge_consistency(n: int) -> bool:
    """Both 231-avoider polynomials (descents and peaks) real-rooted, and the
    substitution-equivalence they should satisfy observed: equal verdicts."""
    a_rooted = cj.is_real_rooted(
        distribution_table(n, ((2, 3, 1),), "des").poly())
    p_rooted = cj.is_real_rooted(
        distribution_table(n, ((2, 3, 1),), "pk").poly())
    return a_rooted == p_rooted and a_rooted


# ---------------------------------------------------------------------------
# binary words and 2-Motzkin paths
# ---------------------------------------------------------------------------

def run_count(w: BinaryWord, r: int) -> int:
    """Maximal runs of 0's of length at least r."""
    if r < 1:
        raise ValueError("r must be at least 1")
    count = run = 0
    for ch in w.bits + "1":
        if ch == "0":
            run += 1
        else:
            if run >= r:
                count += 1
            run = 0
    return count


def iter_binary_words(n: int) -> Iterator[BinaryWord]:
    """All binary words of length n, in lexicographic order."""
    if n < 0:
        raise ValueError("length must be non-negative")
    for bits in range(2 ** n):
        yield BinaryWord(format(bits, f"0{n}b") if n else "")


def iter_two_motzkin(n: int) -> Iterator[TwoMotzkinPath]:
    """All 2-Motzkin paths of length n, in lexicographic order
    (d < h0 < h1 < u): each step keeps the height between 0 and the number
    of steps left."""
    if n < 0:
        raise ValueError("length must be non-negative")

    def extend(prefix: tuple, height: int) -> Iterator[tuple]:
        left = n - len(prefix)
        if not left:
            yield prefix
            return
        for step, rise in (("d", -1), ("h0", 0), ("h1", 0), ("u", 1)):
            if 0 <= height + rise < left:
                yield from extend(prefix + (step,), height + rise)

    for word in extend((), 0):
        yield TwoMotzkinPath(word)
