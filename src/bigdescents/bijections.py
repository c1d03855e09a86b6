"""Constructive bijections between avoider classes, paths, and binary words.

Every bijection is registered with its domain (an avoidance class and a
parser, or Dyck paths), codomain parser, forward and inverse maps, and the
statistic identities it transports.  The forward maps trust their domain,
except that ``phi_213_231`` raises ``DomainViolationError`` on a letter that is
neither the least nor the greatest of those left: ``apply`` checks the input
once against the record (a permutation, avoiding the domain patterns, at least
``min_length`` long).  They build their paths and words through
``Value._trusted``, without the constructors' checks, which the inverses and
parsers keep; the tests rebuild every image through the public constructors.
``verify_transfer`` reads its domain once, from `perms.avoider_stream`
(O(n) memory), calls the maps directly, and counts every identity's failures
over the stream in one loop, applying the forward map once per object; a
bdes-preserving composite is an identity of its first map's record.

The nine bijections:

- omega_f, omega_l: 231-avoiders to Dyck paths, via the first/last return
  decompositions matched against the sigma-n-tau decomposition.  omega_l is
  the push/pop word of one right-to-left stack pass over the permutation.
  Reflecting a path (reading it backwards with U and D swapped) turns its
  last-return decomposition into its first-return one, so
  omega_f = mirror o omega_l.  The inverse decodes the first-return
  decomposition in one pass over the steps, sharing nothing with the stack
  pass, and omega_l_inv = omega_f_inv o mirror.  The mirror maps
  step strings to step strings, so no map builds (and validates) a second
  DyckPath.
- chi: 321-avoiders to Dyck paths.  The path's k-th D step sits at height
  max(pi_1..pi_k) (north/east staircase tight against the diagonal, north
  playing U and east playing D); peaks correspond to weak excedances.
- psi: Dyck paths of semilength m to 2-Motzkin paths of length m-1, reading
  off the peak coloring: step i encodes the colors of the i-th U step and
  the (i+1)-th D step (blue,red)->u, (red,blue)->d, (blue,blue)->h0,
  (red,red)->h1.
- phi_213_231, phi_213_312: avoiders of the pair to binary words of length
  n-1 (suffix-min/max indicators, resp. before/after-the-maximum indicators).
- phi_123_132, phi_132_213, phi_231_321: avoiders of the pair to binary
  words of length n ending in 1 (indicator words of right-to-left maxima,
  ``rlmax_word``, for the first two; of left-to-right maxima, ``lrmax_word``,
  for the third).  Each inverse reads the word block by block: a 1 at
  position k is one block, the maximum k with the values between it and the
  previous 1's position, and the inverse lays the blocks out in order.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from . import perms
from .config import DEFAULT_LIMITS, Limits
from .errors import DomainViolationError
from .paths import (BinaryWord, DyckPath, TwoMotzkinPath, iter_dyck_paths,
                    occ_factor, path_statistic)
from .perms import Perm, check_permutation, parse_permutation


def _require_avoider(pi: Perm, patterns: tuple[Perm, ...]) -> None:
    for sigma in patterns:
        if perms.contains(pi, sigma):
            raise DomainViolationError(
                f"{pi} contains the pattern {perms.format_permutation(sigma)}"
            )


# ---------------------------------------------------------------------------
# omega_f and omega_l: 231-avoiders <-> Dyck paths
# ---------------------------------------------------------------------------

# In a 231-avoider sigma n tau every letter of tau exceeds every letter of
# sigma (Krattenthaler, Adv. Appl. Math. 27, 2001).  Read right to left, the
# pass below pushes the letters of tau, pops them all when n arrives, pushes
# n and then treats sigma on top of it, so its word is w(std(tau)) U w(sigma)
# D: the last-return encoding, with no recursion (the stack word of Knuth,
# TAOCP vol. 1, 2.2.1, ex. 5).

def _stack_word(pi: Perm) -> str:
    """Right to left, each letter pops (D) every smaller letter on top of the
    stack and is then pushed (U); whatever is left is popped at the end."""
    word = []
    stack = [len(pi) + 1]  # a bottom larger than every letter, never popped
    for v in reversed(pi):
        while stack[-1] < v:
            stack.pop()
            word.append("D")
        stack.append(v)
        word.append("U")
    word.append("D" * (len(stack) - 1))
    return "".join(word)


_SWAP_UD = str.maketrans("UD", "DU")


def _mirror(steps: str) -> str:
    """The steps read backwards with U and D swapped (the reflected path)."""
    return steps[::-1].translate(_SWAP_UD)


def omega_l(pi: Perm) -> DyckPath:
    """Last-return encoding: sigma n tau maps to w(std(tau)) U w(sigma) D,
    the word of the stack pass.

    >>> str(omega_l((3, 1, 2, 5, 4)))
    'UDUUUDDUDD'
    """
    return DyckPath._trusted(_stack_word(pi))


def omega_f(pi: Perm) -> DyckPath:
    """First-return encoding: sigma n tau maps to U w(sigma) D w(std(tau)),
    the mirror of `omega_l`'s path (reflection swaps the first-return and
    last-return decompositions)."""
    return DyckPath._trusted(_mirror(_stack_word(pi)))


def _first_return_decode(steps: str) -> Perm:
    """Decode the Dyck word U w(sigma) D w(tau) as sigma n tau in one pass.

    Each D step is the next position, holding the letter of the U it
    matches.  In sigma n tau every letter of sigma is below every letter of
    tau, and both are below n, so ranking the letters by value lists
    sigma's, then tau's, then n, recursively.  The U's directly inside one
    U (or at height 0) are n, the maximum of its tau, the maximum of that
    tau's tau, ...: they wait until that U's D (or the end of the word),
    after every letter below them has been ranked, and are then ranked
    last first.
    """
    out = [0] * (len(steps) // 2)
    waiting = []  # positions of letters not yet ranked, innermost level last
    starts = []  # per open U, where the level directly inside it starts
    rank = position = 0
    for ch in steps:
        if ch == "U":
            starts.append(len(waiting))
        else:
            start = starts.pop()
            while len(waiting) > start:
                rank += 1
                out[waiting.pop()] = rank
            waiting.append(position)
            position += 1
    while waiting:
        rank += 1
        out[waiting.pop()] = rank
    return tuple(out)


def omega_f_inv(path: DyckPath) -> Perm:
    return _first_return_decode(path.steps)


def omega_l_inv(path: DyckPath) -> Perm:
    return _first_return_decode(_mirror(path.steps))


# ---------------------------------------------------------------------------
# chi: 321-avoiders <-> Dyck paths
# ---------------------------------------------------------------------------

def chi(pi: Perm) -> DyckPath:
    """Staircase profile of the permutation array, tight to the diagonal.

    >>> str(chi((2, 4, 1, 3, 7, 5, 6)))
    'UUDUUDDDUUUDDD'
    """
    word = []
    height = 0  # the running maximum
    for v in pi:
        if v > height:
            word.append("U" * (v - height))
            height = v
        word.append("D")
    return DyckPath._trusted("".join(word))


def chi_inv(path: DyckPath) -> Perm:
    """Peaks become weak excedances; leftover rows and columns pair up
    in increasing order to fill the positions below the diagonal."""
    n = path.semilength
    values = [0] * n  # by column; 0 marks a column without a peak
    peak_row = [False] * (n + 1)
    height = column = 0
    prev = ""
    for ch in path.steps:
        if ch == "U":
            height += 1
        else:
            if prev == "U":
                values[column] = height  # peak cell
                peak_row[height] = True
            column += 1
        prev = ch
    row = 1
    for column in range(n):
        if not values[column]:
            while peak_row[row]:
                row += 1
            values[column] = row
            row += 1
    return check_permutation(values)


# ---------------------------------------------------------------------------
# psi: Dyck paths <-> 2-Motzkin paths
# ---------------------------------------------------------------------------

# [i-th U step red][(i+1)-th D step red] -> step i of the 2-Motzkin word
_PSI_STEPS = (("h0", "u"), ("d", "h1"))


def psi(path: DyckPath) -> TwoMotzkinPath:
    """Read the peak coloring off into a 2-Motzkin word of length m-1.

    >>> str(psi(DyckPath("UDUUDUUUDUDDUDDD")))
    'h1 u h1 h0 u d d'
    """
    # a U is red iff a D follows, a D iff a U precedes.  The i-th U step
    # comes before the (i+1)-th D step and is not next to it, so its color
    # is known when that D is read.
    u_red = []  # per U step read so far
    out = []
    downs = 0
    prev = ""
    for s in path.steps:
        if s == "U":
            u_red.append(False)
        else:
            if prev == "U":
                u_red[-1] = True
            if downs:
                out.append(_PSI_STEPS[u_red[downs - 1]][prev == "U"])
            downs += 1
        prev = s
    return TwoMotzkinPath._trusted(tuple(out))


def psi_inv(alpha: TwoMotzkinPath) -> DyckPath:
    """Rebuild the Dyck path from the color data.

    Reconstruction rule: the word's i-th step determines the colors of the
    i-th U step and the (i+1)-th D step, and the first D and last U are red.
    In any Dyck path written as ascent/descent runs U^{a_1} D^{b_1} ...
    U^{a_q} D^{b_q}, the red U steps are exactly the last of each ascent run
    and the red D steps the first of each descent run, so the run lengths are
    the gaps between consecutive red U indices (resp. red D indices).  The
    round-trip tests certify that this inverts psi.
    """
    m = len(alpha.steps) + 1
    ascents, descents = [], []
    red_u, red_d = 0, 1  # the last red U and red D index
    for i, tok in enumerate(alpha.steps, 1):
        if tok == "d" or tok == "h1":  # the i-th U step is red
            ascents.append("U" * (i - red_u))
            red_u = i
        if tok == "u" or tok == "h1":  # the (i+1)-th D step is red
            descents.append("D" * (i + 1 - red_d))
            red_d = i + 1
    ascents.append("U" * (m - red_u))
    descents.append("D" * (m + 1 - red_d))
    runs = [""] * (2 * len(ascents))
    runs[::2], runs[1::2] = ascents, descents
    return DyckPath("".join(runs))  # validation rejects ill-formed inputs


# ---------------------------------------------------------------------------
# phi bijections: pair-avoiders <-> binary words
# ---------------------------------------------------------------------------

def phi_213_231(pi: Perm) -> BinaryWord:
    """w_k = 1 if pi_k is the minimum of the suffix from k, 0 if the maximum.

    >>> str(phi_213_231((9, 1, 2, 3, 8, 4, 7, 6, 5)))
    '01110100'
    """
    n = len(pi)
    bits = []
    lo, hi = 1, n
    for k in range(n - 1):
        if pi[k] == lo:
            bits.append("1")
            lo += 1
        elif pi[k] == hi:
            bits.append("0")
            hi -= 1
        else:
            raise DomainViolationError(
                f"{pi} is not determined by suffix minima/maxima at position {k + 1}"
            )
    return BinaryWord._trusted("".join(bits))


def phi_213_231_inv(w: BinaryWord) -> Perm:
    lo, hi = 1, len(w.bits) + 1
    out = []
    for ch in w.bits:
        if ch == "1":
            out.append(lo)
            lo += 1
        else:
            out.append(hi)
            hi -= 1
    out.append(lo)
    return tuple(out)


def phi_213_312(pi: Perm) -> BinaryWord:
    """w_k = 1 if the letter k appears before n in pi, else 0."""
    n = len(pi)
    bits = ["0"] * (n - 1)
    for v in pi:
        if v == n:
            break
        bits[v - 1] = "1"
    return BinaryWord._trusted("".join(bits))


def phi_213_312_inv(w: BinaryWord) -> Perm:
    before, after = [], []
    for k, ch in enumerate(w.bits, 1):
        (before if ch == "1" else after).append(k)
    return (*before, len(w.bits) + 1, *reversed(after))


def _maxima_word(letters, n: int) -> BinaryWord:
    """Indicator word, over the values 1..n, of the letters larger than every
    letter before them."""
    bits = ["0"] * n
    hi = 0
    for v in letters:
        if v > hi:
            bits[v - 1] = "1"
            hi = v
    return BinaryWord._trusted("".join(bits))


def rlmax_word(pi: Perm) -> BinaryWord:
    """Indicator word of the right-to-left maxima (phi_123_132 and
    phi_132_213; a nonempty word ends in 1)."""
    return _maxima_word(reversed(pi), len(pi))


def lrmax_word(pi: Perm) -> BinaryWord:
    """Indicator word of the left-to-right maxima (phi_231_321; a nonempty
    word ends in 1)."""
    return _maxima_word(pi, len(pi))


# One block per 1 of the word: its position k (a maximum of the preimage)
# and the values between the previous 1's position and k.  Every inverse
# below lays out these blocks, in one order or the other, finding each 1
# with str.find or str.rfind.

def _maxima_bits(w: BinaryWord) -> str:
    if not w.bits.endswith("1"):
        raise ValueError(f"word {w.bits!r} does not end in 1")
    return w.bits


def phi_123_132_inv(w: BinaryWord) -> Perm:
    """Largest maximum first, each right-to-left maximum after its block's
    other values in decreasing order.

    >>> phi_123_132_inv(BinaryWord("010010001"))
    (8, 7, 6, 9, 4, 3, 5, 1, 2)
    """
    bits, out = _maxima_bits(w), []
    k = len(bits)
    while k:  # the 1 at position k, after the previous one at position p
        p = bits.rfind("1", 0, k - 1) + 1
        out.extend(range(k - 1, p, -1))
        out.append(k)
        k = p
    return tuple(out)


def phi_132_213_inv(w: BinaryWord) -> Perm:
    """Largest maximum first, each block increasing up to its right-to-left
    maximum."""
    bits, out = _maxima_bits(w), []
    k = len(bits)
    while k:
        p = bits.rfind("1", 0, k - 1) + 1
        out.extend(range(p + 1, k))
        out.append(k)
        k = p
    return tuple(out)


def phi_231_321_inv(w: BinaryWord) -> Perm:
    """Smallest maximum first, each left-to-right maximum before its block's
    other values in increasing order."""
    bits, out = _maxima_bits(w), []
    p = 0
    while p < len(bits):  # the 1 at position k, after the previous one at p
        k = bits.find("1", p) + 1
        out.append(k)
        out.extend(range(p + 1, k))
        p = k
    return tuple(out)


# ---------------------------------------------------------------------------
# registry, apply/invert, and the transfer verifier
# ---------------------------------------------------------------------------

class Bijection(NamedTuple):
    name: str
    domain_patterns: tuple[Perm, ...] | None  # None: domain is Dyck paths
    domain: Callable[[str], object]  # parses one domain object written as text
    codomain: Callable[[str], object]  # parses one image written as text
    min_length: int
    forward: Callable
    backward: Callable
    # identities: (label, statistic on the domain object, statistic on image)
    identities: tuple[tuple[str, Callable, Callable], ...]


def _occ(factor: str, level0: bool = False):
    return lambda p: occ_factor(p, factor, level0_only=level0)


def _word_occ(factor: str):
    return lambda w: occ_factor(w, factor)


def _basc(p: DyckPath) -> int:
    return path_statistic(p, "hibasc") + path_statistic(p, "lobasc")


def _bdes_after_inverse(second: str) -> tuple[str, Callable, Callable]:
    """The composite second^-1 . first preserves bdes, with second's record
    read when the check runs, so that a patched one is seen."""
    return (f"bdes <-> bdes of {second}^-1", perms.bdes,
            lambda w: perms.bdes(BIJECTIONS[second].backward(w)))


def _d_plus_h1_plus_1(alpha: TwoMotzkinPath) -> int:
    counts = alpha.step_counts()
    return counts["d"] + counts["h1"] + 1


BIJECTIONS: dict[str, Bijection] = {}


def _register(b: Bijection):
    BIJECTIONS[b.name] = b


_register(Bijection(
    name="omega_f", domain_patterns=((2, 3, 1),),
    domain=parse_permutation, codomain=DyckPath, min_length=0,
    forward=omega_f, backward=omega_f_inv,
    identities=(
        ("bdes <-> occ_DUU", perms.bdes, _occ("DUU")),
        ("des <-> occ_DU", perms.des, _occ("DU")),
    ),
))
_register(Bijection(
    name="omega_l", domain_patterns=((2, 3, 1),),
    domain=parse_permutation, codomain=DyckPath, min_length=0,
    forward=omega_l, backward=omega_l_inv,
    identities=(
        ("pk <-> occ_DUU", perms.pk, _occ("DUU")),
        ("des <-> occ_DU", perms.des, _occ("DU")),
    ),
))
_register(Bijection(
    name="chi", domain_patterns=((3, 2, 1),),
    domain=parse_permutation, codomain=DyckPath, min_length=0,
    forward=chi, backward=chi_inv,
    identities=(
        ("des <-> occ_UDD", perms.des, _occ("UDD")),
        ("sdes <-> occ_UUDD^0", perms.sdes, _occ("UUDD", level0=True)),
        ("hibasc <-> hibasc", perms.hibasc, lambda p: path_statistic(p, "hibasc")),
        ("lobasc <-> lobasc", perms.lobasc, lambda p: path_statistic(p, "lobasc")),
        ("first letter > 1 <-> ini_UU",
         lambda pi: 1 if pi and pi[0] > 1 else 0,
         lambda p: path_statistic(p, "ini_UU")),
        # big descents of 123-avoiders match high/low big-ascent counts of
        # the reversed 321-avoider's staircase path.  pi contains
        # reverse(sigma) iff reverse(pi) contains sigma, so as x runs over
        # the 321-avoiders, each once, pi = reverse(x) runs over the
        # 123-avoiders, each once: f(pi) = g(chi(reverse(pi))) is checked as
        # f(reverse(x)) = g(chi(x)), on the 123-avoiders' population
        ("bdes <-> hibasc + lobasc of chi(reverse)", perms.basc, _basc),
        ("rbdes <-> hibasc + lobasc + ini_UU of chi(reverse)", perms.lbasc,
         lambda p: _basc(p) + path_statistic(p, "ini_UU")),
    ),
))
_register(Bijection(
    name="psi", domain_patterns=None,
    domain=DyckPath, codomain=TwoMotzkinPath.parse, min_length=1,
    forward=psi, backward=psi_inv,
    identities=(
        ("pk = d + h1 + 1", lambda p: path_statistic(p, "pk"),
         _d_plus_h1_plus_1),
        ("con = d", lambda p: path_statistic(p, "con"),
         lambda a: a.step_counts()["d"]),
    ),
))
_register(Bijection(
    name="phi_213_231", domain_patterns=((2, 1, 3), (2, 3, 1)),
    domain=parse_permutation, codomain=BinaryWord, min_length=1,
    forward=phi_213_231, backward=phi_213_231_inv,
    identities=(("bdes <-> occ_01", perms.bdes, _word_occ("01")),
                _bdes_after_inverse("phi_213_312")),
))
_register(Bijection(
    name="phi_213_312", domain_patterns=((2, 1, 3), (3, 1, 2)),
    domain=parse_permutation, codomain=BinaryWord, min_length=1,
    forward=phi_213_312, backward=phi_213_312_inv,
    identities=(("bdes <-> occ_01", perms.bdes, _word_occ("01")),),
))
_register(Bijection(
    name="phi_123_132", domain_patterns=((1, 2, 3), (1, 3, 2)),
    domain=parse_permutation, codomain=BinaryWord, min_length=1,
    forward=rlmax_word, backward=phi_123_132_inv,
    identities=(("bdes <-> occ_10 + occ_011", perms.bdes,
                 lambda w: occ_factor(w, "10") + occ_factor(w, "011")),
                _bdes_after_inverse("phi_132_213")),
))
_register(Bijection(
    name="phi_132_213", domain_patterns=((1, 3, 2), (2, 1, 3)),
    domain=parse_permutation, codomain=BinaryWord, min_length=1,
    forward=rlmax_word, backward=phi_132_213_inv,
    identities=(("bdes <-> occ_10 + occ_011", perms.bdes,
                 lambda w: occ_factor(w, "10") + occ_factor(w, "011")),),
))
_register(Bijection(
    name="phi_231_321", domain_patterns=((2, 3, 1), (3, 2, 1)),
    domain=parse_permutation, codomain=BinaryWord, min_length=1,
    forward=lrmax_word, backward=phi_231_321_inv,
    identities=(("bdes <-> occ_001", perms.bdes, _word_occ("001")),),
))


def apply(name: str, x):
    """Apply a bijection by name to a domain object, checked against the
    record: a permutation avoiding the domain patterns or a Dyck path, at
    least ``min_length`` long."""
    b = _lookup(name)
    if b.domain_patterns is None:
        if not isinstance(x, DyckPath):
            raise TypeError(f"{name} expects a DyckPath")
        size = x.semilength
    else:
        x = check_permutation(x)
        _require_avoider(x, b.domain_patterns)
        size = len(x)
    if size < b.min_length:
        raise ValueError(f"{name} is defined from length {b.min_length} on")
    return b.forward(x)


def invert(name: str, y):
    """Apply the inverse of a bijection by name to a codomain object."""
    return _lookup(name).backward(y)


def _lookup(name: str) -> Bijection:
    try:
        return BIJECTIONS[name]
    except KeyError:
        raise ValueError(f"unknown bijection {name!r}; "
                         f"have {sorted(BIJECTIONS)}") from None


class IdentityResult(NamedTuple):
    label: str
    population: int
    failures: int


class TransferReport(NamedTuple):
    bijection: str
    n: int
    population: int
    round_trip_failures: int
    identities: tuple[IdentityResult, ...]

    def all_pass(self) -> bool:
        return self.round_trip_failures == 0 and all(
            r.failures == 0 for r in self.identities)

    def to_json(self) -> dict:
        return {**self._asdict(),
                "identities": [r._asdict() for r in self.identities]}


def _domain_objects(b: Bijection, n: int, limits: Limits = DEFAULT_LIMITS):
    if b.domain_patterns is None:
        # Dyck paths of semilength n are as many as the avoiders of one
        # length-3 pattern, so they share the avoider-class guard
        limits.check("avoider_guard_patterns", n)
        yield from iter_dyck_paths(n)
    else:
        yield from perms.avoider_stream(n, b.domain_patterns, limits)


def verify_transfer(name: str, n: int,
                    limits: Limits = DEFAULT_LIMITS) -> TransferReport:
    """Exhaustively check round trips and statistic identities at size n,
    in one loop that enumerates the domain under `limits`' guards once and
    applies the forward map once per object: each (label, f, g) counts the
    objects x with f(x) != g(image of x) as failures."""
    b = _lookup(name)
    if n < 0:
        raise ValueError("length must be non-negative")
    if n < b.min_length:
        raise ValueError(f"{name} is defined from length {b.min_length} on")
    identities = (("round trip", lambda x: x, b.backward), *b.identities)
    checks = [(i, f, g) for i, (_, f, g) in enumerate(identities)]
    population, failures = 0, [0] * len(checks)
    for x in _domain_objects(b, n, limits):
        population += 1
        y = b.forward(x)
        for i, f, g in checks:
            if f(x) != g(y):
                failures[i] += 1
    round_trip, *results = (
        IdentityResult(label, population, bad)
        for (label, _, _), bad in zip(identities, failures))
    return TransferReport(bijection=name, n=n, population=population,
                          round_trip_failures=round_trip.failures,
                          identities=tuple(results))
