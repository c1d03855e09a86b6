"""Named generating functions and closed counting formulas.

Every generating function record below expands through a requested truncation
order with exact polynomial coefficients.  Ids with both a closed form and a
functional-equation system get two independent routes (``expand`` and
``expand_functional``) whose agreement is part of the verification suite.
Each id's registry record names the route `series` takes by default: the
closed form, except for F.  F's closed route composes G with the
peak-insertion substitutions; its functional (default) route pulls G's
quadratic equation back through the same substitutions and solves it by
the fixed-point solver below, which is far cheaper.  Every expansion is
refused above the `series_guard` order of the caller's `Limits`.

Conventions: x marks permutation/word length, z marks path length, t marks
big descents (or the factor statistic standing in for them), s is the
secondary marker in the joint path statistics, and u, v, w mark high big
ascents, low big ascents, and an initial double rise of a Dyck path.

Every functional route is a right-hand side handed to the one solver,
`_solve`.  It evaluates the right-hand side once on lazy unknowns, computing
each coefficient once (an online fixed point: van der Hoeven, "Relax, but
don't be too lazy", J. Symbolic Comput. 34, 2002), then certifies the fixed
point by one eager evaluation on every unknown; a system that does not
settle raises DivergenceError.

The counting formulas and the r-Eulerian polynomials are closed forms or
recurrences; nothing here enumerates permutations, so the brute-force
tables of ``perms`` stay an independent oracle for all of them (``verify``).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, NamedTuple

from .algebra import MultiPoly, TruncatedSeries, _Cycle, series_compose
from .config import DEFAULT_LIMITS, Limits
from .errors import DivergenceError, InexactDivisionError

_T = MultiPoly.var("t")
_S = MultiPoly.var("s")
_U = MultiPoly.var("u")
_V = MultiPoly.var("v")
_W = MultiPoly.var("w")


def binom(a: int, b: int) -> int:
    """Binomial coefficient with out-of-range arguments evaluating to 0.

    The empty product C(a, 0) = 1 is kept for every a, including negatives.
    """
    if b == 0:
        return 1
    if b < 0 or a < b:
        return 0
    return math.comb(a, b)


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


# ---------------------------------------------------------------------------
# closed-form expansions
# ---------------------------------------------------------------------------

def _x(order: int) -> TruncatedSeries:
    return TruncatedSeries.gen(order, "x")


def _z(order: int) -> TruncatedSeries:
    return TruncatedSeries.gen(order, "z")


def _sqrt_321(order: int) -> TruncatedSeries:
    x = _x(order)
    return (1 - 4 * x + (4 * (1 - _T)) * x ** 2).sqrt()


def _closed_B132(N: int) -> TruncatedSeries:
    x = _x(N + 1)
    u = 1 - _T
    radicand = (1 - 4 * x + (6 * u) * x ** 2
                - (4 * u ** 2) * x ** 3 + (u ** 2) * x ** 4)
    numerator = 1 - (2 * u) * x + (u * (1 - 2 * _T)) * x ** 2 - radicand.sqrt()
    shifted = numerator.exact_div(1, 2 * _T)
    return shifted / (1 - u * _x(N))


def _closed_B321(N: int) -> TruncatedSeries:
    x = _x(N)
    return 2 / (1 - (2 * (1 - _T)) * x ** 2 + _sqrt_321(N))


def _sqrt_123(order: int) -> TruncatedSeries:
    x = _x(order)
    return (1 - (2 * (1 + _T)) * x + ((1 - _T) ** 2) * x ** 2).sqrt()


def _closed_B123(N: int) -> TruncatedSeries:
    x = _x(N + 1)
    u = 1 - _T
    numerator = (1 - (2 * (1 - _T ** 2)) * x + (u ** 2) * x ** 2
                 - (1 - u * x) * _sqrt_123(N + 1))
    return numerator.exact_div(1, 2 * _T ** 2)


def _closed_Bgrave123(N: int) -> TruncatedSeries:
    x = _x(N + 1)
    numerator = 1 - (1 - _T) * x - _sqrt_123(N + 1)
    return numerator.exact_div(1, 2 * _T)


def _closed_B123_132(N: int) -> TruncatedSeries:
    x = _x(N)
    u = 1 - _T
    numerator = 1 - x + u * x ** 2 - (u ** 2) * x ** 3
    denominator = 1 - 2 * x + u * x ** 2 + (_T * u) * x ** 3
    return numerator / denominator


def _closed_B231_321(N: int) -> TruncatedSeries:
    x = _x(N)
    return (1 - x) / (1 - 2 * x + (1 - _T) * x ** 3)


def _closed_B123_321(N: int) -> TruncatedSeries:
    fixed = [MultiPoly.one(), MultiPoly.one(), MultiPoly.const(2),
             2 + 2 * _T, 1 + 2 * _T + _T ** 2]
    coeffs = fixed[: N + 1] + [MultiPoly.zero()] * max(0, N + 1 - len(fixed))
    return TruncatedSeries(coeffs, "x")


def _closed_V(N: int) -> TruncatedSeries:
    numerator = 1 - _sqrt_321(N + 1)
    shifted = numerator.exact_div(1, 2)
    return shifted / (1 - (1 - _T) * _x(N))


def _closed_What(N: int) -> TruncatedSeries:
    x = _x(N)
    return (1 - _sqrt_321(N)) * Fraction(1, 2) + (_T * (_S - 1)) * x ** 2


def _closed_W(N: int) -> TruncatedSeries:
    x = _x(N)
    return 2 / (1 + (2 * (1 - _S) * _T) * x ** 2 + _sqrt_321(N))


def _sqrt_G(order: int) -> TruncatedSeries:
    z = _z(order)
    return (1 - (2 * (1 + _S)) * z + ((1 + _S) ** 2 - 4 * _S * _T) * z ** 2).sqrt()


def _closed_G(N: int) -> TruncatedSeries:
    z = _z(N + 1)
    numerator = 1 - (1 + _S - 2 * _T) * z - _sqrt_G(N + 1)
    return numerator.exact_div(1, 2 * _T)


def _closed_Gtilde(N: int) -> TruncatedSeries:
    z = _z(N + 2)
    numerator = 1 - (1 + _S) * z - _sqrt_G(N + 2)
    return numerator.exact_div(2, 2 * _T * _S)


def _closed_R_run(N: int, r: int) -> TruncatedSeries:
    if r < 2:
        raise ValueError("the run generating function requires r >= 2")
    x = _x(N)
    block = (1 - (1 - _T) * x ** r) / (1 - x)
    return block / (1 - x * block)


def _closed_W1_words(N: int) -> TruncatedSeries:
    x = _x(N)
    u = 1 - _T
    return (x * (1 - u * x ** 2)) / (1 - 2 * x + u * x ** 2 + (_T * u) * x ** 3)


def _peak_insertion_subs(N: int) -> tuple[TruncatedSeries, ...]:
    """The marker E and the substitutions (s, t, z) of the peak insertion.

    E marks an inserted nonempty run of peaks; s_sub, t_sub and z_sub say how
    many red peaks may be inserted at each vertex type of the blue core.
    """
    x = _x(N)
    E = _U * (x / (1 - x))
    a = 1 + E * (1 + _V + E)
    return E, (E * (1 + E)) / a, ((1 + E) * (_V + E)) / a, a * x


def _graft(G_sub: TruncatedSeries, E: TruncatedSeries) -> TruncatedSeries:
    """F from the pulled-back core series: graft, then add the empty core."""
    core = ((_W + E) * (G_sub - 1)).exact_div(0, _U)
    return core + 1 / (1 - _x(G_sub.order))


# the five-variable composition grows steeply (minutes at order 20), so
# `_closed_F` is refused above order 16 whatever the caller's Limits
_COMPOSITION_CAP = Limits(series_guard=16)


def _closed_F(N: int) -> TruncatedSeries:
    """Peak-insertion decomposition: graft runs of peaks onto a blue core.

    The core path's joint peak/adjacency distribution (id G) is composed with
    the substitutions describing how many red peaks may be inserted at each
    vertex type, then the empty-core geometric series is added back.  This
    five-variable composition is the reference route behind ``--route
    both``; the default route (`_functional_F`) reaches the same series from
    G's quadratic equation pulled back through the same substitutions.
    """
    _COMPOSITION_CAP.check("series_guard", N)
    E, s_sub, t_sub, z_sub = _peak_insertion_subs(N)
    G = _closed_G(N)
    return _graft(series_compose(G, {"s": s_sub, "t": t_sub, "z": z_sub}), E)


def expand_by_peak_insertion(which: str, N: int) -> TruncatedSeries:
    """B123 or Bgrave123 through the peak-insertion pipeline (id F)."""
    subs = {"B123": {"u": _T, "v": _T, "w": 1},
            "Bgrave123": {"u": _T, "v": _T, "w": _T}}
    if which not in subs:
        raise ValueError(f"no pipeline specialization for {which!r}")
    return _functional_F(N).map_coeffs(subs[which])


# ---------------------------------------------------------------------------
# functional-equation expansions
# ---------------------------------------------------------------------------

def _solve(rhs: Callable[..., tuple[TruncatedSeries, ...]], unknowns: int,
           N: int, name: str, var: str = "x") -> tuple[TruncatedSeries, ...]:
    """The fixed point of ``state = rhs(*state)`` through order N, certified.

    `rhs` runs once on lazy unknowns, and unknown i's coefficient k is
    coefficient k of the i-th series it returns, computed once and kept.
    Every unknown on a right-hand side is multiplied by the series variable
    (directly or through a Gauss-Seidel update earlier in `rhs`), so
    coefficient k needs only coefficients below k.  Coefficients 0..N are
    pulled and the lazy graph is dropped.  Then `rhs` runs on the complete
    unknowns so found and must return every unknown unchanged.  A
    system with a coefficient that needs itself, or that fails this
    certificate, has no fixed point here, and DivergenceError is raised.
    """
    exprs: list = []
    state = tuple(TruncatedSeries._lazy(N, var, lambda k, out, i=i: exprs[i][k])
                  for i in range(unknowns))
    exprs.extend(rhs(*state))
    try:
        for u in state:
            u[N]  # computes coefficients 0..N
    except _Cycle:
        state = None
    exprs.clear()  # the unknowns reach the lazy graph only through exprs
    if state is None or rhs(*state) != state:
        raise DivergenceError(f"fixed point for {name} did not stabilize")
    return state


def _functional_B132(N: int) -> TruncatedSeries:
    x = _x(N)
    tx = _T * x

    def rhs(B, Bbar):
        Bbar = x * (1 + Bbar + _T * (B - Bbar - 1))
        return 1 + Bbar + x * (B - 1) + tx * (B - 1) ** 2, Bbar

    return _solve(rhs, 2, N, "B132")[0]


def _functional_V(N: int) -> TruncatedSeries:
    x = _x(N)
    a = x * ((_T - 1) * x + 1)
    return _solve(lambda V: (1 + a * V ** 2,), 1, N, "V")[0]


def _functional_What(N: int) -> TruncatedSeries:
    x = _x(N)
    V = _functional_V(N)
    return x + (_S * _T) * x ** 2 + _T * x ** 2 * (V - 1) + x * (V - 1 - x * V)


def _functional_W(N: int) -> TruncatedSeries:
    What = _functional_What(N)
    return _solve(lambda W: (1 + What * W,), 1, N, "W")[0]


def _functional_Gtilde(N: int) -> TruncatedSeries:
    z = _z(N)
    a = (1 + _S) * z
    b = (_T * _S) * z ** 2
    return _solve(lambda G: (1 + a * G + b * G ** 2,), 1, N, "Gtilde", "z")[0]


def _functional_G(N: int) -> TruncatedSeries:
    return 1 + _S * _z(N) * _functional_Gtilde(N)


def _functional_F(N: int) -> TruncatedSeries:
    """F from G's quadratic t z G^2 - A G + 1 - z + t z = 0 pulled back.

    With A = 1 - (1 + s - 2t) z, G = (1 - (1 - t) z)/A + (t z/A) G^2.  Put
    s_sub, t_sub, z_sub in these coefficients: A_sub is a unit because z_sub
    has no constant term, so the pulled-back G is the fixed point of a
    quadratic that needs no composition and no division by t_sub.
    """
    E, s_sub, t_sub, z_sub = _peak_insertion_subs(N)
    A_sub = 1 - (1 + s_sub - 2 * t_sub) * z_sub
    c0 = (1 - (1 - t_sub) * z_sub) / A_sub
    c2 = (t_sub * z_sub) / A_sub
    (H,) = _solve(lambda H: (c0 + c2 * H ** 2,), 1, N, "F")
    return _graft(H, E)


def _functional_W1_words(N: int) -> TruncatedSeries:
    x = _x(N)

    def rhs(W1, W0, W01, W11):
        W0 = (1 + W0 + _T * W1) * x
        W01 = W0 * x
        W11 = (x + _T * W01 + W11) * x
        return x + W01 + W11, W0, W01, W11

    return _solve(rhs, 4, N, "W1_words")[0]


# ---------------------------------------------------------------------------
# the id registry
# ---------------------------------------------------------------------------

class GFRoutes(NamedTuple):
    """The expansion routes of one named generating function."""

    closed: Callable[..., TruncatedSeries]  # closed(N), or closed(N, r)
    functional: Callable[[int], TruncatedSeries] | None = None
    needs_r: bool = False  # the closed route takes the run-length parameter r
    default: str = "closed"  # the route `series` takes without --route


GF_IDS: dict[str, GFRoutes] = {
    "B132": GFRoutes(_closed_B132, _functional_B132),
    "B321": GFRoutes(_closed_B321),
    "B123": GFRoutes(_closed_B123),
    "Bgrave123": GFRoutes(_closed_Bgrave123),
    "B123_132": GFRoutes(_closed_B123_132),
    "B132_213": GFRoutes(_closed_B123_132),
    "B231_321": GFRoutes(_closed_B231_321),
    "B123_321": GFRoutes(_closed_B123_321),
    "V": GFRoutes(_closed_V, _functional_V),
    "What": GFRoutes(_closed_What, _functional_What),
    "W": GFRoutes(_closed_W, _functional_W),
    "G": GFRoutes(_closed_G, _functional_G),
    "Gtilde": GFRoutes(_closed_Gtilde, _functional_Gtilde),
    "F": GFRoutes(_closed_F, _functional_F, default="functional"),
    "R_run": GFRoutes(_closed_R_run, needs_r=True),
    "W1_words": GFRoutes(_closed_W1_words, _functional_W1_words),
}


def expand(gf_id: str, N: int, r: int | None = None,
           limits: Limits = DEFAULT_LIMITS) -> TruncatedSeries:
    """Expand a named generating function through order N (closed route)."""
    info = _gf_info(gf_id)
    _check_order(N, limits)
    if info.needs_r:
        if r is None:
            raise ValueError(f"{gf_id} requires the run-length parameter r")
        return info.closed(N, r)
    if r is not None:
        raise ValueError(f"{gf_id} takes no r parameter")
    return info.closed(N)


def expand_functional(gf_id: str, N: int,
                      limits: Limits = DEFAULT_LIMITS) -> TruncatedSeries:
    """Expand through order N by functional-equation fixed point."""
    info = _gf_info(gf_id)
    if info.functional is None:
        raise ValueError(f"{gf_id} has no functional-equation route")
    _check_order(N, limits)
    return info.functional(N)


def _check_order(N: int, limits: Limits) -> None:
    if N < 0:
        raise ValueError("order must be non-negative")
    limits.check("series_guard", N)


def _gf_info(gf_id: str) -> GFRoutes:
    try:
        return GF_IDS[gf_id]
    except KeyError:
        raise ValueError(f"unknown generating function id {gf_id!r}; "
                         f"have {sorted(GF_IDS)}") from None


def series_row(series: TruncatedSeries, n: int) -> list[int]:
    """Integer t-coefficients of the x^n (or z^n) coefficient."""
    poly = series.coefficient(n).to_univariate("t")
    out = []
    for q in poly:
        if q.denominator != 1:
            raise ValueError(f"non-integer coefficient {q} in row {n}")
        out.append(q.numerator)
    return out


# ---------------------------------------------------------------------------
# counting formulas
# ---------------------------------------------------------------------------

def _delta0(k: int) -> int:
    return 1 if k == 0 else 0


def _exact_quotient(a: int, b: int) -> int:
    q, r = divmod(a, b)
    if r:
        raise InexactDivisionError(f"{a}/{b} is not an integer")
    return q


def b231(n: int, k: int) -> int:
    """Big-descent counts over 231-avoiders: 2^(n-2k-1)/(k+1) C(n-1,2k) C(2k,k)."""
    if n == 0:
        return _delta0(k)
    c = binom(n - 1, 2 * k)
    if c == 0:
        return 0
    return (2 ** (n - 2 * k - 1)) * c * catalan(k)


def b231_joint(n: int, j: int, k: int) -> int:
    """Avoiders of 231 with j descents and k big descents (= k peaks)."""
    if n == 0:
        return 1 if j == 0 and k == 0 else 0
    c = binom(n - 1, 2 * k)
    if c == 0:
        return 0
    return catalan(k) * c * binom(n - 2 * k - 1, j - k)


def b123(n: int, k: int) -> int:
    """Big-descent counts over 123-avoiders: 2/(n+1) C(n+1,k+2) C(n-2,k)."""
    if n == 0:
        return _delta0(k)
    return _exact_quotient(2 * binom(n + 1, k + 2) * binom(n - 2, k), n + 1)


def narayana(n: int, k: int) -> int:
    """N(n,k) = 1/(k+1) C(n-1,k) C(n,k); right big descents over 123-avoiders."""
    if n == 0:
        return _delta0(k)
    return _exact_quotient(binom(n - 1, k) * binom(n, k), k + 1)


def b213_231(n: int, k: int) -> int:
    if n == 0:
        return _delta0(k)
    return binom(n, 2 * k + 1)


def b213_312(n: int, k: int) -> int:
    return b213_231(n, k)


def b123_231(n: int, k: int) -> int:
    if n == 0:
        return _delta0(k)
    if k == 0:
        return n
    if k == 1:
        return binom(n - 1, 2)
    return 0


def b132_321(n: int, k: int) -> int:
    if n <= 1:
        return _delta0(k)
    if k == 0:
        return 2
    if k == 1:
        return binom(n, 2) - 1
    return 0


def b231_312(n: int, k: int) -> int:
    if n == 0:
        return _delta0(k)
    return 2 ** (n - 1) if k == 0 else 0


# ---------------------------------------------------------------------------
# r-Eulerian polynomials and the generalized Carlitz identity
# ---------------------------------------------------------------------------

def eulerian_r(n: int, r: int, limits: Limits = DEFAULT_LIMITS) -> list[int]:
    """Distribution of r-descents (pi(i) > pi(i+1) + r) over S_n.

    No permutation of length m <= r + 1 has an r-descent, since no two of
    its letters differ by more than r, so the walk starts from A_m = [m!] at
    m = min(n, r) and applies, from m = r + 1 on,
    A_m = (r+1 + (m-r-1) t) A_{m-1} + t (1-t) A'_{m-1}.
    n is refused above ``limits.eulerian_guard``.
    """
    if n < 0 or r < 0:
        raise ValueError("n and r must be non-negative")
    limits.check("eulerian_guard", n)
    base = min(n, r)
    a = MultiPoly.const(math.factorial(base))
    for m in range(base + 1, n + 1):
        a = (r + 1 + (m - r - 1) * _T) * a + _T * (1 - _T) * a.derivative("t")
    return a.to_univariate("t")


def _carlitz_coeff(eulerian: list[int], n: int, r: int, k: int) -> Fraction:
    """Coefficient of t^k in A(t) / ((r+1)! (1-t)^(n+1+r)), A = A_{n+r}."""
    total = sum(
        eulerian[i] * math.comb(k - i + n + r, n + r)
        for i in range(min(k, len(eulerian) - 1) + 1)
    )
    return Fraction(total, math.factorial(r + 1))


def carlitz_lhs_coeff(n: int, r: int, k: int,
                      limits: Limits = DEFAULT_LIMITS) -> Fraction:
    """Coefficient of t^k in A_{n+r}(t) / ((r+1)! (1-t)^(n+1+r))."""
    if n < 1 or r < 0 or k < 0:
        raise ValueError("need n >= 1, r >= 0, k >= 0")
    return _carlitz_coeff(eulerian_r(n + r, r, limits), n, r, k)


def carlitz_verify(n: int, r: int, K: int) -> bool:
    """First K coefficients against (k+1+r)^(n-1) C(k+1+r, r+1)."""
    if n < 1 or r < 0 or K < 1:
        raise ValueError("need n >= 1, r >= 0 and K >= 1")
    eulerian = eulerian_r(n + r, r)
    return all(
        _carlitz_coeff(eulerian, n, r, k)
        == (k + 1 + r) ** (n - 1) * math.comb(k + 1 + r, r + 1)
        for k in range(K)
    )


FORMULA_IDS = {
    "b231": b231, "b231_joint": b231_joint, "b123": b123,
    "narayana": narayana, "b213_231": b213_231, "b213_312": b213_312,
    "b123_231": b123_231, "b132_321": b132_321, "b231_312": b231_312,
    "eulerian_r": eulerian_r, "carlitz_lhs_coeff": carlitz_lhs_coeff,
}


def formula(name: str, limits: Limits = DEFAULT_LIMITS, **args):
    """Evaluate a named formula of FORMULA_IDS at non-negative arguments,
    guarded by `limits`: the two that run the r-Eulerian recurrence by
    ``eulerian_guard``, the closed formulas' n by ``formula_guard``."""
    try:
        fn = FORMULA_IDS[name]
    except KeyError:
        raise ValueError(f"unknown formula {name!r}; have {sorted(FORMULA_IDS)}"
                         ) from None
    if any(value < 0 for value in args.values()):
        raise ValueError(f"{name} needs non-negative arguments, not {args}")
    if fn in (eulerian_r, carlitz_lhs_coeff):
        args["limits"] = limits
    else:
        limits.check("formula_guard", args.get("n", 0))
    return fn(**args)
