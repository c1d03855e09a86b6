"""Closed forms and real-root counts checked by sympy, independently of
``bigdescents.algebra``.

The exact-algebra kernel checks its two routes against each other; this
oracle expands the square roots with sympy's own ``series`` and counts real
roots with sympy's own root isolation, so that a kernel rewrite cannot pass
only by agreeing with itself.  sympy is optional.
"""

import random

import pytest

from bigdescents.conjectures import real_root_count_with_multiplicity
from bigdescents.genfun import expand, series_row
from bigdescents.perms import distribution_rows
from bigdescents.wilf import ALL_PAIRS, ALL_SINGLETONS
from oracles import real_root_count

sp = pytest.importorskip("sympy")

ORDER = 10
t, s, x, z = sp.symbols("t s x z")


def sympy_coefficients(expr, var, order):
    """Coefficients of var^0..var^order of a polynomial sympy expression."""
    expr = sp.expand(expr)
    return [expr.coeff(var, n) for n in range(order + 1)]


def t_row(coeff):
    return [int(c) for c in sp.Poly(coeff, t).all_coeffs()[::-1]]


def test_b132_rows_match_sympy():
    # B132 = (1 - 2ux + u(1-2t)x^2 - sqrt(R)) / (2tx) / (1 - ux), u = 1 - t.
    u = 1 - t
    radicand = 1 - 4 * x + 6 * u * x ** 2 - 4 * u ** 2 * x ** 3 + u ** 2 * x ** 4
    root = sp.series(sp.sqrt(radicand), x, 0, ORDER + 2).removeO()
    numerator = sympy_coefficients(
        1 - 2 * u * x + u * (1 - 2 * t) * x ** 2 - root, x, ORDER + 1)
    assert numerator[0] == 0
    shifted = [sp.cancel(c / (2 * t)) for c in numerator[1:]]
    rows = [sp.expand(sum(shifted[i] * u ** (n - i) for i in range(n + 1)))
            for n in range(ORDER + 1)]
    series = expand("B132", ORDER)
    for n, coeff in enumerate(rows):
        assert series_row(series, n) == t_row(coeff)


def test_gtilde_coefficients_match_sympy():
    # Gtilde = (1 - (1+s)z - sqrt((1-(1+s)z)^2 - 4stz^2)) / (2stz^2).
    root = sp.sqrt((1 - (1 + s) * z) ** 2 - 4 * s * t * z ** 2)
    closed = (1 - (1 + s) * z - root) / (2 * s * t * z ** 2)
    want = sympy_coefficients(sp.series(closed, z, 0, ORDER + 1).removeO(), z, ORDER)
    series = expand("Gtilde", ORDER)
    at_s_1 = series.map_coeffs({"s": 1})
    for n, coeff in enumerate(want):
        assert series_row(at_s_1, n) == t_row(coeff.subs(s, 1))
        want_terms = {(i, j, 0, 0, 0): q
                      for (i, j), q in sp.Poly(coeff, t, s).as_dict().items()}
        assert series.coefficient(n).terms == want_terms


def sympy_root_counts(coeffs):
    """(distinct, with multiplicity) real roots of an ascending coefficient
    list: ``count_roots`` counts distinct roots, ``real_roots`` repeats each
    root by its multiplicity."""
    p = sp.Poly(list(reversed(coeffs)), t)
    return p.count_roots(), len(sp.real_roots(p))


def assert_root_counts_match(coeffs):
    ours = (real_root_count(coeffs), real_root_count_with_multiplicity(coeffs))
    assert ours == sympy_root_counts(coeffs), coeffs


@pytest.mark.parametrize("patterns", ALL_SINGLETONS + ALL_PAIRS,
                         ids=lambda ps: "-".join("".join(map(str, p)) for p in ps))
def test_bdes_root_counts_match_sympy(patterns):
    for table in distribution_rows(9, patterns, "bdes"):
        if any(table.counts):
            assert_root_counts_match(list(table.counts))


def test_root_counts_of_products_with_repeated_factors_match_sympy():
    rng = random.Random(5)
    for _ in range(150):
        product = sp.Integer(rng.choice([1, -1, 2, -3]))
        for _ in range(rng.randint(1, 3)):
            factor = sum(rng.randint(-4, 4) * t ** k
                         for k in range(rng.randint(1, 3) + 1))
            if factor.is_number:
                factor += t
            product *= factor ** rng.randint(1, 3)
        coeffs = [int(c) for c in sp.Poly(product, t).all_coeffs()[::-1]]
        if any(coeffs):
            assert_root_counts_match(coeffs)
