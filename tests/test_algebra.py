import operator
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bigdescents.algebra import (MultiPoly, TruncatedSeries, series_compose)
from bigdescents.errors import (DivergenceError, InexactDivisionError,
                                NonInvertibleError)
from bigdescents.genfun import GF_IDS, expand, expand_functional

t = MultiPoly.var("t")
s = MultiPoly.var("s")


def x(order):
    return TruncatedSeries.gen(order, "x")


def const_rows(series):
    return [c.const_value() for c in series.coeffs]


class TestMultiPoly:
    def test_basic_arithmetic(self):
        p = 1 + 2 * t + t ** 2
        assert p == (1 + t) ** 2
        assert (p - p).is_zero()
        assert p * 0 == MultiPoly.zero()

    def test_no_zero_terms_stored(self):
        p = (1 + t) * (1 - t) + t ** 2
        assert p.terms == MultiPoly.one().terms

    def test_derivative(self):
        p = 4 + 9 * t + t ** 2
        assert p.derivative("t") == 9 + 2 * t

    def test_subs_variable_for_variable(self):
        p = t ** 2 * s
        assert p.subs({"s": t}) == t ** 3
        assert p.subs({"t": 1}) == s

    def test_exact_div(self):
        p = 2 * t + 2 * t ** 2
        assert p.exact_div(2 * t) == 1 + t
        with pytest.raises(InexactDivisionError):
            (1 + t).exact_div(t)

    def test_exact_div_nonmonomial(self):
        p = (1 + t) * (3 + t * s)
        assert p.exact_div(1 + t) == 3 + t * s

    def test_to_univariate(self):
        assert (4 + 9 * t + t ** 2).to_univariate("t") == [4, 9, 1]
        with pytest.raises(ValueError):
            (t * s).to_univariate("t")

    def test_univariate_inverts_to_univariate(self):
        assert MultiPoly.univariate([4, 9, 1]) == 4 + 9 * t + t ** 2
        assert MultiPoly.univariate([0, Fraction(1, 2)], "s") == s * Fraction(1, 2)
        assert MultiPoly.univariate([0, 0]).is_zero()
        for coeffs in ([4, 9, 1], [0], [0, 0, 3], [Fraction(1, 3), -2]):
            assert MultiPoly.univariate(coeffs).to_univariate("t") == coeffs

    def test_str_is_readable(self):
        assert str(5 + 25 * t + 12 * t ** 2) == "5 + 25*t + 12*t^2"
        assert str(MultiPoly.zero()) == "0"


@pytest.mark.parametrize("call", [
    lambda: t.degree("q"),
    lambda: MultiPoly.zero().degree("q"),
    lambda: t.derivative("q"),
    lambda: t.to_univariate("q"),
    lambda: MultiPoly.univariate([1, 2], "q"),
    lambda: MultiPoly.var("q"),
    lambda: t.subs({"q": 1}),
    lambda: x(3).map_coeffs({"q": 1}),
    lambda: series_compose(TruncatedSeries.gen(3, "z"), {"z": x(3), "q": x(3)}),
], ids=["degree", "degree_of_zero", "derivative", "to_univariate",
        "univariate", "var", "subs", "map_coeffs", "series_compose"])
def test_unknown_variable_refused(call):
    # a typo must not substitute nothing or surface as a bare KeyError
    with pytest.raises(ValueError, match="unknown variable 'q'"):
        call()


class TestSeriesArithmetic:
    def test_geometric(self):
        g = 1 / (1 - x(8))
        assert const_rows(g) == [1] * 9

    def test_mul(self):
        p = (1 + x(6)) * (1 - x(6))
        assert const_rows(p) == [1, 0, -1, 0, 0, 0, 0]

    def test_div_requires_unit(self):
        with pytest.raises(NonInvertibleError):
            1 / x(5)
        with pytest.raises(NonInvertibleError):
            TruncatedSeries.one(5) / TruncatedSeries([t] + [0] * 5)

    def test_min_order_semantics(self):
        a = TruncatedSeries.one(8)
        b = TruncatedSeries.one(5)
        assert (a + b).order == 5
        assert (a * b).order == 5

    def test_run_block_row(self):
        # 1/(1-2x+(1-t)x^3) * (1-x): degree-3 coefficient is 3+t
        order = 6
        den = 1 - 2 * x(order) + (1 - t) * x(order) ** 3
        series = (1 / den) * (1 - x(order))
        assert series.coefficient(3) == 3 + t

    def test_sqrt_binomial(self):
        r = (1 - 4 * x(5)).sqrt()
        assert const_rows(r) == [1, -2, -2, -4, -10, -28]

    def test_sqrt_of_one(self):
        assert (TruncatedSeries.one(4)).sqrt() == TruncatedSeries.one(4)

    def test_sqrt_perfect_square_at_t_equals_0(self):
        # the radicand 1-4x+4(1-t)x^2 collapses to (1-2x)^2 when t = 0
        order = 7
        r = (1 - 4 * x(order) + (4 * (1 - t)) * x(order) ** 2).sqrt()
        specialized = r.map_coeffs({"t": 0})
        expected = 1 - 2 * x(order)
        assert specialized == expected

    def test_sqrt_squares_back(self):
        order = 7
        a = 1 - 4 * x(order) + (6 * (1 - t)) * x(order) ** 2 + t * x(order) ** 3
        assert a.sqrt() ** 2 == a

    def test_sqrt_requires_unit_one(self):
        with pytest.raises(ValueError):
            (2 + x(3)).sqrt()

    @pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul,
                                    operator.truediv])
    @pytest.mark.parametrize("value", [TruncatedSeries.one(3, "x"), t],
                             ids=["series", "poly"])
    def test_unknown_operand_type_is_refused_by_python(self, op, value):
        # NotImplemented, not the coercion's "expected an exact rational",
        # so that another operand type can answer through its reflected method
        for a, b in ((value, object()), (object(), value)):
            with pytest.raises(TypeError, match="unsupported operand"):
                op(a, b)


# products binary powering spends on base ** k for k = 0..8: a squaring per
# bit after the leading one and a product per further set bit
POWER_COSTS = (0, 0, 1, 2, 2, 3, 3, 4, 3)


class TestPower:
    @pytest.mark.parametrize("cls,base", [
        (MultiPoly, 1 + t + s),
        (TruncatedSeries, TruncatedSeries([1, t, 1, s, 2], "x")),
    ])
    @pytest.mark.parametrize("k", range(9))
    def test_multiplications_counted(self, monkeypatch, cls, base, k):
        naive = base * 0 + 1
        for _ in range(k):
            naive = naive * base
        calls = []
        mul = cls.__mul__

        def counting(self, other):
            calls.append(1)
            return mul(self, other)

        monkeypatch.setattr(cls, "__mul__", counting)
        got = base ** k
        assert len(calls) == POWER_COSTS[k]
        monkeypatch.undo()
        assert got == naive if cls is MultiPoly else got.coeffs == naive.coeffs

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            t ** -1
        with pytest.raises(ValueError):
            x(3) ** -1


class TestOrderZero:
    def test_variable_vanishes_at_order_zero(self):
        assert x(0).coeffs == (MultiPoly.zero(),)
        with pytest.raises(ValueError):
            x(-1)

    @pytest.mark.parametrize("make", [
        lambda: TruncatedSeries([1, 2, 3, 4, 5, 6]).truncate(-3),
        lambda: TruncatedSeries.constant(5, -2),
        lambda: TruncatedSeries.one(-4),
        lambda: TruncatedSeries.zero(-1),
    ], ids=["truncate", "constant", "one", "zero"])
    def test_negative_order_refused(self, make):
        with pytest.raises(ValueError, match="non-negative"):
            make()

    @pytest.mark.parametrize("gf_id,route", [
        (gf_id, route) for gf_id, info in sorted(GF_IDS.items())
        for route in ("closed", "functional")
        if route == "closed" or info.functional is not None])
    def test_constant_term_matches_higher_order(self, gf_id, route):
        if route == "closed":
            r = 2 if GF_IDS[gf_id].needs_r else None
            low, high = expand(gf_id, 0, r=r), expand(gf_id, 4, r=r)
        else:
            low, high = expand_functional(gf_id, 0), expand_functional(gf_id, 4)
        assert low.order == 0
        assert low.coeffs == high.coeffs[:1]


class TestLazySeries:
    @pytest.mark.parametrize("op", [operator.add, operator.mul, operator.truediv])
    def test_complete_result_keeps_no_operand(self, op):
        a, b = 1 + t * x(5), 1 - x(5)
        before = sys.getrefcount(a)
        result = op(a, b)
        assert sys.getrefcount(a) == before
        assert result.order == 5

    def test_lazy_result_drops_its_operands_once_complete(self):
        a = TruncatedSeries._lazy(5, "x", lambda k, out: t ** k)
        before = sys.getrefcount(a)
        result = a * x(5)
        assert sys.getrefcount(a) == before + 1
        assert result.coeffs == (x(5) * TruncatedSeries(a.coeffs, "x")).coeffs
        assert sys.getrefcount(a) == before


class TestCompose:
    def test_identity_like(self):
        outer = TruncatedSeries.gen(6, "z")
        inner = x(6) / (1 - x(6))
        out = series_compose(outer, {"z": inner})
        assert const_rows(out) == [0, 1, 1, 1, 1, 1, 1]

    def test_fibonacci(self):
        order = 5
        outer = 1 / (1 - TruncatedSeries.gen(order, "z"))
        inner = x(order) * (1 + x(order))
        out = series_compose(outer, {"z": inner})
        assert const_rows(out) == [1, 1, 2, 3, 5, 8]

    def test_coefficient_variables_substituted(self):
        order = 4
        outer = TruncatedSeries([MultiPoly.zero(), s, s * t], "z")
        subs = {"s": TruncatedSeries.one(order),
                "t": x(order),
                "z": x(order)}
        out = series_compose(outer, subs)
        # s*z + s*t*z^2 -> x + x^3
        assert const_rows(out) == [0, 1, 0, 1, 0]

    def test_nonzero_constant_term_rejected(self):
        outer = TruncatedSeries.gen(4, "z")
        with pytest.raises(DivergenceError):
            series_compose(outer, {"z": TruncatedSeries.one(4)})


class TestExactDiv:
    def test_shift_and_scale(self):
        series = (2 * t) * x(4) + (2 * t ** 2) * x(4) ** 2
        out = series.exact_div(1, 2 * t)
        assert out.coefficient(0) == MultiPoly.one()
        assert out.coefficient(1) == t

    def test_reports_offending_power(self):
        with pytest.raises(InexactDivisionError, match="x\\^2"):
            (x(4) ** 2).exact_div(1, t)

    def test_nonzero_low_coefficient_rejected(self):
        with pytest.raises(InexactDivisionError):
            TruncatedSeries.one(3).exact_div(1, 2)


def assert_stored_exactly(polys):
    """Every coefficient is an int or a Fraction that is not an integer."""
    for poly in polys:
        for q in poly.terms.values():
            assert type(q) is int or (type(q) is Fraction and q.denominator > 1), q


class TestCoefficientTypes:
    def test_integral_quotient_is_int(self):
        assert MultiPoly.const(4).exact_div(2).terms == {(0, 0, 0, 0, 0): 2}
        assert_stored_exactly([MultiPoly.const(4).exact_div(2)])

    def test_proper_quotient_is_fraction(self):
        assert (2 * t).exact_div(4).terms == {(1, 0, 0, 0, 0): Fraction(1, 2)}
        assert_stored_exactly([(2 * t).exact_div(4), (3 * t).exact_div(2 * t)])

    def test_series_divided_by_int(self):
        for divisor in (1, 2, 3, -2, Fraction(2, 3)):
            series = (2 + 4 * t * x(4) + 3 * x(4) ** 2) / divisor
            assert_stored_exactly(series.coeffs)
        assert ((2 + 4 * t * x(4)) / 2).coefficient(1).terms == {(1, 0, 0, 0, 0): 2}

    def test_fractions_cancelling_to_integers(self):
        half = MultiPoly.const(Fraction(1, 2)) * t
        assert_stored_exactly([half + half, half * (2 * s),
                               MultiPoly({(0,) * 5: Fraction(6, 3)})])
        assert (half + half).terms == {(1, 0, 0, 0, 0): 1}

    def test_every_generating_function(self):
        for gf_id, info in GF_IDS.items():
            series = expand(gf_id, 8, r=2 if info.needs_r else None)
            assert_stored_exactly(series.coeffs)
            if info.functional is not None:
                assert_stored_exactly(expand_functional(gf_id, 8).coeffs)


@st.composite
def small_polys(draw, unit=False):
    coeffs = draw(st.lists(st.integers(-4, 4), min_size=1, max_size=4))
    if unit:
        head = draw(st.sampled_from([1, 2, -1, 3]))
        coeffs = [head] + coeffs
    terms = {}
    for d, c in enumerate(coeffs):
        terms[(d, 0, 0, 0, 0)] = c
    return MultiPoly(terms)


@st.composite
def small_bivariate(draw):
    """A polynomial in t and s of degree at most 3 in each."""
    exps = st.tuples(st.integers(0, 3), st.integers(0, 3))
    terms = draw(st.dictionaries(exps, st.integers(-4, 4), max_size=5))
    return MultiPoly({(i, j, 0, 0, 0): c for (i, j), c in terms.items()})


def _divides(a: tuple[int, ...], b: tuple[int, ...]) -> bool:
    return all(x <= y for x, y in zip(a, b))


class TestDivmod:
    def test_univariate(self):
        q, r = (5 + 2 * t + t ** 3).divmod(1 + t ** 2)
        assert (q, r) == (t, 5 + t)
        q, r = (1 + t).divmod(2 * t)
        assert (q, r) == (MultiPoly.const(Fraction(1, 2)), MultiPoly.one())

    def test_multivariate_remainder_keeps_undividable_terms(self):
        # lead of t + s is t (t > s in the variable order); s^2 is left over.
        q, r = (t ** 2 + s ** 2).divmod(t + s)
        assert (q, r) == (t - s, 2 * s ** 2)

    @given(small_bivariate(), small_bivariate())
    @settings(max_examples=80, deadline=None)
    def test_division_identity_and_reduced_remainder(self, p, d):
        if d.is_zero():
            return
        q, r = p.divmod(d)
        assert q * d + r == p
        lead, _ = d.leading_term()
        assert not any(_divides(lead, exps) for exps in r.terms)

    @given(small_bivariate(), small_bivariate())
    @settings(max_examples=60, deadline=None)
    def test_remainder_vanishes_on_multiples(self, a, d):
        if d.is_zero():
            return
        assert (a * d).divmod(d) == (a, MultiPoly.zero())

    def test_constant_divisor(self):
        p = 3 + t * s - 4 * s ** 2
        for c in (1, -2, Fraction(2, 3), MultiPoly.const(5)):
            q, r = p.divmod(c)
            assert r.is_zero()
            assert q * c == p

    def test_zero_divisor(self):
        with pytest.raises(ZeroDivisionError):
            (1 + t).divmod(0)
        with pytest.raises(ZeroDivisionError):
            (1 + t).divmod(MultiPoly.zero())


@st.composite
def small_series(draw, order=6, unit=False):
    polys = [draw(small_polys()) for _ in range(order + 1)]
    if unit:
        polys[0] = MultiPoly.const(draw(st.sampled_from([1, 2, -1, 3])))
    return TruncatedSeries(polys, "x")


class TestAlgebraProperties:
    @given(small_series(), small_series(unit=True))
    @settings(max_examples=60, deadline=None)
    def test_mul_div_round_trip(self, a, b):
        assert (a * b) / b == a

    @given(small_series())
    @settings(max_examples=40, deadline=None)
    def test_sqrt_square(self, a):
        shifted = 1 + TruncatedSeries([MultiPoly.zero()] + list(a.coeffs[:-1]), "x")
        assert shifted.sqrt() ** 2 == shifted

    # A square (one object on both sides) makes each cross product once; a
    # copy of a factor is another object and takes the general product.
    @given(small_series())
    @settings(max_examples=60, deadline=None)
    def test_square_matches_general_product(self, a):
        assert a * a == a * TruncatedSeries(a.coeffs, "x")

    @given(small_series())
    @settings(max_examples=40, deadline=None)
    def test_sqrt_against_general_product(self, a):
        shifted = 1 + TruncatedSeries([MultiPoly.zero()] + list(a.coeffs[:-1]), "x")
        root = shifted.sqrt()
        assert root * TruncatedSeries(root.coeffs, "x") == shifted

    @given(small_series())
    @settings(max_examples=40, deadline=None)
    def test_lazy_square_matches_general_product(self, a):
        def lazy():
            return TruncatedSeries._lazy(a.order, "x", lambda k, out: a.coeffs[k])
        square = lazy()
        square = square * square
        product = lazy() * lazy()
        coeffs = range(a.order + 1)
        assert [square[k] for k in coeffs] == [product[k] for k in coeffs]
        assert [square[k] for k in coeffs] == list((a * a).coeffs)

    @given(small_polys(), small_polys(), small_polys())
    @settings(max_examples=60, deadline=None)
    def test_poly_ring_axioms(self, p, q, r):
        assert p * (q + r) == p * q + p * r
        assert (p + q) * r == p * r + q * r
