import itertools
import math
from collections import Counter
from fractions import Fraction

import pytest

from bigdescents import algebra, genfun
from bigdescents.algebra import MultiPoly, TruncatedSeries
from bigdescents.errors import DivergenceError
from bigdescents.genfun import (GF_IDS, b123, b231, b231_joint, binom,
                                carlitz_verify, catalan, eulerian_r, expand,
                                expand_by_peak_insertion, expand_functional,
                                formula, narayana, series_row)
from bigdescents.paths import iter_dyck_paths
from bigdescents.perms import (distribution_rows, distribution_table,
                              enumerate_avoiders)
from table_data import BDES_TABLES


def rows_of(series, upto):
    return [series_row(series, n) for n in range(upto + 1)]


class TestClosedForms:
    @pytest.mark.parametrize("gf_id,patterns", [
        ("B132", ((1, 3, 2),)),
        ("B321", ((3, 2, 1),)),
        ("B123", ((1, 2, 3),)),
        ("B123_132", ((1, 2, 3), (1, 3, 2))),
        ("B231_321", ((2, 3, 1), (3, 2, 1))),
    ])
    def test_rows_match_reference_tables(self, gf_id, patterns):
        series = expand(gf_id, 9)
        for n, want in enumerate(BDES_TABLES[patterns]):
            assert series_row(series, n) == want

    def test_b132_213_equals_b123_132(self):
        assert expand("B132_213", 10) == expand("B123_132", 10)

    def test_b123_321_is_eventually_fixed(self):
        series = expand("B123_321", 9)
        assert rows_of(series, 9) == [[1], [1], [2], [2, 2], [1, 2, 1]] + [[0]] * 5

    def test_t_equals_1_recovers_catalan(self):
        for gf_id in ("B132", "B321", "B123"):
            series = expand(gf_id, 10).map_coeffs({"t": 1})
            assert [c.const_value() for c in series.coeffs] == \
                [catalan(n) for n in range(11)]

    def test_run_generating_function_against_words(self):
        from oracles import iter_binary_words, run_count
        for r in (2, 3):
            series = expand("R_run", 7, r=r)
            for n in range(8):
                counts = [0] * (n + 1)
                for w in iter_binary_words(n):
                    counts[run_count(w, r)] += 1
                while len(counts) > 1 and counts[-1] == 0:
                    counts.pop()
                assert series_row(series, n) == counts

    def test_run_generating_function_rejects_small_r(self):
        with pytest.raises(ValueError):
            expand("R_run", 5, r=1)

    def test_unknown_id(self):
        with pytest.raises(ValueError):
            expand("B999", 5)


class TestDualRoutes:
    @pytest.mark.parametrize("gf_id", ["B132", "V", "What", "W", "Gtilde",
                                       "G", "W1_words", "F"])
    def test_closed_equals_functional(self, gf_id):
        assert expand(gf_id, 10).coeffs == expand_functional(gf_id, 10).coeffs

    @pytest.mark.parametrize("gf_id", ["B132", "V", "What", "W", "G",
                                       "Gtilde", "W1_words"])
    def test_closed_equals_functional_at_order_20(self, gf_id):
        assert expand(gf_id, 20) == expand_functional(gf_id, 20)

    def test_f_quadratic_agrees_with_composition_through_order_14(self):
        assert expand("F", 14).coeffs == expand_functional("F", 14).coeffs

    def test_every_default_route_exists(self):
        assert {i for i, info in GF_IDS.items() if info.default != "closed"} \
            == {"F"}
        assert GF_IDS["F"].functional is not None

    def test_functional_route_missing(self):
        with pytest.raises(ValueError):
            expand_functional("B321", 5)

    def test_v_at_t_equals_1_is_catalan(self):
        series = expand_functional("V", 6).map_coeffs({"t": 1})
        assert [c.const_value() for c in series.coeffs] == \
            [catalan(n) for n in range(7)]

    def test_w1_row_matches_pair_table(self):
        series = expand_functional("W1_words", 6)
        assert series_row(series, 6) == [2, 11, 16, 3]

    def test_b321_is_w_specialized(self):
        # sdes marker inverted against the descent marker recovers bdes
        w = expand("W", 9)
        b321 = expand("B321", 9)
        for n in range(10):
            expected = MultiPoly.zero()
            for exps, q in w.coefficient(n).terms.items():
                t_deg, s_deg = exps[0], exps[1]
                assert t_deg >= s_deg  # sdes never exceeds des
                expected = expected + MultiPoly({(t_deg - s_deg, 0, 0, 0, 0): q})
            assert expected == b321.coefficient(n)


class TestSolver:
    def test_no_fixed_point_diverges(self):
        with pytest.raises(DivergenceError, match="no_root"):
            genfun._solve(lambda f: (1 + f,), 1, 5, "no_root")

    def test_every_unknown_is_certified(self):
        # f settles to 1/(1-x); g never does, so certifying f alone passes
        x = TruncatedSeries.gen(5, "x")
        with pytest.raises(DivergenceError, match="second"):
            genfun._solve(lambda f, g: (1 + x * f, 1 + g), 2, 5, "second")

    def test_known_factor_is_read_first(self):
        # with the lazy unknown on the left of f * x, coefficient k of f would
        # need itself unless x's zero constant term is read first
        x = TruncatedSeries.gen(5, "x")
        (f,) = genfun._solve(lambda f: (1 + f * x,), 1, 5, "geometric")
        assert f == 1 / (1 - x)

    @pytest.mark.parametrize("N", [0, 5, 20])
    @pytest.mark.parametrize("gf_id", [i for i, info in GF_IDS.items()
                                       if info.functional is not None])
    def test_rhs_runs_twice_per_solve(self, monkeypatch, gf_id, N):
        # once on lazy unknowns, once for the eager certificate
        calls = []
        solve = genfun._solve

        def counting(rhs, *args):
            calls.append(0)
            index = len(calls) - 1

            def counted(*state):
                calls[index] += 1
                return rhs(*state)
            return solve(counted, *args)

        monkeypatch.setattr(genfun, "_solve", counting)
        expand_functional(gf_id, N)
        assert calls and set(calls) == {2}

    def test_squares_make_each_cross_product_once(self, monkeypatch):
        # Gtilde's right-hand side squares its unknown; a square that made
        # each cross product twice would take about 1,100 products here
        calls = []
        mul = MultiPoly.__mul__

        def counting(self, other):
            calls.append(1)
            return mul(self, other)

        monkeypatch.setattr(MultiPoly, "__mul__", counting)
        monkeypatch.setattr(MultiPoly, "__rmul__", counting)
        expand_functional("Gtilde", 30)
        assert len(calls) <= 700

    def test_squares_make_each_cross_product_once_in_the_product_loop(
            self, monkeypatch):
        # the same bound on the one polynomial product loop, which the series
        # convolution calls without going through MultiPoly.__mul__
        calls = []
        mul_into = algebra._mul_into

        def counting(terms, p, q):
            calls.append(1)
            return mul_into(terms, p, q)

        monkeypatch.setattr(algebra, "_mul_into", counting)
        expand_functional("Gtilde", 30)
        assert 0 < len(calls) <= 700


class TestPeakInsertionPipeline:
    def test_pipeline_matches_closed_forms(self):
        for which in ("B123", "Bgrave123"):
            assert expand(which, 10).coeffs == \
                expand_by_peak_insertion(which, 10).coeffs

    def test_narayana_rows(self):
        series = expand("Bgrave123", 8)
        for n in range(9):
            want = [narayana(n, k) for k in range(n + 1)]
            while len(want) > 1 and want[-1] == 0:
                want.pop()
            assert series_row(series, n) == want

    @staticmethod
    def assert_path_totals(series, exponents):
        """Each coefficient m of the series, as exported by ``to_json``,
        against a plain {exponents: count} tally over the Dyck paths of
        semilength m; `exponents` maps a path's statistics to one exponent
        per variable, in the order t, s, u, v, w."""
        for m in range(series.order + 1):
            totals = Counter(exponents(mu.statistics)
                             for mu in iter_dyck_paths(m))
            exported = {tuple(exps): (num, den) for exps, num, den
                        in series.coefficient(m).to_json()}
            assert exported == {e: (c, 1) for e, c in totals.items()}, m

    def test_f_coefficients_match_path_statistics(self):
        self.assert_path_totals(expand("F", 6), lambda st: (
            0, 0, st["hibasc"], st["lobasc"], st["ini_UU"]))

    def test_g_coefficients_match_path_statistics(self):
        self.assert_path_totals(expand("G", 7),
                                lambda st: (st["con"], st["pk"], 0, 0, 0))


class TestFormulas:
    def test_known_values(self):
        assert formula("b231", n=7, k=3) == 5
        assert formula("b123", n=6, k=2) == 60
        assert formula("b213_231", n=9, k=2) == 126
        assert formula("b123_231", n=6, k=1) == binom(5, 2)
        assert formula("b132_321", n=6, k=1) == binom(6, 2) - 1
        assert formula("b231_312", n=6, k=0) == 32

    def test_against_brute_force(self):
        cases = [
            (b231, ((2, 3, 1),)),
            (b123, ((1, 2, 3),)),
            (lambda n, k: formula("b213_231", n=n, k=k), ((2, 1, 3), (2, 3, 1))),
            (lambda n, k: formula("b123_231", n=n, k=k), ((1, 2, 3), (2, 3, 1))),
            (lambda n, k: formula("b132_321", n=n, k=k), ((1, 3, 2), (3, 2, 1))),
            (lambda n, k: formula("b231_312", n=n, k=k), ((2, 3, 1), (3, 1, 2))),
        ]
        for fn, patterns in cases:
            for n in range(8):
                table = distribution_table(n, patterns, "bdes")
                assert tuple(fn(n, k) for k in range(n + 1)) == table.counts

    def test_joint_formula_row_sums(self):
        for n in range(13):
            for k in range(n + 1):
                assert sum(b231_joint(n, j, k) for j in range(n + 1)) == b231(n, k)

    def test_joint_formula_against_brute_force(self):
        from bigdescents.perms import bdes, des
        for n in range(8):
            counts = {}
            for pi in enumerate_avoiders(n, ((2, 3, 1),)):
                counts[(des(pi), bdes(pi))] = counts.get((des(pi), bdes(pi)), 0) + 1
            for j in range(n + 1):
                for k in range(n + 1):
                    assert counts.get((j, k), 0) == b231_joint(n, j, k)

    def test_narayana_sums_to_catalan(self):
        for n in range(13):
            assert sum(narayana(n, k) for k in range(n + 1)) == catalan(n)

    def test_unknown_formula(self):
        with pytest.raises(ValueError):
            formula("b000", n=1, k=0)


class TestEulerian:
    def test_classical_values(self):
        assert eulerian_r(3, 0) == [1, 4, 1]
        assert eulerian_r(4, 0) == [1, 11, 11, 1]
        assert eulerian_r(0, 2) == [1]

    def test_recurrence_against_brute_force(self):
        for r in range(3):
            for n in range(8):
                brute = [0] * (n + 1)
                for pi in itertools.permutations(range(1, n + 1)):
                    brute[sum(1 for a, b in zip(pi, pi[1:]) if a > b + r)] += 1
                while len(brute) > 1 and brute[-1] == 0:
                    brute.pop()
                assert eulerian_r(n, r) == brute

    def test_no_r_descent_up_to_length_r_plus_1(self):
        for r in range(20):
            for n in range(r + 2):
                assert eulerian_r(n, r) == [math.factorial(n)], (n, r)

    def test_r1_matches_bdes_distribution(self):
        for n in range(8):
            table = distribution_table(n, (), "bdes")
            got = eulerian_r(n, 1)
            got = got + [0] * (n + 1 - len(got))
            assert tuple(got) == table.counts

    def test_carlitz(self):
        assert carlitz_verify(3, 0, 5)
        assert carlitz_verify(2, 1, 4)
        assert carlitz_verify(1, 2, 3)
        for r in range(3):
            for n in range(1, 7):
                assert carlitz_verify(n, r, 6)

    def test_carlitz_verify_builds_the_polynomial_once(self, monkeypatch):
        from bigdescents import genfun
        calls = []

        def counting(n, r):
            calls.append((n, r))
            return eulerian_r(n, r)

        monkeypatch.setattr(genfun, "eulerian_r", counting)
        assert genfun.carlitz_verify(4, 2, 6)
        assert calls == [(6, 2)]

    def test_carlitz_lhs_coefficient_is_exact(self):
        value = formula("carlitz_lhs_coeff", n=3, r=0, k=2)
        assert value == Fraction(27)


class TestCentralOracle:
    """Every enumeration route against the brute-force distribution."""

    def test_routes_cover_every_class(self):
        from bigdescents.wilf import (PAIR_CLASSES, SINGLETON_CLASSES,
                                      TABLE_CLASS_ROUTES)
        classes = SINGLETON_CLASSES + PAIR_CLASSES
        homes = [[i for i, cls in enumerate(classes) if patterns in cls]
                 for _, patterns, _ in TABLE_CLASS_ROUTES]
        assert all(len(home) == 1 for home in homes), homes
        assert sorted({home[0] for home in homes}) == list(range(len(classes)))
        # two classes carry a second route: {213,312} and {132,213}
        assert len(TABLE_CLASS_ROUTES) == len(classes) + 2

    def test_all_table_classes(self):
        from bigdescents.wilf import TABLE_CLASS_ROUTES
        for label, patterns, rows in TABLE_CLASS_ROUTES:
            tables = distribution_rows(8, patterns, "bdes")
            for n, (table, got) in enumerate(zip(tables, rows(8), strict=True)):
                got = got + [0] * (n + 1 - len(got))
                assert tuple(got) == table.counts, (label, n)
