from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bigdescents import conjectures as cj
from bigdescents.conjectures import (conjecture_scan, degree, is_real_rooted,
                                     poly, real_root_count_with_multiplicity)
from bigdescents.perms import distribution_table
from oracles import (branden_check, is_log_concave, is_unimodal,
                     real_root_count, stembridge_consistency)

_NONZERO_COEFFS = st.lists(st.integers(-3, 3), min_size=1, max_size=4).filter(any)


def _gcd_degree(a, b):
    """Degree of gcd(a, b), by Euclid's algorithm on ``MultiPoly.divmod``."""
    while not b.is_zero():
        a, b = b, a.divmod(b)[1]
    return degree(a)


class TestRootCounting:
    def test_quadratics(self):
        assert real_root_count([4, 9, 1]) == 2     # positive discriminant
        assert real_root_count([1, 0, 1]) == 0     # t^2 + 1
        assert real_root_count([0, 0, 1]) == 1     # t^2, double root at 0

    def test_constants(self):
        assert real_root_count([5]) == 0
        assert is_real_rooted([5])
        assert is_real_rooted([3, 7])
        with pytest.raises(ValueError):
            real_root_count([0])

    def test_multiplicities(self):
        squared = poly([1, 1]) * poly([1, 1])  # (1+t)^2
        assert real_root_count(squared) == 1
        assert real_root_count_with_multiplicity(squared) == 2
        assert is_real_rooted(squared)
        mixed = squared * poly([1, 0, 1])  # (1+t)^2 (1+t^2)
        assert real_root_count(mixed) == 1
        assert not is_real_rooted(mixed)

    def test_repeated_factors_along_the_gcd_chain(self):
        # (1+t)^3 (1+t^2)^2 (t-2): roots -1 (triple) and 2, two complex pairs
        p = poly([1, 1]) ** 3 * poly([1, 0, 1]) ** 2 * poly([-2, 1])
        assert (real_root_count(p), real_root_count_with_multiplicity(p)) \
            == (2, 4)
        assert not is_real_rooted(p)
        # t^2 (1+t^2): a double root at 0 and one complex pair
        p = poly([0, 0, 1, 0, 1])
        assert (real_root_count(p), real_root_count_with_multiplicity(p)) \
            == (1, 2)
        # 3 (2t-1)^3 (t+2)^2: the chain ends at a gcd with Fraction
        # coefficients, (t - 1/2)^2 (t+2) once made monic
        p = 3 * poly([-1, 2]) ** 3 * poly([2, 1]) ** 2
        assert (real_root_count(p), real_root_count_with_multiplicity(p)) \
            == (2, 5)
        assert cj._sturm_count(p) == (
            2, poly([Fraction(1, 4), -1, 1]) * poly([2, 1]))

    @given(st.lists(st.integers(-3, 3), min_size=1, max_size=4),
           st.lists(st.integers(-3, 3), min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_root_count_additive_for_coprime_factors(self, a, b):
        pa, pb = poly(a), poly(b)
        if pa.is_zero() or pb.is_zero():
            return
        if _gcd_degree(pa, pb) > 0:
            return
        assert real_root_count(pa * pb) == \
            real_root_count(pa) + real_root_count(pb)

    @given(_NONZERO_COEFFS, _NONZERO_COEFFS)
    @settings(max_examples=60, deadline=None)
    def test_root_count_with_multiplicity_additive(self, a, b):
        # no coprimality filter: pa^2 pb has repeated roots whenever pa has a
        # real root, so the gcd chain takes several steps
        pa, pb = poly(a), poly(b)
        count = real_root_count_with_multiplicity
        assert count(pa * pb) == count(pa) + count(pb)
        assert count(pa * pa * pb) == 2 * count(pa) + count(pb)


class TestSequenceShape:
    def test_log_concavity(self):
        assert is_log_concave([5, 25, 12])
        assert not is_log_concave([1, 1, 2])
        assert is_log_concave([7])
        assert is_log_concave([])
        assert is_unimodal([])

    def test_unimodal(self):
        assert is_unimodal([1, 3, 3, 2, 0])
        assert not is_unimodal([1, 0, 1])
        assert is_unimodal([2, 2, 2])

    def test_real_rooted_implies_log_concave_implies_unimodal(self):
        from bigdescents.perms import distribution_table
        from bigdescents.wilf import ALL_PAIRS, ALL_SINGLETONS
        for patterns in ALL_SINGLETONS + ALL_PAIRS:
            for n in range(8):
                counts = distribution_table(n, patterns, "bdes").counts
                p = poly(counts)
                if p.is_zero():
                    continue
                if is_real_rooted(p):
                    assert is_log_concave(counts)
                if is_log_concave(counts):
                    assert is_unimodal(counts)


class TestIdentities:
    def test_branden(self):
        assert branden_check(1)
        assert branden_check(3)
        assert branden_check(7)

    def test_branden_base_values(self):
        # A_3 = 1 + 3t + t^2 and P_3 = 4 + t over the 231-avoiders
        assert distribution_table(3, ((2, 3, 1),), "des").poly() == [1, 3, 1]
        assert distribution_table(3, ((2, 3, 1),), "pk").poly() == [4, 1]

    def test_stembridge_consistency(self):
        for n in range(1, 8):
            assert stembridge_consistency(n)

    def test_b231_real_rooted_to_12(self):
        from bigdescents.genfun import b231
        for n in range(13):
            coeffs = [b231(n, k) for k in range(n + 1)]
            assert is_real_rooted(poly(coeffs))


class TestScans:
    def test_real_rooted_scan(self):
        report = conjecture_scan("real_rooted", 8)
        assert report.all_as_predicted()
        failing = {(r.patterns, r.n) for r in report.records if not r.holds}
        # the one class predicted to fail does fail, first at length 7
        assert (((1, 2, 3), (1, 3, 2)), 7) in failing
        assert all(not r.expected for r in report.records if not r.holds)

    def test_predicted_failure_must_be_seen(self):
        # {123,132} first fails real-rootedness at length 7
        assert not conjecture_scan("real_rooted", 6).all_as_predicted()
        assert conjecture_scan("real_rooted", 7).all_as_predicted()

    def test_log_concave_scan(self):
        assert conjecture_scan("log_concave", 8).all_as_predicted()

    def test_unimodal_scan(self):
        assert conjecture_scan("unimodal", 8).all_as_predicted()

    def test_schur_positive_scan(self):
        report = conjecture_scan("schur_positive", 5)
        assert report.all_as_predicted()
        assert all(r.holds for r in report.records)

    def test_unknown_scan(self):
        with pytest.raises(ValueError):
            conjecture_scan("palindromic", 4)

    def test_report_serializes(self):
        report = conjecture_scan("log_concave", 3)
        data = report.to_json()
        assert data["as_predicted"] is True
        assert len(data["records"]) == len(report.records)

    def test_failing_row_counts_its_roots_once(self, monkeypatch):
        # one failing row: the {123, 132} class at n = 7, degree 4, 2 real roots
        # (squarefree, so one Sturm chain and no chain for gcd(p, p') = 1)
        calls = 0
        real = cj._sturm_count

        def counted(p):
            nonlocal calls
            calls += 1
            return real(p)

        monkeypatch.setattr(cj, "_sturm_count", counted)
        rows = cj.distribution_rows
        monkeypatch.setattr(cj, "_SCAN_TARGETS", (((1, 2, 3), (1, 3, 2)),))
        monkeypatch.setattr(cj, "distribution_rows",
                            lambda *a, **k: rows(*a, **k)[7:])
        (record,) = conjecture_scan("real_rooted", 7).records
        assert (record.n, record.holds) == (7, False)
        assert record.witness == "2 real roots with multiplicity, degree 4"
        assert calls == 1
