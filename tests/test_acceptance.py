"""Acceptance suite: one test per criterion, all comparisons exact.

Run with ``pytest -s tests/test_acceptance.py`` to see the one-line verdict
per criterion (the lines are also captured under plain ``pytest``).
"""

import time
from collections import Counter
from contextlib import contextmanager

from bigdescents import bijections as bj
from bigdescents import conjectures as cj
from bigdescents import genfun
from bigdescents.paths import iter_dyck_paths, path_statistic
from bigdescents.perms import (bdes, des, distribution_rows,
                               distribution_table, enumerate_avoiders, rbdes)
from bigdescents.symfunc import (asymmetry_witness, is_schur_positive, qsym_sum,
                                 schur_expand)
from bigdescents.wilf import class_partition_report
from oracles import branden_check, stembridge_consistency
from table_data import BDES_TABLES, SCHUR_TABLES


@contextmanager
def criterion(num, label, budget_seconds):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"criterion {num:2d} ({label}): FAIL")
        raise
    elapsed = time.monotonic() - start
    assert elapsed < budget_seconds, f"budget exceeded: {elapsed:.1f}s"
    print(f"criterion {num:2d} ({label}): PASS [{elapsed:.1f}s]")


def padded(row, length):
    return tuple(row) + (0,) * (length - len(row))


def test_criterion_01_table_reproduction():
    with criterion(1, "table reproduction n<=9", 120):
        for patterns, rows in BDES_TABLES.items():
            for n, row in enumerate(rows):
                got = distribution_table(n, patterns, "bdes").counts
                assert got == padded(row, n + 1), (patterns, n)


def test_criterion_02_formula_vs_oracle():
    with criterion(2, "formulas and series vs brute force", 300):
        from bigdescents.wilf import TABLE_CLASS_ROUTES
        for label, patterns, rows in TABLE_CLASS_ROUTES:
            tables = distribution_rows(9, patterns, "bdes")
            for n, (table, got) in enumerate(zip(tables, rows(9), strict=True)):
                assert padded(got, n + 1) == table.counts, (label, n)
        # closed forms to n = 12 against the independent routes
        b123_series = genfun.expand("B123", 12)
        for n in range(13):
            closed = [genfun.b123(n, k) for k in range(n + 1)]
            assert padded(genfun.series_row(b123_series, n), n + 1) == \
                tuple(closed)
            joint_sums = [sum(genfun.b231_joint(n, j, k) for j in range(n + 1))
                          for k in range(n + 1)]
            assert joint_sums == [genfun.b231(n, k) for k in range(n + 1)]


def test_criterion_03_joint_equidistribution():
    with criterion(3, "joint (bdes,des) vs (pk,des) over 231-avoiders", 120):
        from bigdescents.perms import pk as peak_count
        for n in range(10):
            lhs, rhs = {}, {}
            for pi in enumerate_avoiders(n, ((2, 3, 1),)):
                lhs[(bdes(pi), des(pi))] = lhs.get((bdes(pi), des(pi)), 0) + 1
                rhs[(peak_count(pi), des(pi))] = \
                    rhs.get((peak_count(pi), des(pi)), 0) + 1
            assert lhs == rhs
            for (k, j), count in lhs.items():
                assert count == genfun.b231_joint(n, j, k)
            total = sum(lhs.values())
            formula_total = sum(genfun.b231_joint(n, j, k)
                                for j in range(n + 1) for k in range(n + 1))
            assert total == formula_total == genfun.catalan(n)


def test_criterion_04_narayana():
    with criterion(4, "right big descents over 123-avoiders are Narayana", 60):
        for n in range(10):
            counts = [0] * (n + 1)
            for pi in enumerate_avoiders(n, ((1, 2, 3),)):
                counts[rbdes(pi)] += 1
            assert counts == [genfun.narayana(n, k) for k in range(n + 1)], n
        for n in range(13):
            assert sum(genfun.narayana(n, k) for k in range(n + 1)) == \
                genfun.catalan(n)


def test_criterion_05_bijection_suite():
    with criterion(5, "round trips and statistic transfers n<=8", 180):
        for name, b in sorted(bj.BIJECTIONS.items()):
            for n in range(b.min_length, 9):
                report = bj.verify_transfer(name, n)
                assert report.all_pass(), (name, n, report)
        for m in range(1, 9):
            for mu in iter_dyck_paths(m):
                alpha = bj.psi(mu)
                counts = alpha.step_counts()
                assert path_statistic(mu, "pk") == counts["d"] + counts["h1"] + 1
                assert path_statistic(mu, "con") == counts["d"]


def test_criterion_06_dual_route_agreement():
    with criterion(6, "closed vs functional routes through order 10", 60):
        for gf_id in ("B132", "V", "What", "W", "Gtilde", "G", "W1_words",
                      "F"):
            assert genfun.expand(gf_id, 10).coeffs == \
                genfun.expand_functional(gf_id, 10).coeffs, gf_id
        for which in ("B123", "Bgrave123"):
            assert genfun.expand(which, 10).coeffs == \
                genfun.expand_by_peak_insertion(which, 10).coeffs, which


def test_criterion_07_path_series_identities():
    with criterion(7, "joint path statistics match G and F", 120):
        g_series = genfun.expand("G", 8)
        f_series = genfun.expand("F", 8)
        for m in range(9):
            # exponents of t, s, u, v, w: G is sum s^pk t^con and F is
            # sum u^hibasc v^lobasc w^ini_UU over the Dyck paths
            g_totals, f_totals = Counter(), Counter()
            for mu in iter_dyck_paths(m):
                st = mu.statistics
                g_totals[st["con"], st["pk"], 0, 0, 0] += 1
                f_totals[0, 0, st["hibasc"], st["lobasc"], st["ini_UU"]] += 1
            for totals, series in ((g_totals, g_series), (f_totals, f_series)):
                exported = {tuple(exps): (num, den) for exps, num, den
                            in series.coefficient(m).to_json()}
                assert exported == {e: (c, 1) for e, c in totals.items()}, m


def test_criterion_08_symmetric_function_tables():
    with criterion(8, "descent-set sums symmetric, Schur-positive, exact", 180):
        for patterns, by_n in SCHUR_TABLES.items():
            for n, want in by_n.items():
                q = qsym_sum(n, patterns)
                assert asymmetry_witness(q) is None, (patterns, n)
                expansion = schur_expand(q)
                assert is_schur_positive(expansion), (patterns, n)
                assert expansion.coeffs == want, (patterns, n)


def test_criterion_09_conjecture_scans():
    with criterion(9, "real-rootedness, log-concavity, identities", 180):
        report = cj.conjecture_scan("real_rooted", 10)
        assert report.all_as_predicted()
        observed_failures = {r.patterns for r in report.records if not r.holds}
        from bigdescents.wilf import NON_REAL_ROOTED_CLASS
        assert observed_failures == set(NON_REAL_ROOTED_CLASS)
        assert cj.conjecture_scan("log_concave", 10).all_as_predicted()
        for n in range(1, 10):
            assert branden_check(n), n
            assert stembridge_consistency(n), n
        import itertools
        for r in range(3):
            for n in range(8):
                brute = [0] * (n + 1)
                for pi in itertools.permutations(range(1, n + 1)):
                    brute[sum(1 for a, b in zip(pi, pi[1:]) if a > b + r)] += 1
                while len(brute) > 1 and brute[-1] == 0:
                    brute.pop()
                assert genfun.eulerian_r(n, r) == brute, (n, r)
            for n in range(1, 8):
                assert genfun.carlitz_verify(n, r, 6), (n, r)


def test_criterion_10_wilf_class_partitions():
    with criterion(10, "equivalence-class partitions reproduced n<=8", 180):
        report = class_partition_report(8)
        assert not report.failures(), report.failures()
        # partition sizes: 4 singleton classes, 7 pair classes
        same = [c for c in report.comparisons if c.same_class]
        cross = [c for c in report.comparisons if not c.same_class]
        assert len(same) == 1 + 1 + (6 + 1 + 1 + 1 + 3)
        assert all(c.witness_n is None for c in same)
        assert all(c.witness_n is not None for c in cross)
