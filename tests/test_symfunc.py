import itertools
import math

import pytest

from bigdescents import conjectures as cj
from bigdescents import perms, symfunc
from bigdescents.config import Limits
from bigdescents.errors import BudgetError
from bigdescents.symfunc import (QsymExpansion, SymExpansion, _rearrangements,
                                 asymmetry_witness, composition_from_set,
                                 format_schur, is_schur_positive, kostka,
                                 partitions_of, qsym_fundamental, qsym_sum,
                                 schur_expand, schur_to_monomial_qsym)
from table_data import SCHUR_TABLES


def fundamental_to_monomial(n, subset):
    """F_{n,S} in the monomial quasisymmetric basis (all coefficients 1)."""
    s = frozenset(subset)
    if any(not 1 <= v <= n - 1 for v in s):
        raise ValueError(f"{sorted(s)} is not a subset of [{n - 1}]")
    others = sorted(set(range(1, n)) - s)
    coeffs = {}
    for k in range(len(others) + 1):
        for extra in itertools.combinations(others, k):
            coeffs[composition_from_set(n, s | set(extra))] = 1
    return QsymExpansion(n=n, coeffs=coeffs)


def is_symmetric(q):
    return asymmetry_witness(q) is None


class TestCompositionsAndPartitions:
    def test_composition_from_set(self):
        assert composition_from_set(6, {2, 3}) == (2, 1, 3)
        assert composition_from_set(4, set()) == (4,)
        assert composition_from_set(0, set()) == ()

    def test_rearrangements_are_the_distinct_permutations_in_order(self):
        for n in range(8):
            for mu in partitions_of(n):
                assert list(_rearrangements(mu)) == \
                    sorted(set(itertools.permutations(mu)))
        assert list(_rearrangements((1,) * 9)) == [(1,) * 9]

    def test_partitions(self):
        assert partitions_of(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
        assert partitions_of(0) == [()]

    def test_kostka_values(self):
        assert kostka((2, 1), (1, 1, 1)) == 2
        assert kostka((3,), (1, 1, 1)) == 1
        assert kostka((2, 2), (2, 1, 1)) == 1
        assert kostka((1, 1), (2,)) == 0
        for lam in partitions_of(5):
            assert kostka(lam, lam) == 1

    def test_kostka_counts_semistandard_tableaux(self):
        """Against a count that fills the cells of lam one by one, which
        knows nothing of horizontal strips or dominance."""
        def tableaux(lam, mu):
            cells = [(i, j) for i, row in enumerate(lam) for j in range(row)]
            left, grid = list(mu), {}

            def fill(k):
                if k == len(cells):
                    return 1
                i, j = cells[k]  # rows weakly increase, columns strictly
                low = max(grid.get((i, j - 1), 1), grid.get((i - 1, j), 0) + 1)
                total = 0
                for v in range(low, len(mu) + 1):
                    if left[v - 1]:
                        left[v - 1] -= 1
                        grid[i, j] = v
                        total += fill(k + 1)
                        left[v - 1] += 1
                grid.pop((i, j), None)
                return total

            return fill(0)

        for n in range(7):
            for lam in partitions_of(n):
                for mu in partitions_of(n):
                    assert kostka(lam, mu) == tableaux(lam, mu), (lam, mu)


class TestFundamental:
    def test_empty_set_has_all_refinements(self):
        q = fundamental_to_monomial(3, set())
        assert q.coeffs == {(3,): 1, (1, 2): 1, (2, 1): 1, (1, 1, 1): 1}

    def test_full_set_is_single_composition(self):
        q = fundamental_to_monomial(3, {1, 2})
        assert q.coeffs == {(1, 1, 1): 1}

    def test_middle_set(self):
        q = fundamental_to_monomial(4, {2})
        assert q.coeffs == {(2, 2): 1, (1, 1, 2): 1, (2, 1, 1): 1,
                            (1, 1, 1, 1): 1}

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            fundamental_to_monomial(3, {3})

    def test_single_fundamental_not_symmetric(self):
        q = fundamental_to_monomial(3, {1})
        assert asymmetry_witness(q) == ((1, 2), (2, 1))
        assert not is_symmetric(q)


class TestQsymSums:
    def test_dimension_counts_avoiders(self):
        from bigdescents.perms import enumerate_avoiders
        for patterns in ((), ((1, 2, 3),)):
            for n in range(6):
                q = qsym_fundamental(n, patterns)
                # each permutation contributes one F term
                assert sum(q.values()) == \
                    len(list(enumerate_avoiders(n, patterns)))

    def test_weight_two(self):
        q = qsym_sum(2, ())
        assert q.coeffs == {(2,): 2, (1, 1): 2}  # 2*F_{2,{}} = 2*s_2

    def test_budget_guard(self):
        with pytest.raises(BudgetError):
            qsym_sum(9, ())
        assert qsym_sum(9, ((1, 2, 3),), limits=Limits(qsym_guard=9)).n == 9

    @pytest.mark.parametrize("patterns", sorted(SCHUR_TABLES))
    def test_schur_tables(self, patterns):
        for n, want in SCHUR_TABLES[patterns].items():
            q = qsym_sum(n, patterns)
            assert is_symmetric(q)
            expansion = schur_expand(q)
            assert expansion.coeffs == want
            assert is_schur_positive(expansion)

    @pytest.mark.parametrize("patterns", sorted(SCHUR_TABLES))
    def test_round_trip(self, patterns):
        for n in range(7):
            q = qsym_sum(n, patterns)
            back = schur_to_monomial_qsym(schur_expand(q))
            assert back.coeffs == q.coeffs


class TestSchurMachinery:
    def test_h_like_input_is_single_row(self):
        q = fundamental_to_monomial(5, set())
        assert schur_expand(q).coeffs == {(5,): 1}

    def test_e_like_input_is_single_column(self):
        q = fundamental_to_monomial(4, {1, 2, 3})
        assert schur_expand(q).coeffs == {(1, 1, 1, 1): 1}

    def test_schur_pair_sum(self):
        # F_{3,{1}} + F_{3,{2}} = s_(2,1)
        a = fundamental_to_monomial(3, {1})
        b = fundamental_to_monomial(3, {2})
        combined = QsymExpansion(n=3, coeffs={
            c: a.coefficient(c) + b.coefficient(c)
            for c in set(a.coeffs) | set(b.coeffs)})
        assert schur_expand(combined).coeffs == {(2, 1): 1}

    def test_non_symmetric_rejected(self):
        with pytest.raises(ValueError,
                           match=r"witness \(\(1, 2\), \(2, 1\)\)"):
            schur_expand(fundamental_to_monomial(3, {1}))

    def test_the_certificate_reads_partitions_only(self, monkeypatch):
        """After its symmetry check schur_expand runs nothing over
        compositions: no re-expansion, no more rearrangements."""
        def refuse(e):
            raise AssertionError("the certificate re-expanded compositions")

        calls = []
        real = symfunc._rearrangements
        monkeypatch.setattr(symfunc, "_rearrangements",
                            lambda parts: calls.append(parts) or real(parts))
        monkeypatch.setattr(symfunc, "schur_to_monomial_qsym", refuse)
        for n in range(9):
            q = qsym_sum(n, ())
            asymmetry_witness(q)
            alone = len(calls)
            calls.clear()
            got = schur_expand(q).coeffs
            assert len(calls) == alone, n
            calls.clear()
            assert got == bialternant_schur(n, qsym_fundamental(n, ())), n

    @pytest.mark.parametrize("wrong", [
        lambda lam, mu: 2 if lam == mu else None,
        lambda lam, mu: 1 if (lam, mu) == ((2, 2), (3, 1)) else None,
    ], ids=["diagonal-2", "undominated-1"])
    def test_a_wrong_kostka_number_fails_the_certificate(self, monkeypatch,
                                                        wrong):
        # the Kostka faults a re-expansion over compositions would catch:
        # a diagonal entry other than 1, and a nonzero entry where lam does
        # not dominate mu
        real = symfunc.kostka
        monkeypatch.setattr(symfunc, "kostka", lambda lam, mu: (
            real(lam, mu) if wrong(lam, mu) is None else wrong(lam, mu)))
        try:
            with pytest.raises(ArithmeticError):
                schur_expand(qsym_sum(4, (), r=0))
        finally:
            real.cache_clear()  # it recursed through the planted numbers

    def test_zero_expansion_is_symmetric(self):
        q = QsymExpansion(n=4, coeffs={})
        assert is_symmetric(q)
        assert schur_expand(q).coeffs == {}

    def test_schur_positivity_detects_negatives(self):
        e = SymExpansion(n=2, coeffs={(2,): 1, (1, 1): -1})
        assert not is_schur_positive(e)

    def test_partition_parts_are_positive(self):
        with pytest.raises(ValueError, match="not a partition of 3"):
            SymExpansion(3, {(2, 1, 0): 1})

    def test_format(self):
        e = SymExpansion(n=5,
                         coeffs={(2, 2, 1): 1, (3, 2): 4, (4, 1): 3, (5,): 5})
        assert format_schur(e) == "s(2,2,1)+4s(3,2)+3s(4,1)+5s(5)"

    def test_r_parameter_changes_the_sum(self):
        q0 = qsym_sum(3, (), r=0)
        q1 = qsym_sum(3, (), r=1)
        assert q0.coeffs != q1.coeffs
        # r = 0 gives the descent-set sum, which is also symmetric
        assert is_symmetric(q0)


# ---------------------------------------------------------------------------
# an oracle for schur_expand that never calls kostka
# ---------------------------------------------------------------------------

def signed_orderings(items):
    """Each ordering of `items` with the sign of the permutation that makes
    it: taking items[i] first passes i of them."""
    if not items:
        yield (), 1
    for i, first in enumerate(items):
        for rest, sign in signed_orderings(items[:i] + items[i + 1:]):
            yield (first,) + rest, -sign if i % 2 else sign


def bialternant_schur(n, fundamental):
    """The Schur coefficients of a symmetric f of weight n, given as
    {alpha: c_alpha} with f = sum of c_alpha F_alpha, by the bialternant
    formula in l = len(lam) variables (Macdonald, Symmetric Functions and
    Hall Polynomials, I.3): [s_lam] f = sum over w of
    sgn(w) [x^(lam + delta - w(delta))] f, with delta = (l - 1, ..., 0).
    The coefficient of x^a in F_alpha is 1 when the nonzero parts of a
    refine alpha, else 0."""
    descents = {alpha: set(itertools.accumulate(alpha[:-1]))
                for alpha in fundamental}
    by_parts = {}

    def monomial(a):
        beta = tuple(e for e in a if e)
        if beta not in by_parts:
            cuts = set(itertools.accumulate(beta))
            by_parts[beta] = sum(c for alpha, c in fundamental.items()
                                 if descents[alpha] <= cuts)
        return by_parts[beta]

    out = {}
    for lam in partitions_of(n):
        delta = tuple(range(len(lam) - 1, -1, -1))
        top = [p + d for p, d in zip(lam, delta)]
        value = sum(sign * monomial([t - e for t, e in zip(top, w)])
                    for w, sign in signed_orderings(delta)
                    if all(t >= e for t, e in zip(top, w)))
        if value:
            out[lam] = value
    return out


class TestBialternantOracle:
    """schur_expand against an oracle that shares no Kostka numbers with
    it, on the Schur scan's classes (r = 1) through weight 8."""

    @pytest.mark.parametrize("patterns", cj._SCHUR_TARGETS)
    def test_schur_expand_matches_the_bialternant(self, patterns):
        for n in range(9):
            want = bialternant_schur(n, qsym_fundamental(n, patterns))
            assert schur_expand(qsym_sum(n, patterns)).coeffs == want, n

    def test_oracle_sees_a_wrong_kostka_number(self, monkeypatch):
        # K((5,3),(2,2,2,1,1)) = 9 planted as 10: the solve and the
        # certificate both use it, so only the oracle sees it
        real = symfunc.kostka
        monkeypatch.setattr(
            symfunc, "kostka", lambda lam, mu: real(lam, mu) + (
                (lam, mu) == ((5, 3), (2, 2, 2, 1, 1))))
        patterns = ((1, 2, 3),)
        got = schur_expand(qsym_sum(8, patterns)).coeffs
        assert got != bialternant_schur(8, qsym_fundamental(8, patterns))


# ---------------------------------------------------------------------------
# the descent-set counts of the merged walk
# ---------------------------------------------------------------------------

SUBSETS_OF_S3 = [ps for size in range(7)
                 for ps in itertools.combinations(
                     itertools.permutations((1, 2, 3)), size)]
SHORTER_SETS = [((1,),), ((1, 2),), ((2, 1),), ((1, 2), (2, 1)),
                ((1,), (1, 2, 3)), ((1, 2), (1, 3, 2)), ((2, 1), (3, 1, 2))]


def enumerated_masks(n, patterns, r):
    """`perms.descent_set_counts` from the avoiders one by one: bit k - 1 of an
    avoider's mask is set when pi_k > pi_{k+1} + r."""
    by_mask = [0] * (1 << max(n - 1, 0))
    for pi in perms.enumerate_avoiders(n, patterns):
        by_mask[sum(1 << k for k in range(n - 1)
                    if pi[k] > pi[k + 1] + r)] += 1
    return by_mask


def hook_length_schur(n, rows=None, columns=None):
    """The sum of f^lam s_lam over the partitions lam of n with at most
    `rows` rows and `columns` columns, f^lam by the hook-length formula.
    By RSK, Des(pi) = Des(Q(pi)), so the sum of F_{Des(pi)} over S_n is
    this sum over all lam; by Schensted's theorem, restricted to S_n(321)
    it keeps at most two rows and to S_n(123) at most two columns."""

    def shapes(left, cap):
        if not left:
            yield ()
        for part in range(min(left, cap), 0, -1):
            for rest in shapes(left - part, part):
                yield (part,) + rest

    out = {}
    for lam in shapes(n, columns or n):
        if rows is not None and len(lam) > rows:
            continue
        cols = [sum(part > j for part in lam) for j in range(n)]
        hooks = math.prod(part - j + cols[j] - i - 1
                          for i, part in enumerate(lam) for j in range(part))
        out[lam] = math.factorial(n) // hooks
    return out


class TestMaskWalk:
    """The r-descent sets of a class of length-3 patterns, tallied on the
    merged walk."""

    @pytest.mark.parametrize("patterns", SUBSETS_OF_S3 + SHORTER_SETS,
                             ids=lambda ps:
                             ",".join(map(perms.format_permutation, ps)))
    def test_equals_the_enumeration(self, patterns):
        limits = Limits(qsym_guard=8)
        for n in range(9):
            for r in range(3):
                assert perms.descent_set_counts(n, patterns, r, limits) \
                    == enumerated_masks(n, patterns, r), (n, r)

    @pytest.mark.parametrize("patterns, shape", [
        ((), {}), (((3, 2, 1),), {"rows": 2}), (((1, 2, 3),), {"columns": 2})])
    def test_des_sums_match_the_hook_length_formula(self, patterns, shape):
        limits = Limits(qsym_guard=12, avoider_guard_empty=12)
        for n in range(13):
            got = schur_expand(qsym_sum(n, patterns, r=0, limits=limits))
            assert got.coeffs == hook_length_schur(n, **shape), n

    def test_length_3_classes_walk_no_tree(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a merged walk visited the avoiders")

        for module, name in ((perms, "_active_sites"),
                             (perms, "enumerate_avoiders"),
                             (perms, "avoider_stream")):
            monkeypatch.setattr(module, name, refuse)
        rows = perms.distribution_rows(12, [(1, 2, 3)], "bdes")
        assert [row.total() for row in rows] == [
            math.comb(2 * n, n) // (n + 1) for n in range(13)]
        q = qsym_fundamental(10, [(2, 3, 1)], limits=Limits(qsym_guard=10))
        assert sum(q.values()) == 16796
