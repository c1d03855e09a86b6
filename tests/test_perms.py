import collections
import functools
import itertools
import math
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bigdescents import genfun, merged, perms, verify
from bigdescents.cli import main
from bigdescents.config import Limits
from bigdescents.errors import BudgetError
from bigdescents.merged import DEAD, DESCENT
from bigdescents.perms import (DistributionTable, bdes, contains, des, des_r,
                               distribution_rows, distribution_table,
                               enumerate_avoiders, lddes, parse_pattern_set,
                               parse_permutation, pk, rbdes, sdes,
                               standardize, statistic, tree_rows)
from bigdescents.wilf import ALL_PAIRS, ALL_SINGLETONS

perm_strategy = st.integers(0, 7).flatmap(
    lambda n: st.permutations(list(range(1, n + 1))).map(tuple))


class TestStandardize:
    def test_known_values(self):
        assert standardize((5, 7, 1, 8)) == (2, 3, 1, 4)
        assert standardize((1, 2, 3)) == (1, 2, 3)
        assert standardize((9, 7, 5)) == (3, 2, 1)

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            standardize((1, 1, 2))

    @given(st.lists(st.integers(1, 100), unique=True, max_size=8))
    def test_order_isomorphic(self, word):
        out = standardize(word)
        for i in range(len(word)):
            for j in range(len(word)):
                assert (word[i] < word[j]) == (out[i] < out[j])


def reverse(pi):
    return tuple(reversed(pi))


def complement(pi):
    n = len(pi)
    return tuple(n + 1 - v for v in pi)


def reverse_complement(pi):
    return complement(reverse(pi))


class TestSymmetry:
    def test_known_values(self):
        pi = (1, 4, 2, 5, 7, 3, 6)
        assert reverse(pi) == (6, 3, 7, 5, 2, 4, 1)
        assert complement(pi) == (7, 4, 6, 3, 1, 5, 2)
        assert reverse_complement(pi) == (2, 5, 1, 3, 6, 4, 7)

    @given(perm_strategy)
    def test_rc_is_involution_and_commutes(self, pi):
        rc = reverse_complement(pi)
        assert reverse_complement(rc) == pi
        assert rc == complement(reverse(pi))

    @given(perm_strategy)
    def test_bdes_invariant_under_rc(self, pi):
        assert bdes(pi) == bdes(reverse_complement(pi))


class TestContains:
    def test_known_values(self):
        assert contains((1, 5, 2, 3, 7, 6, 4), (2, 1, 3))
        assert not contains((7, 6, 1, 2, 5, 4, 3), (2, 1, 3))
        assert not contains((1, 2), (1, 2, 3))

    def test_longer_patterns(self):
        assert contains((1, 3, 2, 4, 5), (1, 2, 3, 4))
        assert contains((5, 2, 4, 1, 3), (3, 1, 2))
        assert not contains((2, 4, 1, 3, 5), (1, 2, 3, 4))  # LIS is 3
        assert not contains((4, 5, 1, 2, 3), (1, 2, 3, 4))

    @given(perm_strategy)
    def test_every_perm_contains_its_own_prefix_pattern(self, pi):
        if len(pi) >= 2:
            assert contains(pi, standardize(pi[:2]))


def class_size(n, patterns):
    """|S_n(patterns)|, tallied by the tree without building the class."""
    return distribution_table(n, patterns, "des").total()


class TestEnumerateAvoiders:
    def test_known_counts(self):
        assert class_size(3, ((1, 2, 3),)) == 5
        assert class_size(5, ((1, 2, 3), (3, 2, 1))) == 0
        assert class_size(4, ((2, 3, 1), (3, 1, 2))) == 8

    @pytest.mark.parametrize("sigma", list(itertools.permutations((1, 2, 3))))
    def test_catalan_counts(self, sigma):
        from bigdescents.genfun import catalan
        for n in range(8):
            assert class_size(n, (sigma,)) == catalan(n)

    def test_lexicographic_order(self):
        out = list(enumerate_avoiders(4, ((1, 3, 2),)))
        assert out == sorted(out)
        assert len(out) == len(set(out))

    def test_matches_naive_filter(self):
        # insertion-based generation against the direct containment oracle
        pattern_sets = [((1, 3, 2),), ((3, 2, 1),), ((2, 1, 3), (2, 3, 1)),
                        ((1, 2, 3), (1, 3, 2)), ((2, 3, 1), (3, 2, 1))]
        for pats in pattern_sets:
            for n in range(7):
                naive = [pi for pi in itertools.permutations(range(1, n + 1))
                         if all(not contains(pi, p) for p in pats)]
                assert list(enumerate_avoiders(n, pats)) == naive

    def test_general_length_patterns(self):
        for n in range(7):
            naive = [pi for pi in itertools.permutations(range(1, n + 1))
                     if not contains(pi, (1, 2, 3, 4))]
            assert list(enumerate_avoiders(n, ((1, 2, 3, 4),))) == naive

    def test_budget_guard(self):
        with pytest.raises(BudgetError):
            list(enumerate_avoiders(12, ()))
        with pytest.raises(BudgetError, match=r"\(9694845 permutations\)"):
            list(enumerate_avoiders(15, ((1, 3, 2),)))
        # no closed form for a pair, and none stated for an unprintable n!
        with pytest.raises(BudgetError) as pair:
            list(enumerate_avoiders(15, ((1, 3, 2), (1, 2, 3))))
        with pytest.raises(BudgetError) as huge:
            list(enumerate_avoiders(5000, ()))
        assert "permutations" not in str(pair.value) + str(huge.value)
        # a larger Limits value allows more
        wider = Limits(avoider_guard_empty=12)
        assert next(enumerate_avoiders(12, (), limits=wider)) == tuple(range(1, 13))

    def test_size_stated_up_to_length_100(self):
        narrow = Limits(avoider_guard_empty=5)
        with pytest.raises(BudgetError) as at_100:
            list(enumerate_avoiders(100, (), limits=narrow))
        assert f"({math.factorial(100)} permutations)" in str(at_100.value)
        with pytest.raises(BudgetError) as at_101:
            list(enumerate_avoiders(101, (), limits=narrow))
        assert "permutations" not in str(at_101.value)


class TestStatistics:
    def test_des_family(self):
        pi = (7, 4, 2, 1, 3, 6, 5)
        assert des_r(pi, 0) == 4
        assert des_r(pi, 1) == 2
        assert des_r(pi, 2) == 1
        assert statistic(pi, "des_r(1)") == statistic(pi, "bdes") == 2

    def test_sdes_lddes_pk(self):
        pi = (2, 1, 4, 8, 6, 3, 9, 7, 5)
        assert sdes(pi) == 1
        assert lddes(pi) == 3
        assert pk(pi) == 2

    def test_lbasc_counts_position_0_when_pi_1_exceeds_1(self):
        assert statistic((1, 3, 2), "lbasc") == 1
        assert statistic((2, 1, 3), "lbasc") == 2

    def test_hibasc_lobasc(self):
        pi = (2, 4, 1, 3, 7, 5, 6)
        assert statistic(pi, "hibasc") == 2
        assert statistic(pi, "lobasc") == 1

    def test_hibasc_lobasc_against_weak_excedance_set(self):
        # from the docstrings: a big ascent k (pi_k + 1 < pi_{k+1}) is high
        # when k+1 is a weak excedance (pi_{k+1} >= k+1) and low otherwise
        for n in range(8):
            for pi in itertools.permutations(range(1, n + 1)):
                wex = {k for k, v in enumerate(pi, start=1) if v >= k}
                big = [k for k in range(1, n) if pi[k - 1] + 1 < pi[k]]
                assert perms.hibasc(pi) == sum(k + 1 in wex for k in big)
                assert perms.lobasc(pi) == sum(k + 1 not in wex for k in big)

    def test_empty_permutation(self):
        for name in [*perms.STATISTICS, "des_r(3)"]:
            assert statistic((), name) == 0

    def test_rbdes_small(self):
        assert rbdes((1,)) == 0
        assert rbdes((2, 1)) == 0
        assert rbdes((1, 2)) == 1

    def test_unknown_stat_rejected(self):
        with pytest.raises(ValueError):
            statistic((1,), "zigzag")

    @given(perm_strategy)
    def test_des_chain_and_splits(self, pi):
        assert des_r(pi, 2) <= des_r(pi, 1) <= des_r(pi, 0)
        assert des(pi) == bdes(pi) + sdes(pi)
        assert des(pi) == pk(pi) + lddes(pi)

    @given(perm_strategy)
    def test_rbdes_is_bdes_with_zero_appended(self, pi):
        padded = pi + (0,)
        direct = sum(1 for a, b in zip(padded, padded[1:]) if a > b + 1)
        assert rbdes(pi) == direct

    @given(perm_strategy)
    def test_hibasc_lobasc_split(self, pi):
        assert statistic(pi, "basc") == (statistic(pi, "hibasc")
                                         + statistic(pi, "lobasc"))


# Each statistic written out from its docstring with 1-based positions:
# p(k) is pi_k, and a count runs over the positions its definition names.
def _des_r_oracle(r):
    def count(pi):
        p, n = (lambda k: pi[k - 1]), len(pi)
        return sum(p(k) > p(k + 1) + r for k in range(1, n))
    return count


def _sdes_oracle(pi):
    p, n = (lambda k: pi[k - 1]), len(pi)
    return sum(p(k) == p(k + 1) + 1 for k in range(1, n))


def _lddes_oracle(pi):
    p, n = (lambda k: pi[k - 1]), len(pi)
    first = n >= 2 and p(1) > p(2)
    return first + sum(p(k - 1) > p(k) > p(k + 1) for k in range(2, n))


def _pk_oracle(pi):
    p, n = (lambda k: pi[k - 1]), len(pi)
    return sum(p(k - 1) < p(k) > p(k + 1) for k in range(2, n))


def _rbdes_oracle(pi):
    p, n = (lambda k: pi[k - 1]), len(pi)
    return _des_r_oracle(1)(pi) + (n >= 1 and p(n) > 1)


def _basc_oracle(pi):
    p, n = (lambda k: pi[k - 1]), len(pi)
    return sum(p(k) + 1 < p(k + 1) for k in range(1, n))


def _lbasc_oracle(pi):
    p, n = (lambda k: pi[k - 1]), len(pi)
    return _basc_oracle(pi) + (n >= 1 and p(1) > 1)


def _hibasc_oracle(pi):
    p, n = (lambda k: pi[k - 1]), len(pi)
    return sum(p(k) + 1 < p(k + 1) and p(k + 1) >= k + 1 for k in range(1, n))


def _lobasc_oracle(pi):
    p, n = (lambda k: pi[k - 1]), len(pi)
    return sum(p(k) + 1 < p(k + 1) and p(k + 1) < k + 1 for k in range(1, n))


STATISTIC_ORACLES = {
    "des": _des_r_oracle(0), "bdes": _des_r_oracle(1), "sdes": _sdes_oracle,
    "lddes": _lddes_oracle, "pk": _pk_oracle, "rbdes": _rbdes_oracle,
    "basc": _basc_oracle, "lbasc": _lbasc_oracle, "hibasc": _hibasc_oracle,
    "lobasc": _lobasc_oracle,
}


def _all_perms(max_n):
    for n in range(max_n + 1):
        yield from itertools.permutations(range(1, n + 1))


class TestStatisticOracles:
    """Every statistic against its definition on all of S_n, n <= 7 (the
    empty word and (1,) included), as a tuple and as the list the
    generating tree passes."""

    def test_oracles_cover_every_registered_statistic(self):
        assert set(STATISTIC_ORACLES) == set(perms.STATISTICS)

    @pytest.mark.parametrize("name", sorted(STATISTIC_ORACLES))
    def test_registered_statistic_matches_definition(self, name):
        value, oracle = perms.STATISTICS[name].value, STATISTIC_ORACLES[name]
        for pi in _all_perms(7):
            assert value(pi) == oracle(pi), (name, pi)
            assert value(list(pi)) == oracle(pi), (name, pi)

    @pytest.mark.parametrize("r", range(4))
    def test_des_r_matches_definition(self, r):
        oracle = _des_r_oracle(r)
        for pi in _all_perms(7):
            assert des_r(pi, r) == oracle(pi), (r, pi)
            assert statistic(pi, f"des_r({r})") == oracle(pi), (r, pi)

    def test_entries_with_r_are_des_r_of_their_words(self):
        """The tables read an entry's r and flags instead of its value, so
        the two must agree: des_r(r) of pi reversed when ``reversed``, then
        with a 0 appended when ``padded``."""
        with_r = {name: stat for name, stat in perms.STATISTICS.items()
                  if stat.r is not None}
        assert sorted(with_r) == ["basc", "bdes", "des", "lbasc", "rbdes"]
        for name, stat in with_r.items():
            for pi in _all_perms(7):
                word = pi[::-1] if stat.reversed else pi
                word += (0,) * stat.padded
                assert stat.value(pi) == des_r(word, stat.r), (name, pi)

    def test_reversal_turns_big_ascents_into_big_descents(self):
        for pi in _all_perms(7):
            rev = reverse(pi)
            assert bdes(rev) == statistic(pi, "basc"), pi
            assert rbdes(rev) == statistic(pi, "lbasc"), pi


class TestDistributionTable:
    def test_known_rows(self):
        assert distribution_table(5, ((1, 3, 2),), "bdes").counts == \
            (5, 25, 12, 0, 0, 0)
        assert distribution_table(6, ((3, 2, 1),), "bdes").counts == \
            (13, 72, 45, 2, 0, 0, 0)
        assert distribution_table(7, ((2, 1, 3), (2, 3, 1)), "bdes").counts == \
            (7, 35, 21, 1, 0, 0, 0, 0)

    def test_total_is_class_size(self):
        table = distribution_table(6, ((2, 3, 1),), "bdes")
        assert table.total() == len(list(enumerate_avoiders(6, ((2, 3, 1),))))

    def test_poly_trims(self):
        table = DistributionTable(2, "bdes", (), (2, 0, 0))
        assert table.poly() == [2]

    def test_empty_class_keeps_one_entry(self):
        assert distribution_table(3, ((1, 2), (2, 1)), "bdes").poly() == [0]


class TestDistributionRows:
    @pytest.mark.parametrize("patterns", [
        *ALL_SINGLETONS, *ALL_PAIRS, (), ((1, 2, 3, 4),), ((), (1, 3, 2))])
    @pytest.mark.parametrize("stat", ["des", "bdes", "des_r(2)", "pk"])
    def test_rows_match_tables(self, patterns, stat):
        rows = distribution_rows(7, patterns, stat)
        assert len(rows) == 8
        for n, row in enumerate(rows):
            assert row == distribution_table(n, patterns, stat)

    def test_length_is_n_plus_one(self):
        for n in range(5):
            assert len(distribution_rows(n, ((2, 3, 1),), "bdes")) == n + 1

    def test_guard_fires_before_any_level(self, monkeypatch):
        computed = []
        monkeypatch.setattr(merged, "walk",
                            lambda *a: computed.append(a) or iter(()))
        with pytest.raises(BudgetError):
            distribution_rows(15, ((2, 3, 1),), "bdes")
        assert computed == []
        # the patch is live: below the guard the merged walk is started
        distribution_rows(3, ((2, 3, 1),), "bdes")
        assert computed

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            distribution_rows(-1, ((2, 3, 1),), "bdes")

    def test_unknown_stat_rejected(self):
        with pytest.raises(ValueError):
            distribution_rows(3, (), "zigzag")


# classes with a pattern of length other than 3, whose sites `_pinned_sites`
# finds
PINNED_SETS = [((1, 2, 3, 4),), ((4, 3, 2, 1),), ((1, 3, 4, 2),),
               ((2, 1, 4, 3),), ((1, 4, 2, 3),), ((2, 1, 3), (1, 2, 3, 4)),
               ((1, 2),), ((2, 1),), ((1, 2, 3, 4, 5),),
               ((2, 1, 4, 3), (1, 3, 2))]
ORACLE_SETS = [*ALL_SINGLETONS, *ALL_PAIRS, *PINNED_SETS, (), ((),)]
ORACLE_STATS = {name: stat.value for name, stat in perms.STATISTICS.items()}
ORACLE_STATS["des_r(2)"] = functools.partial(des_r, r=2)


@functools.lru_cache(maxsize=None)
def containment(n):
    """Each permutation of length n with the oracle patterns it contains."""
    patterns = {p for ps in ORACLE_SETS for p in ps}
    return [(pi, {p for p in patterns if contains(pi, p)})
            for pi in itertools.permutations(range(1, n + 1))]


def naive_class(patterns, n):
    """S_n(patterns) by filtering all of S_n through ``contains``."""
    return [pi for pi, found in containment(n) if found.isdisjoint(patterns)]


class TestTreeAgainstNaiveFilter:
    """The generating tree against an oracle that builds no tree: every
    permutation of length n <= 7, kept when ``contains`` finds no pattern."""

    @pytest.mark.parametrize("patterns", ORACLE_SETS)
    def test_rows_match_naive_counts(self, patterns):
        classes = [naive_class(patterns, n) for n in range(8)]
        for stat, value in ORACLE_STATS.items():
            for rows_of in (distribution_rows, tree_rows):
                rows = rows_of(7, patterns, stat)
                assert len(rows) == len(classes)
                for n, (row, naive) in enumerate(zip(rows, classes)):
                    found = [0] * (n + 1)
                    for pi in naive:
                        found[value(pi)] += 1
                    assert row.counts == tuple(found), (rows_of, stat, n)
                    assert row.patterns == tuple(sorted(patterns))

    @pytest.mark.parametrize("patterns", PINNED_SETS)
    def test_enumeration_matches_naive_list(self, patterns):
        for n in range(8):
            assert list(enumerate_avoiders(n, patterns)) == \
                naive_class(patterns, n)


def occurrence_sites(parent, sigma):
    """The sites of `parent` where its new maximum completes no occurrence of
    sigma, from every occurrence of sigma less its maximum: one at positions
    p_0 < ... < p_(k-1) rules out the sites i with p_(w-1) < i <= p_w, w
    being the index of sigma's maximum."""
    k = len(sigma) - 1
    w = sigma.index(k + 1)
    rest = standardize(sigma[:w] + sigma[w + 1:])
    ruled_out = set()
    for at in itertools.combinations(range(len(parent)), k):
        if standardize([parent[p] for p in at]) == rest:
            first = at[w - 1] + 1 if w else 0
            ruled_out.update(range(first, (at[w] if w < k else len(parent)) + 1))
    return [i for i in range(len(parent) + 1) if i not in ruled_out]


@pytest.mark.parametrize("sigma", [(1, 2), (2, 1), (1, 3, 2, 4), (2, 1, 4, 3),
                                   (4, 1, 3, 2), (1, 2, 3, 4, 5)])
def test_pinned_sites_match_an_occurrence_search(sigma):
    """`_pinned_sites` on every word of length <= 7, whether it avoids sigma
    or not, against the search of every occurrence."""
    rule = perms._site_rule(sigma)
    for m in range(8):
        for parent in itertools.permutations(range(1, m + 1)):
            assert rule(list(parent)) == occurrence_sites(parent, sigma), parent


class TestDepthFirstWalk:
    """`perms._walk`, the one loop that descends the generating tree for the
    tally and the stream."""

    @pytest.mark.parametrize("patterns", [(), ((2, 3, 1),), ((1, 2, 3, 4),),
                                          ((1, 2), (2, 1, 4, 3))],
                             ids=lambda ps:
                             ",".join(map(perms.format_permutation, ps)))
    def test_one_visit_per_node_and_no_sites_at_a_leaf(self, monkeypatch,
                                                       patterns):
        """The walk to length n visits |S_m(patterns)| nodes of each length
        m < n, and computes the active sites of each once and of no leaf."""
        n = 8
        sizes = {m: row.total()
                 for m, row in enumerate(tree_rows(n, patterns, "des")[:n])}
        searched = []
        search = perms._active_sites

        def counting(parent, rules):
            searched.append(len(parent))
            return search(parent, rules)

        monkeypatch.setattr(perms, "_active_sites", counting)
        visited = [len(node) for node, _, _ in
                   perms._walk(n, patterns, lambda node, sites, own: sites)]
        assert collections.Counter(visited) == sizes
        assert sorted(searched) == sorted(visited)

    # past a raised guard the walk runs deeper than Python's recursion limit;
    # S_m(12) is the one decreasing word, which has no peak
    def test_tree_rows_past_the_recursion_limit(self):
        wide = Limits(avoider_guard_patterns=1200)
        rows = tree_rows(1200, [(1, 2)], "pk", limits=wide)
        assert [row.counts for row in rows] == [
            (1,) + (0,) * m for m in range(1201)]

    def test_table_past_the_recursion_limit(self, tmp_path, capsys):
        config = tmp_path / "wide.json"
        config.write_text('{"avoider_guard_patterns": 1200}')
        assert main(["--config", str(config), "table", "--patterns", "12",
                     "--n", "1200", "--stat", "pk"]) == 0
        assert capsys.readouterr().out == " ".join(["1"] + ["0"] * 1200) + "\n"


SUBSETS_OF_S3 = [ps for size in range(1, 7)
                 for ps in itertools.combinations(
                     itertools.permutations((1, 2, 3)), size)]
# classes with a pattern shorter than 3, which the merged walk also covers
SHORTER_SETS = [((1,),), ((1, 2),), ((2, 1),), ((1, 2), (2, 1)),
                ((1,), (1, 2, 3)), ((1, 2), (1, 3, 2)), ((2, 1), (3, 1, 2))]


MERGED_STATS = ["des_r(0)", "des_r(1)", "des_r(2)", "rbdes", "lbasc"]


def merged_mismatches(n, pattern_sets):
    """The (patterns, statistic) whose rows of lengths 0..n differ between
    the merged walk and the tree."""
    return [(ps, stat) for ps in pattern_sets for stat in MERGED_STATS
            if distribution_rows(n, ps, stat) != tree_rows(n, ps, stat)]


# Each forgets one field of a site's code in `merged.walk`'s states: its
# rank, whether the patterns leave it dead (a dead site reads as a live
# ascent of rank 1), or its descent flag.
COARSENINGS = {
    "without-rank": lambda code: code if code == DEAD else code & DESCENT,
    "without-rule-flags": lambda code: 1 if code == DEAD else code,
    "without-descent-flag": lambda code: code if code == DEAD
    else code & ~DESCENT,
}


def coarsen(monkeypatch, forget):
    """Make the merged walk key its states on coarser codes: every code is
    mapped through `forget` before the client's key sees it."""
    walk, coarser = merged.walk, bytes(map(forget, range(256)))

    def coarse_walk(n, pats, r, key, push, padded=False):
        return walk(n, pats, r, lambda codes: key(codes.translate(coarser)),
                    push, padded)

    monkeypatch.setattr(merged, "walk", coarse_walk)


def scratch_codes(node, rules, r, padded=False):
    """A node's codes in `merged.walk`, from scratch: each site's rank
    min(r + 1, top - b) plus DESCENT when (a, b) is an r-descent, or DEAD
    where the patterns' site rules leave no insertion; b = 0 after the
    last letter when `padded`."""
    top = len(node) + 1
    ext = [0, *node, 0 if padded else top]
    live = perms._active_sites(list(node), rules)
    return bytes(min(r + 1, top - b) | DESCENT * (a > b + r)
                 if i in live else DEAD
                 for i, (a, b) in enumerate(zip(ext, ext[1:])))


def matched_futures(sites, codes, key):
    """At site 0, at each live interior site in order and at the end: the
    site's `made` and `broken` and the key of its child, or None where the
    site is dead."""
    m = len(codes) - 1
    up = codes.translate(sites.bump)
    matched = [0, *(i for i in range(1, m) if codes[i] != DEAD), m][:m + 1]
    return [None if codes[i] == DEAD else
            (sites.made[codes[i]], sites.broken[codes[i]],
             key(sites.child(codes, up, i))) for i in matched]


def unsound_keys(key, padded):
    """The (patterns, r, codes, codes) of two states of one length, over
    every class of `SUBSETS_OF_S3` and `SHORTER_SETS` and r = 0, 1, 2 to
    length 8, that share a key but not their matched futures."""
    found = []
    for patterns, r in itertools.product([*SUBSETS_OF_S3, *SHORTER_SETS],
                                         range(3)):
        sites = merged.Sites(patterns, r, 8, padded)
        level = {sites.root}
        for _ in range(8):
            first, following = {}, set()
            for codes in sorted(level):
                future = matched_futures(sites, codes, key)
                other = first.setdefault(key(codes), (codes, future))
                if other[1] != future:
                    found.append((patterns, r, other[0], codes))
                up = codes.translate(sites.bump)
                following.update(sites.child(codes, up, i)
                                 for i, c in enumerate(codes) if c != DEAD)
            level = following
    return found


class TestMergedWalk:
    """des_r(r) over the classes of patterns of length at most 3, tallied on
    `merged.walk` with one state per key, against the tree that visits
    every avoider."""

    def test_equals_the_tree_on_every_subset_of_s3(self):
        assert merged_mismatches(10, SUBSETS_OF_S3) == []
        assert merged_mismatches(9, [()]) == []

    def test_equals_the_tree_below_the_pattern_length(self):
        for n in range(3):
            assert merged_mismatches(n, SUBSETS_OF_S3) == []

    def test_equals_the_tree_with_shorter_patterns(self):
        assert merged_mismatches(8, SHORTER_SETS) == []

    @pytest.mark.parametrize("forget", COARSENINGS.values(),
                             ids=COARSENINGS.keys())
    def test_a_coarser_signature_is_caught(self, monkeypatch, forget):
        coarsen(monkeypatch, forget)
        assert len(merged_mismatches(7, SUBSETS_OF_S3)) >= 10

    @pytest.mark.parametrize("patterns", [(), *SUBSETS_OF_S3, *SHORTER_SETS],
                             ids=lambda ps:
                             ",".join(map(perms.format_permutation, ps)))
    def test_each_child_state_follows_from_its_parent(self, patterns):
        """Every node of the tree to length 8, for r = 0, 1, 2, with and
        without a 0 appended: the codes that `merged.Sites.child` derives
        from the parent's codes and the site equal the child's codes from
        scratch."""
        rules = [perms._site_rule(p) for p in patterns]
        for r, padded in itertools.product(range(3), (False, True)):
            sites = merged.Sites(patterns, r, 8, padded)
            assert sites.root == scratch_codes((), rules, r, padded)
            stack = [((), sites.root)]
            while stack:
                node, codes = stack.pop()
                up = codes.translate(sites.bump)
                for i in perms._active_sites(list(node), rules):
                    child = (*node[:i], len(node) + 1, *node[i:])
                    codes_i = sites.child(codes, up, i)
                    assert codes_i == scratch_codes(child, rules, r,
                                                    padded), (child, r)
                    if len(child) < 8:
                        stack.append((child, codes_i))

    def test_one_key_means_one_future(self):
        """Every state to length 8 of every class, for r = 0, 1, 2, with and
        without a 0 appended: states that share a `merged.live_codes` key
        agree on `made` and `broken` and on their children's keys at each
        pair of matched sites (site 0, the live interior sites in order,
        the end).  The key without the end's code merges a state whose end
        is dead with one whose end is live once the end's code can equal
        an interior code, which a padded word allows."""
        def without_end(codes):
            return codes[:1] + codes[1:].translate(None, bytes([DEAD]))

        for padded in (False, True):
            assert unsound_keys(merged.live_codes, padded) == []
            assert bool(unsound_keys(without_end, padded)) == padded

    def test_padded_tables_are_narayana_without_the_tree(self, monkeypatch):
        """rbdes over S_n(123) and lbasc over S_n(321), tallied on the
        merged walk alone, are the Narayana numbers of `genfun.narayana`."""
        def refuse(*args):
            raise AssertionError("the tree was walked")

        monkeypatch.setattr(perms, "_grow", refuse)
        for patterns, stat in [([(1, 2, 3)], "rbdes"), ([(3, 2, 1)], "lbasc")]:
            for n, row in enumerate(distribution_rows(14, patterns, stat)):
                assert row.counts == tuple(genfun.narayana(n, k)
                                           for k in range(n + 1)), (stat, n)

    def test_verify_holds_it_to_the_tree(self, monkeypatch):
        coarsen(monkeypatch, COARSENINGS["without-descent-flag"])
        failed = [r for r in verify.check_formulas(7) if not r.ok]
        assert all("; merged walk [" in r.witness for r in failed)
        assert {"eulerian-recurrence:r=1", "eulerian-r1-vs-bdes",
                "distribution:formula:b123"} <= {r.name for r in failed}

    @pytest.mark.parametrize("patterns, stat, merged", [
        (((2, 3, 1),), "bdes", True),
        ((), "des_r(3)", True),
        (((1, 2, 3, 4),), "bdes", False),
        (((2, 1, 3), (1, 2, 3, 4)), "des", False),
        (((2, 3, 1),), "pk", False),
        ((), "sdes", False),
        (((2, 3, 1),), "basc", True),
        (((2, 3, 1),), "rbdes", True),
        (((2, 3, 1),), "lbasc", True),
        (((1, 2, 3, 4),), "basc", False),
        (((1, 2, 3, 4),), "rbdes", False),
    ])
    def test_merges_length_3_classes_by_des_r_only(self, monkeypatch,
                                                   patterns, stat, merged):
        calls = []
        walk = perms._merged_rows
        monkeypatch.setattr(perms, "_merged_rows",
                            lambda *args: calls.append(args) or walk(*args))
        assert distribution_rows(6, patterns, stat) == \
            tree_rows(6, patterns, stat)
        assert bool(calls) == merged

    @pytest.mark.parametrize("name", ["rbdes", "basc", "lbasc"])
    def test_tables_of_a_padded_or_reversed_word_never_evaluate_it(
            self, monkeypatch, name):
        """Their tables update des_r(1) in O(1) on the tree or tally it on
        the merged walk; the value function is only the oracle."""
        classes = [(), ((2, 3, 1),), ((1, 3, 2), (2, 1, 3)), ((2, 1, 4, 3),)]
        want = [tree_rows(7, ps, name) for ps in classes]

        def refuse(pi):
            raise AssertionError(f"{name} evaluated on {pi}")

        monkeypatch.setitem(perms.STATISTICS, name,
                            perms.STATISTICS[name]._replace(value=refuse))
        for ps, rows in zip(classes, want):
            assert distribution_rows(7, ps, name) == rows
            assert tree_rows(7, ps, name) == rows

    def test_only_a_walk_loads_merged(self):
        """Each job in a fresh interpreter: the route is decided before
        `merged` is imported, so a job that never walks does not load it."""
        def loads(job):
            script = ("import sys, bigdescents.cli\n"
                      "from bigdescents.perms import distribution_rows\n"
                      "from bigdescents.symfunc import qsym_sum\n"
                      f"{job}\n"
                      "print('bigdescents.merged' in sys.modules)\n")
            out = subprocess.run(
                [sys.executable, "-B", "-c", script], check=True,
                capture_output=True, text=True,
                env={"PYTHONPATH": str(Path(perms.__file__).parents[1])})
            return out.stdout.split() == ["True"]

        assert not loads("distribution_rows(7, [(1, 2, 3, 4)], 'bdes')\n"
                         "distribution_rows(9, [(2, 3, 1)], 'pk')")
        assert loads("distribution_rows(9, [(2, 3, 1)], 'bdes')")
        assert loads("qsym_sum(6, [(1, 2, 3)])")


class TestWilfEquivalenceData:
    def test_tables_equal_within_singleton_classes(self):
        for n in range(8):
            a = distribution_table(n, ((2, 3, 1),), "bdes").counts
            b = distribution_table(n, ((3, 1, 2),), "bdes").counts
            assert a == b
            c = distribution_table(n, ((1, 3, 2),), "bdes").counts
            d = distribution_table(n, ((2, 1, 3),), "bdes").counts
            assert c == d

    def test_231_and_132_joint_with_des_equidistributed(self):
        # (bdes, des) matches (pk, des) over the 231-avoiders
        for n in range(8):
            lhs = {}
            rhs = {}
            for pi in enumerate_avoiders(n, ((2, 3, 1),)):
                lhs[(bdes(pi), des(pi))] = lhs.get((bdes(pi), des(pi)), 0) + 1
                rhs[(pk(pi), des(pi))] = rhs.get((pk(pi), des(pi)), 0) + 1
            assert lhs == rhs

    def test_sdes_lddes_equidistributed_over_231(self):
        for n in range(8):
            lhs = [0] * (n + 1)
            rhs = [0] * (n + 1)
            for pi in enumerate_avoiders(n, ((2, 3, 1),)):
                lhs[sdes(pi)] += 1
                rhs[lddes(pi)] += 1
            assert lhs == rhs


class TestSerialization:
    def test_permutation_round_trip(self):
        assert parse_permutation("2413756") == (2, 4, 1, 3, 7, 5, 6)
        big = tuple(range(1, 12))
        assert parse_permutation(perms.format_permutation(big)) == big
        assert parse_permutation("") == ()

    def test_commas_from_length_10(self):
        assert perms.format_permutation(tuple(range(1, 10))) == "123456789"
        assert perms.format_permutation(tuple(range(1, 11))) == \
            "1,2,3,4,5,6,7,8,9,10"

    def test_pattern_set_round_trip(self):
        assert parse_pattern_set("213,231") == ((2, 1, 3), (2, 3, 1))
        assert parse_pattern_set("") == ()
