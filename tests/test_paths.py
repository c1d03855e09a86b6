import hashlib
import itertools

import pytest

from bigdescents.bijections import psi
from bigdescents.genfun import catalan
from bigdescents.paths import (BinaryWord, DyckPath, TwoMotzkinPath,
                               iter_dyck_paths, occ_factor, path_statistic,
                               path_statistics)
from oracles import iter_binary_words, iter_two_motzkin, run_count


def heights(mu):
    """Heights after each step (length = number of steps)."""
    out, h = [], 0
    for ch in mu.steps:
        h += 1 if ch == "U" else -1
        out.append(h)
    return out


class TestValidation:
    def test_dyck(self):
        assert DyckPath.is_valid("UUDD")
        assert not DyckPath.is_valid("UDD")
        assert not DyckPath.is_valid("UDU")
        assert DyckPath.is_valid("")
        with pytest.raises(ValueError):
            DyckPath("DU")

    def test_dyck_heights(self):
        assert heights(DyckPath("UUDD")) == [1, 2, 1, 0]

    def test_two_motzkin(self):
        assert TwoMotzkinPath.is_valid(("h1", "u", "d"))
        assert not TwoMotzkinPath.is_valid(("d", "u"))
        assert not TwoMotzkinPath.is_valid(("u", "h2", "d"))

    def test_binary(self):
        assert BinaryWord.is_valid("0101")
        assert not BinaryWord.is_valid("012")

    # a word in the wrong container would print wrongly or compare unequal
    def test_dyck_steps_must_be_a_str(self):
        with pytest.raises(ValueError, match="not a Dyck word"):
            DyckPath(("U", "D"))

    def test_binary_bits_must_be_a_str(self):
        with pytest.raises(ValueError, match="not a binary word"):
            BinaryWord(("0", "1"))

    def test_two_motzkin_steps_must_be_a_tuple(self):
        with pytest.raises(ValueError, match="not a 2-Motzkin word"):
            TwoMotzkinPath("ud")


class TestOccFactor:
    def test_dyck_factors(self):
        mu = DyckPath("UUUDDUDDUDUUDD")
        assert occ_factor(mu, "UD") == 4
        assert occ_factor(mu, "UD", level0_only=True) == 1

    def test_binary_factors(self):
        assert occ_factor(BinaryWord("10110001011"), "011") == 2

    def test_overlapping_occurrences_counted(self):
        assert occ_factor(DyckPath("UDUDUD"), "DU") == 2
        assert occ_factor(BinaryWord("0000"), "00") == 3

    def test_level0_not_defined_for_words(self):
        with pytest.raises(ValueError):
            occ_factor(BinaryWord("01"), "01", level0_only=True)

    def test_level0_bounded_by_total(self):
        for mu in iter_dyck_paths(5):
            assert occ_factor(mu, "UD", True) <= occ_factor(mu, "UD")

    def test_matches_a_sliding_window(self):
        factors = ["".join(f) for k in range(1, 5)
                   for f in itertools.product("UD", repeat=k)]
        for m in range(6):
            for mu in iter_dyck_paths(m):
                steps = mu.steps
                level = [0] + heights(mu)
                for factor in factors:
                    starts = [i for i in range(len(steps) - len(factor) + 1)
                              if steps[i:i + len(factor)] == factor]
                    assert occ_factor(mu, factor) == len(starts)
                    assert occ_factor(mu, factor, level0_only=True) == \
                        sum(1 for i in starts if level[i] == 0)

    def test_rejects_other_objects_and_the_empty_factor(self):
        with pytest.raises(TypeError):
            occ_factor("UD", "UD")
        with pytest.raises(ValueError):
            occ_factor(DyckPath("UD"), "")
        with pytest.raises(ValueError):
            occ_factor(BinaryWord("01"), "", level0_only=True)


class TestPathStatistics:
    def test_pk(self):
        assert path_statistic(DyckPath("UDUUDUUUDUDDUDDD"), "pk") == 5

    def test_ini_UU(self):
        assert path_statistic(DyckPath("UD"), "ini_UU") == 0
        assert path_statistic(DyckPath("UUDD"), "ini_UU") == 1

    def test_con_small_cases(self):
        # UUDD: both D pairs and U pairs adjacent, so no contribution
        assert path_statistic(DyckPath("UUDD"), "con") == 0
        assert path_statistic(DyckPath("UDUD"), "con") == 0
        # UUDUDD: D1,D2 not adjacent; D2,D3 adjacent with U2,U3 not
        assert path_statistic(DyckPath("UUDUDD"), "con") == 1

    def test_every_nonempty_path_has_a_peak(self):
        for m in range(1, 7):
            for mu in iter_dyck_paths(m):
                assert path_statistic(mu, "pk") >= 1

    def test_con_at_most_pk(self):
        for m in range(7):
            for mu in iter_dyck_paths(m):
                assert path_statistic(mu, "con") <= path_statistic(mu, "pk")

    def test_returns(self):
        assert path_statistic(DyckPath("UDUDUD"), "returns") == 3
        assert path_statistic(DyckPath("UUUDDD"), "returns") == 1

    def test_hibasc_lobasc_examples(self):
        mu = DyckPath("UUDUUDDDUUUDDD")  # chi(2413756)
        assert path_statistic(mu, "hibasc") == 2
        assert path_statistic(mu, "lobasc") == 1

    def test_unknown_statistic(self):
        with pytest.raises(ValueError):
            path_statistic(DyckPath("UD"), "area")


def peak_colors(mu: DyckPath) -> str:
    """Oracle coloring: 'r' on the two steps of every UD-factor, else 'b'."""
    colors = ["b"] * len(mu.steps)
    for i in range(len(mu.steps) - 1):
        if mu.steps.startswith("UD", i):
            colors[i] = colors[i + 1] = "r"
    return "".join(colors)


class TestPeakColoring:
    """psi, hibasc and lobasc read red steps off the word; here the coloring
    is built from its definition and checked against them."""

    def test_red_steps_are_adjacent_pairs(self):
        for m in range(1, 8):
            for mu in iter_dyck_paths(m):
                colors = peak_colors(mu)
                reds = [i for i, c in enumerate(colors) if c == "r"]
                for a, b in zip(reds[::2], reds[1::2]):
                    assert b == a + 1
                    assert mu.steps[a:b + 1] == "UD"
                peaks = reds[::2]
                assert path_statistic(mu, "hibasc") == sum(
                    1 for j in range(1, len(peaks)) if peaks[j] != peaks[j - 1] + 2)
                # psi's i-th token holds the colors of the i-th U and the
                # (i+1)-th D step
                u_red = [c == "r" for s, c in zip(mu.steps, colors) if s == "U"]
                d_red = [c == "r" for s, c in zip(mu.steps, colors) if s == "D"]
                pairs = {"u": (False, True), "d": (True, False),
                         "h0": (False, False), "h1": (True, True)}
                assert [pairs[tok] for tok in psi(mu).steps] == list(
                    zip(u_red, d_red[1:]))

    def test_blue_core_is_dyck(self):
        for m in range(8):
            for mu in iter_dyck_paths(m):
                colors = peak_colors(mu)
                core = "".join(s for s, c in zip(mu.steps, colors) if c == "b")
                assert DyckPath.is_valid(core)
                # lobasc: blue D steps l, l+1 adjacent, blue U steps l, l+1 not
                steps = list(zip(mu.steps, colors))
                ups = [i for i, (s, c) in enumerate(steps) if s + c == "Ub"]
                downs = [i for i, (s, c) in enumerate(steps) if s + c == "Db"]
                assert path_statistic(mu, "lobasc") == sum(
                    1 for l in range(len(downs) - 1)
                    if downs[l + 1] == downs[l] + 1 and ups[l + 1] != ups[l] + 1)


def _adjacent_pairs(first: list[int], second: list[int]) -> int:
    """Indices i with first[i], first[i+1] adjacent and second[i],
    second[i+1] not (con on all steps, lobasc on the blue ones)."""
    return sum(1 for i in range(len(first) - 1)
               if first[i + 1] == first[i] + 1 and second[i + 1] != second[i] + 1)


def _indices(labels, label: str) -> list[int]:
    return [i for i, x in enumerate(labels) if x == label]


def _peaks(steps: str) -> list[int]:
    return [i for i in range(len(steps) - 1) if steps[i:i + 2] == "UD"]


def _colored(mu: DyckPath) -> list[str]:
    """Each step with its peak color: "Ur", "Ub", "Dr" or "Db"."""
    return [s + c for s, c in zip(mu.steps, peak_colors(mu))]


# Each statistic written from its definition in the path_statistics docstring.
STATISTIC_ORACLES = {
    "pk": lambda mu: len(_peaks(mu.steps)),
    "con": lambda mu: _adjacent_pairs(_indices(mu.steps, "D"),
                                      _indices(mu.steps, "U")),
    "hibasc": lambda mu: sum(1 for a, b in zip(_peaks(mu.steps), _peaks(mu.steps)[1:])
                             if b != a + 2),
    "lobasc": lambda mu: _adjacent_pairs(_indices(_colored(mu), "Db"),
                                         _indices(_colored(mu), "Ub")),
    "ini_UU": lambda mu: int(mu.steps[:2] == "UU"),
    "returns": lambda mu: heights(mu).count(0),
}


class TestOneScanStatistics:
    def test_oracles_cover_every_field(self):
        assert set(STATISTIC_ORACLES) == set(path_statistics(DyckPath("")))

    @pytest.mark.parametrize("name", sorted(STATISTIC_ORACLES))
    def test_matches_the_definition(self, name):
        oracle = STATISTIC_ORACLES[name]
        for m in range(9):
            for mu in iter_dyck_paths(m):
                assert path_statistic(mu, name) == oracle(mu), (mu, name)
                assert path_statistics(mu)[name] == oracle(mu)

    def test_cache_leaves_equality_and_hash_alone(self):
        cached = DyckPath("UUDUUDDDUUUDDD")
        assert path_statistic(cached, "hibasc") == 2
        assert cached.statistics is cached.statistics  # scanned once
        fresh = DyckPath("UUDUUDDDUUUDDD")
        assert "statistics" not in vars(fresh)
        assert cached == fresh and hash(cached) == hash(fresh)
        assert len({cached, fresh}) == 1
        assert repr(cached) == repr(fresh)


class TestRunCount:
    def test_known_values(self):
        assert run_count(BinaryWord("0000110111001"), 2) == 2
        assert run_count(BinaryWord("1111"), 1) == 0
        assert run_count(BinaryWord("000"), 2) == 1

    def test_r_must_be_positive(self):
        with pytest.raises(ValueError):
            run_count(BinaryWord("0"), 0)


class TestGenerators:
    def test_dyck_counts_are_catalan(self):
        for m in range(8):
            assert sum(1 for _ in iter_dyck_paths(m)) == catalan(m)

    def test_dyck_paths_are_every_dyck_word_in_order(self):
        for m in range(7):
            words = ("".join(w) for w in itertools.product("UD", repeat=2 * m))
            dyck = [w for w in words
                    if all(w[:k].count("U") >= w[:k].count("D")
                           for k in range(2 * m)) and w.count("U") == m]
            assert [mu.steps for mu in iter_dyck_paths(m)] == sorted(dyck)

    def test_two_motzkin_counts_are_catalan_shifted(self):
        for n in range(7):
            assert sum(1 for _ in iter_two_motzkin(n)) == catalan(n + 1)

    def test_binary_words(self):
        assert sum(1 for _ in iter_binary_words(6)) == 64
        assert [str(w) for w in iter_binary_words(0)] == [""]


# sha256 of the lines "<size> <word>" over sizes 0..9 (Dyck, by semilength)
# and 0..10 (2-Motzkin, by length), each size in the generator's own order;
# recorded from the generators before they shared one walk.
GENERATOR_DIGESTS = {
    "dyck": (iter_dyck_paths, range(10),
             "f988377202aab3c5f513e963a7447aa3b7ac2cb14c9f29290e6ca5addb79ecaf"),
    "two_motzkin": (iter_two_motzkin, range(11),
                    "541758915fc5be24905b721600b5496b2f41b1599966c8ffac80dab0d970310f"),
}


@pytest.mark.parametrize("kind", sorted(GENERATOR_DIGESTS))
def test_generator_sequence_matches_golden_digest(kind):
    generate, sizes, want = GENERATOR_DIGESTS[kind]
    text = "".join(f"{n} {path}\n" for n in sizes for path in generate(n))
    assert hashlib.sha256(text.encode()).hexdigest() == want
