import pytest

from bigdescents import bijections as bj
from bigdescents import perms, verify
from bigdescents.cli import main
from bigdescents.errors import DomainViolationError
from bigdescents.genfun import catalan
from bigdescents.paths import (BinaryWord, DyckPath, TwoMotzkinPath,
                               iter_dyck_paths)
from bigdescents.perms import bdes, enumerate_avoiders, standardize
from oracles import iter_two_motzkin


class TestWorkedExamples:
    def test_chi(self):
        assert str(bj.chi((2, 4, 1, 3, 7, 5, 6))) == "UUDUUDDDUUUDDD"

    def test_chi_inverse_of_hills_is_identity(self):
        assert bj.chi_inv(DyckPath("UD" * 5)) == (1, 2, 3, 4, 5)

    def test_psi(self):
        assert str(bj.psi(DyckPath("UDUUDUUUDUDDUDDD"))) == "h1 u h1 h0 u d d"

    def test_phi_213_231(self):
        assert str(bj.phi_213_231((9, 1, 2, 3, 8, 4, 7, 6, 5))) == "01110100"

    def test_phi_123_132_inverse(self):
        assert bj.invert("phi_123_132", BinaryWord("010010001")) == \
            (8, 7, 6, 9, 4, 3, 5, 1, 2)

    def test_omega_composite(self):
        path = bj.omega_f((5, 2, 1, 4, 3, 9, 6, 8, 7))
        assert bj.omega_l_inv(path) == (9, 1, 8, 6, 3, 2, 5, 4, 7)


def first_return_word(pi) -> str:
    """The paper's omega_f, recursively: sigma n tau maps to
    U w(std(sigma)) D w(std(tau)), split at the maximum n."""
    if not pi:
        return ""
    k = pi.index(len(pi))
    return ("U" + first_return_word(standardize(pi[:k])) + "D"
            + first_return_word(standardize(pi[k + 1:])))


def mirror_word(word: str) -> str:
    return word[::-1].translate(str.maketrans("UD", "DU"))


class TestOmegaAgainstFirstReturn:
    """omega_l's stack pass and its mirror omega_f against the recursive
    first-return definition, on every 231-avoider of length 0-9."""

    def test_images_and_inverses(self):
        checked = 0
        for n in range(10):
            for pi in enumerate_avoiders(n, ((2, 3, 1),)):
                word = first_return_word(pi)
                assert bj.omega_f(pi).steps == word, pi
                assert bj.omega_l(pi).steps == mirror_word(word), pi
                assert bj.omega_f_inv(DyckPath(word)) == pi
                assert bj.omega_l_inv(DyckPath(mirror_word(word))) == pi
                checked += 1
        assert checked == 6918


MAXIMA_WORD_BIJECTIONS = ("phi_123_132", "phi_132_213", "phi_231_321")


class TestDomainChecking:
    def test_chi_rejects_non_avoider(self):
        with pytest.raises(DomainViolationError, match="321"):
            bj.apply("chi", (3, 2, 1))

    def test_omega_rejects_non_avoider(self):
        with pytest.raises(DomainViolationError, match="231"):
            bj.apply("omega_f", (2, 3, 1))

    @pytest.mark.parametrize("bits", ["", "0", "0110"])
    @pytest.mark.parametrize("name", MAXIMA_WORD_BIJECTIONS)
    def test_word_inverses_require_trailing_one(self, name, bits):
        with pytest.raises(ValueError, match="does not end in 1"):
            bj.invert(name, BinaryWord(bits))

    def test_psi_rejects_empty(self):
        with pytest.raises(ValueError):
            bj.apply("psi", DyckPath(""))


PERMUTATION_DOMAINS = sorted(name for name, b in bj.BIJECTIONS.items()
                             if b.domain_patterns is not None)


class TestApplyChecksTheRecord:
    @pytest.mark.parametrize("name", PERMUTATION_DOMAINS)
    def test_each_domain_pattern_is_refused(self, name):
        for sigma in bj.BIJECTIONS[name].domain_patterns:
            with pytest.raises(DomainViolationError):
                bj.apply(name, sigma)

    @pytest.mark.parametrize("name", PERMUTATION_DOMAINS)
    def test_empty_permutation_refused_iff_min_length(self, name):
        if bj.BIJECTIONS[name].min_length > 0:
            with pytest.raises(ValueError):
                bj.apply(name, ())
        else:
            assert bj.invert(name, bj.apply(name, ())) == ()

    def test_not_a_permutation(self):
        with pytest.raises(ValueError):
            bj.apply("chi", (1, 1))


ROUND_TRIP_SIZES = range(0, 7)


class TestRoundTrips:
    @pytest.mark.parametrize("name", sorted(bj.BIJECTIONS))
    def test_forward_then_back(self, name):
        b = bj.BIJECTIONS[name]
        for n in range(max(b.min_length, ROUND_TRIP_SIZES.start),
                       ROUND_TRIP_SIZES.stop):
            for x in bj._domain_objects(b, n):
                assert bj.invert(name, bj.apply(name, x)) == x

    def test_psi_back_then_forward(self):
        for m in range(6):
            for alpha in iter_two_motzkin(m):
                assert bj.psi(bj.psi_inv(alpha)) == alpha

    def test_word_bijections_back_then_forward(self):
        for n in range(1, 11):
            from oracles import iter_binary_words
            for w in iter_binary_words(n - 1):
                for name in ("phi_213_231", "phi_213_312"):
                    assert bj.apply(name, bj.invert(name, w)) == w
            for w in iter_binary_words(n):
                if not w.bits.endswith("1"):
                    continue
                for name in MAXIMA_WORD_BIJECTIONS:
                    assert bj.apply(name, bj.invert(name, w)) == w


class TestImages:
    def test_omegas_are_onto_dyck_paths(self):
        for n in range(7):
            paths = {str(p) for p in iter_dyck_paths(n)}
            f_images = {str(bj.apply("omega_f", pi))
                        for pi in enumerate_avoiders(n, ((2, 3, 1),))}
            l_images = {str(bj.apply("omega_l", pi))
                        for pi in enumerate_avoiders(n, ((2, 3, 1),))}
            assert f_images == paths
            assert l_images == paths

    def test_psi_is_onto_two_motzkin(self):
        for m in range(1, 7):
            images = {bj.psi(p).steps for p in iter_dyck_paths(m)}
            expected = {a.steps for a in iter_two_motzkin(m - 1)}
            assert images == expected

    def test_rlmax_images_end_in_one(self):
        for n in range(1, 7):
            for pi in enumerate_avoiders(n, ((1, 2, 3), (1, 3, 2))):
                assert bj.apply("phi_123_132", pi).bits.endswith("1")
            for pi in enumerate_avoiders(n, ((1, 3, 2), (2, 1, 3))):
                assert bj.apply("phi_132_213", pi).bits.endswith("1")


def refused_images(forward, b, n):
    """The objects of `b`'s domain at size n whose image under `forward`
    the public constructor of its type refuses or rebuilds unequal.  The
    maps build their images unchecked, so this sweep is where the words
    they build are held to the constructors' checks."""
    refused = []
    for x in bj._domain_objects(b, n):
        y = forward(x)
        assert type(y) in (DyckPath, TwoMotzkinPath, BinaryWord)
        try:
            ok = type(y)(*y._key()) == y
        except ValueError:
            ok = False
        if not ok:
            refused.append(x)
    return refused


class TestImageSweep:
    @pytest.mark.parametrize("name", sorted(bj.BIJECTIONS))
    def test_every_image_to_eight_passes_its_constructor(self, name):
        b = bj.BIJECTIONS[name]
        for n in range(b.min_length, 9):
            assert refused_images(b.forward, b, n) == [], n

    def test_every_dyck_path_to_eight_passes_its_constructor(self):
        for m in range(9):
            paths = list(iter_dyck_paths(m))
            assert [DyckPath(p.steps) for p in paths] == paths
            assert len(set(paths)) == catalan(m)

    def test_planted_chi_without_its_last_d_fails(self):
        def forward(pi):
            return DyckPath._trusted(bj.chi(pi).steps[:-1])

        b = bj.BIJECTIONS["chi"]
        for n in range(1, 9):
            assert len(refused_images(forward, b, n)) == catalan(n)


class TestStatisticTransfer:
    @pytest.mark.parametrize("name,n,population", [
        ("omega_f", 7, 429),
        ("chi", 6, 132),
        ("phi_231_321", 8, 128),
    ])
    def test_stated_populations_all_pass(self, name, n, population):
        report = bj.verify_transfer(name, n)
        assert report.population == population
        assert report.all_pass()

    @pytest.mark.parametrize("name", sorted(bj.BIJECTIONS))
    def test_all_transfers_to_six(self, name):
        b = bj.BIJECTIONS[name]
        for n in range(b.min_length, 7):
            assert bj.verify_transfer(name, n).all_pass()

    def test_report_serializes(self):
        report = bj.verify_transfer("psi", 4)
        data = report.to_json()
        assert data["population"] == catalan(4)
        assert all(r["failures"] == 0 for r in data["identities"])


class TestFailureCounts:
    """Broken records, wrong on known inputs, must be counted exactly."""

    def test_transfer_counts_each_failure(self, monkeypatch):
        def backward(path):  # wrong on the avoiders starting with 1
            pi = bj.chi_inv(path)
            return pi[::-1] if pi[0] == 1 else pi

        monkeypatch.setitem(bj.BIJECTIONS, "chi", bj.BIJECTIONS["chi"]._replace(
            backward=backward,
            identities=(("starts with 1", lambda pi: pi[0] == 1,
                         lambda p: True),
                        ("is not 321", lambda x: x[::-1] != (3, 2, 1),
                         lambda p: True))))
        report = bj.verify_transfer("chi", 3)
        # the 321-avoiders of length 3 are 123, 132, 213, 231, 312
        assert report.population == 5
        assert report.round_trip_failures == 2  # 123, 132
        assert [tuple(r) for r in report.identities] == [
            ("starts with 1", 5, 3),  # 213, 231, 312
            ("is not 321", 5, 1),  # among the 123-avoiders, 321 itself
        ]
        assert not report.all_pass()

    def test_broken_composite_prints_a_fail_line(self, monkeypatch, capsys):
        # the identity permutation has no big descent, so the composite fails
        # on the {213, 231}-avoiders that have one: 312 alone up to length 3
        monkeypatch.setitem(
            bj.BIJECTIONS, "phi_213_312", bj.BIJECTIONS["phi_213_312"]._replace(
                backward=lambda w: tuple(range(1, len(w.bits) + 2))))
        assert main(["verify", "--scope", "bijections", "--max-n", "3"]) == 1
        lines = capsys.readouterr().out.splitlines()
        label = "composite:phi_213_312^-1 . phi_213_231"
        assert f"ok   {label} (n=2, population=2)" in lines
        assert f"FAIL {label} (n=3, population=4) -- 1 failures" in lines


class TestOnePass:
    """Each bijection check enumerates its domain and applies its map once
    per object."""

    @staticmethod
    def count_walks(monkeypatch):
        """The (n, patterns) of every walk of the avoider stream."""
        calls = []
        stream = perms.avoider_stream

        def counting(n, patterns, limits):
            calls.append((n, patterns))
            return stream(n, patterns, limits)

        monkeypatch.setattr(perms, "avoider_stream", counting)
        return calls

    def test_planted_non_injective_omega_f_fails_both_rows(self, monkeypatch):
        def forward(pi):  # the identity goes where the decreasing one goes
            if pi == tuple(range(1, len(pi) + 1)):
                pi = pi[::-1]
            return bj.omega_f(pi)

        monkeypatch.setitem(bj.BIJECTIONS, "omega_f",
                            bj.BIJECTIONS["omega_f"]._replace(forward=forward))
        rows = {(r.name, r.n): r for r in verify.check_bijections(4)}
        for n in range(5):
            distinct = len({str(forward(pi))
                            for pi in enumerate_avoiders(n, ((2, 3, 1),))})
            transfer = rows["bijection:omega_f", n]
            onto = rows["bijection:omega_f:onto-dyck", n]
            assert distinct == (catalan(n) - 1 if n >= 2 else 1)
            assert transfer.ok == onto.ok == (n < 2)
            assert onto.population == catalan(n)
            if n >= 2:
                assert transfer.witness.startswith("1 round-trip failures; ")
                assert onto.witness == f"{distinct} distinct images"
            assert rows["bijection:omega_l:onto-dyck", n].ok

    def test_transfer_enumerates_once_and_maps_each_object_once(
            self, monkeypatch):
        calls = []

        def counting(pi):
            calls.append(pi)
            return bj.chi(pi)

        monkeypatch.setitem(bj.BIJECTIONS, "chi",
                            bj.BIJECTIONS["chi"]._replace(forward=counting))
        walks = self.count_walks(monkeypatch)
        report = bj.verify_transfer("chi", 7)
        assert report.all_pass()
        assert walks == [(7, ((3, 2, 1),))]
        assert len(calls) == report.population == catalan(7) == 429

    def test_check_bijections_enumerations(self, monkeypatch):
        # one per transfer of a permutation domain (omega_f, omega_l and chi
        # at n = 0..7, the five phi at n = 1..7); the onto-Dyck rows reuse
        # the omega transfers, and the composite rows their first map's
        walks = self.count_walks(monkeypatch)
        assert all(r.ok for r in verify.check_bijections(7))
        assert len(walks) == 3 * 8 + 5 * 7 == 59


class TestComposites:
    def test_bdes_preserving_between_pair_classes(self):
        for n in range(1, 7):
            for pi in enumerate_avoiders(n, ((2, 1, 3), (2, 3, 1))):
                image = bj.phi_213_312_inv(bj.apply("phi_213_231", pi))
                assert bdes(image) == bdes(pi)
            for pi in enumerate_avoiders(n, ((1, 2, 3), (1, 3, 2))):
                image = bj.phi_132_213_inv(bj.apply("phi_123_132", pi))
                assert bdes(image) == bdes(pi)

    def test_reversal_carries_123_to_321(self):
        for n in range(7):
            for pi in enumerate_avoiders(n, ((1, 2, 3),)):
                mu = bj.apply("chi", pi[::-1])  # raises if not 321-avoiding
                assert mu.semilength == n
