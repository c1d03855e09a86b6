import hashlib
import json
import time

import pytest

from bigdescents import conjectures, symfunc
from bigdescents.bijections import BIJECTIONS
from bigdescents.cli import _build_parser, main
from bigdescents.conjectures import SCANS
from bigdescents.perms import enumerate_avoiders, format_permutation, statistic
from bigdescents.verify import SCOPES


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTable:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "table", "--patterns", "231", "--n", "8",
                           "--stat", "bdes")
        assert code == 0
        assert out.strip() == "128 672 560 70 0 0 0 0 0"

    def test_pair_class(self, capsys):
        code, out, _ = run(capsys, "table", "--patterns", "132,321",
                           "--n", "6", "--stat", "bdes")
        assert code == 0
        assert out.split() == ["2", "14", "0", "0", "0", "0", "0"]

    def test_empty_patterns_is_full_group(self, capsys):
        code, out, _ = run(capsys, "table", "--patterns", "", "--n", "4",
                           "--stat", "bdes")
        assert code == 0
        counts = list(map(int, out.split()))
        assert sum(counts) == 24
        from bigdescents.genfun import eulerian_r
        want = eulerian_r(4, 1)
        assert counts[:len(want)] == want

    def test_json(self, capsys):
        code, out, _ = run(capsys, "table", "--patterns", "213,231",
                           "--n", "7", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["patterns"] == ["213", "231"]
        assert data["counts"] == [7, 35, 21, 1, 0, 0, 0, 0]

    def test_bfile(self, capsys):
        code, out, _ = run(capsys, "table", "--patterns", "231", "--n", "4",
                           "--format", "bfile")
        assert code == 0
        lines = out.strip().splitlines()
        # rows 1 / 1 / 2 / 4 1 / 8 6 flattened with 1-based indices
        assert lines[0] == "1 1"
        values = [int(line.split()[1]) for line in lines]
        assert values == [1, 1, 2, 4, 1, 8, 6]
        indices = [int(line.split()[0]) for line in lines]
        assert indices == list(range(1, 8))

    def test_invalid_stat_exit_code(self, capsys):
        code, _, err = run(capsys, "table", "--patterns", "132", "--n", "3",
                           "--stat", "sideways")
        assert code == 2


# The --stat grammar: each registered name, des_r(r) and its shorthand des_k,
# with blanks around the name (and around r) ignored.
ACCEPTED_STATS = ["des", "bdes", "sdes", "lddes", "pk", "rbdes", "basc",
                  "lbasc", "hibasc", "lobasc", "des_r(2)", "des_3", "des_01",
                  " bdes ", "des_r( 1 )"]
REJECTED_STATS = ["zigzag", "des_", "des_r(-1)", "Des_r(1)", "sideways",
                  "des_r(x)", "des_\u00b2"]


@pytest.mark.parametrize("stat", ACCEPTED_STATS)
def test_stat_grammar_accepts(capsys, stat):
    code, out, _ = run(capsys, "table", "--patterns", "", "--n", "6",
                       "--stat", stat, "--format", "json")
    assert code == 0
    want = [0] * 7
    for pi in enumerate_avoiders(6, ()):
        want[statistic(pi, stat)] += 1
    data = json.loads(out)
    assert data["counts"] == want
    assert data["stat"] == stat  # the user's string, unstripped


@pytest.mark.parametrize("stat", REJECTED_STATS)
def test_stat_grammar_rejects(capsys, stat):
    code, out, err = run(capsys, "table", "--patterns", "", "--n", "3",
                         "--stat", stat)
    assert (code, out) == (2, "")
    assert err.startswith("invalid input:")
    assert ("r must be non-negative" if stat == "des_r(-1)"
            else "unknown statistic") in err


def test_which_choices_name_the_scans(capsys):
    (subparsers,) = [a for a in _build_parser()._actions
                     if a.dest == "command"]
    (which,) = [a for a in subparsers.choices["conjecture"]._actions
                if a.dest == "which"]
    assert which.choices == ["real-rooted", "log-concave", "unimodal",
                             "schur-positive"]
    for name in which.choices:
        code, out, _ = run(capsys, "conjecture", "--which", name,
                           "--max-n", "1", "--format", "json")
        assert json.loads(out)["which"] == name.replace("-", "_")


class TestSeries:
    def test_text_rows(self, capsys):
        code, out, _ = run(capsys, "series", "--id", "B231_321",
                           "--order", "9")
        assert code == 0
        assert "9: 55 + 147*t + 53*t^2 + t^3" in out

    def test_both_routes(self, capsys):
        code, out, _ = run(capsys, "series", "--id", "B132", "--order", "7",
                           "--route", "both")
        assert code == 0

    def test_r_parameter(self, capsys):
        code, out, _ = run(capsys, "series", "--id", "R_run", "--order", "5",
                           "--r", "2")
        assert code == 0
        assert out.startswith("0: 1")

    def test_json(self, capsys):
        code, out, _ = run(capsys, "series", "--id", "B123_321",
                           "--order", "4", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["order"] == 4
        assert data["rows"][3] == {"n": 3, "poly": "2 + 2*t"}

    def test_f_routes_print_the_same_series(self, capsys):
        # no --route takes F's registered default, the quadratic fixed point
        outputs = [run(capsys, "series", "--id", "F", "--order", "6", *route)
                   for route in ((), ("--route", "closed"), ("--route", "both"))]
        assert outputs[0][0] == 0 and outputs[0][1]
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]

    def test_order_zero(self, capsys):
        code, out, _ = run(capsys, "series", "--id", "B132", "--order", "0",
                           "--route", "both")
        assert code == 0
        assert out == "0: 1\n"

    def test_missing_r_is_invalid(self, capsys):
        code, _, err = run(capsys, "series", "--id", "R_run", "--order", "5")
        assert code == 2

    @pytest.mark.parametrize("route", [(), ("--route", "functional"),
                                       ("--route", "closed")])
    @pytest.mark.parametrize("gf_id", ["F", "V"])
    def test_r_is_refused_without_needs_r(self, capsys, gf_id, route):
        code, out, err = run(capsys, "series", "--id", gf_id, "--order", "3",
                             "--r", "5", *route)
        assert code == 2 and out == ""
        assert f"{gf_id} takes no r parameter" in err


class TestBijection:
    def test_apply(self, capsys):
        code, out, _ = run(capsys, "bijection", "--id", "chi",
                           "--apply", "2413756")
        assert code == 0 and out.strip() == "UUDUUDDDUUUDDD"

    def test_invert(self, capsys):
        code, out, _ = run(capsys, "bijection", "--id", "chi",
                           "--invert", "UUDUUDDDUUUDDD")
        assert code == 0 and out.strip() == "2413756"

    def test_psi_tokens(self, capsys):
        code, out, _ = run(capsys, "bijection", "--id", "psi",
                           "--invert", "h1 u h1 h0 u d d")
        assert code == 0 and out.strip() == "UDUUDUUUDUDDUDDD"

    @pytest.mark.parametrize("name", sorted(BIJECTIONS))
    def test_invert_parses_every_codomain(self, capsys, name):
        # Dyck paths (omega_f, omega_l, chi), 2-Motzkin paths (psi) and
        # binary words (the phi maps): each read back by its registry parser.
        b = BIJECTIONS[name]
        if b.domain_patterns is None:
            x = "UUDUDDUD"
        else:
            x = format_permutation(list(enumerate_avoiders(5, b.domain_patterns))[-1])
        code, image, _ = run(capsys, "bijection", "--id", name, "--apply", x)
        assert code == 0
        code, back, _ = run(capsys, "bijection", "--id", name,
                            "--invert", image.strip())
        assert code == 0 and back.strip() == x

    def test_verify_report(self, capsys):
        code, out, _ = run(capsys, "bijection", "--id", "omega_f",
                           "--verify-n", "6", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["population"] == 132
        assert data["round_trip_failures"] == 0

    def test_verify_lists_the_composite(self, capsys, monkeypatch):
        # phi_132_213^-1 . phi_123_132 preserves bdes on the 2^5 avoiders of
        # {123, 132} of length 6; an inverse planted to return the identity
        # permutation fails on those with a big descent
        argv = ("bijection", "--id", "phi_123_132", "--verify-n", "6")
        label = "  bdes <-> bdes of phi_132_213^-1"
        code, out, _ = run(capsys, *argv)
        assert code == 0 and f"{label}: 0 failures / 32" in out.splitlines()
        monkeypatch.setitem(BIJECTIONS, "phi_132_213", BIJECTIONS[
            "phi_132_213"]._replace(backward=lambda w: tuple(
                range(1, len(w.bits) + 1))))
        bad = sum(statistic(pi, "bdes") > 0 for pi in
                  enumerate_avoiders(6, ((1, 2, 3), (1, 3, 2))))
        code, out, _ = run(capsys, *argv)
        assert code == 1 and 0 < bad < 32
        assert f"{label}: {bad} failures / 32" in out.splitlines()

    def test_domain_violation_is_invalid_input(self, capsys):
        code, _, err = run(capsys, "bijection", "--id", "chi",
                           "--apply", "321")
        assert code == 2


class TestQsym:
    def test_schur(self, capsys):
        code, out, _ = run(capsys, "qsym", "--patterns", "123", "--n", "5")
        assert code == 0
        assert out.strip() == "s(2,2,1)+4s(3,2)+3s(4,1)+5s(5)"

    def test_schur_1234(self, capsys):
        code, out, _ = run(capsys, "qsym", "--patterns", "1234", "--n", "4")
        assert code == 0
        assert out.strip() == "2s(2,2)+4s(3,1)+7s(4)"

    def test_empty_patterns(self, capsys):
        code, out, _ = run(capsys, "qsym", "--patterns", "", "--n", "7")
        assert code == 0
        assert out.strip().endswith("+64s(7)")

    def test_monomial_and_fundamental(self, capsys):
        code, out, _ = run(capsys, "qsym", "--patterns", "123", "--n", "3",
                           "--basis", "monomial", "--format", "json")
        assert code == 0
        assert json.loads(out)["symmetric"] is True
        code, out, _ = run(capsys, "qsym", "--patterns", "123", "--n", "3",
                           "--basis", "fundamental", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert [[3], 3] in data["coeffs"]  # three avoiders with no big descent

    def test_non_symmetric_schur_fails(self, capsys):
        # single-pattern 132 sums stop being symmetric at weight 4
        code, out, err = run(capsys, "qsym", "--patterns", "132", "--n", "4")
        assert (code, out) == (1, "")
        assert err == ("not symmetric: M-coefficients differ on (1, 1, 2) vs "
                       "(1, 2, 1); Schur basis unavailable\n")

    def test_max_n_sets_every_guard(self, tmp_path, capsys):
        # n = 9 is over both the default qsym_guard and the config's avoider
        # guard; --max-n 9 lifts the two
        cfg = tmp_path / "limits.json"
        cfg.write_text('{"avoider_guard_patterns": 5}')
        code, out, _ = run(capsys, "--config", str(cfg), "qsym",
                           "--patterns", "123", "--n", "9", "--max-n", "9")
        assert code == 0 and out.strip().endswith("s(9)")


def count_symmetry_checks(monkeypatch):
    """Count the Schur expansions that `qsym` and the Schur scan start and
    the symmetry checks run, through every name that reaches them."""
    calls = {"expand": 0, "witness": 0}

    def counted(module, name, key):
        real = getattr(module, name)

        def wrapper(*args):
            calls[key] += 1
            return real(*args)

        monkeypatch.setattr(module, name, wrapper)

    for module in (symfunc, conjectures):
        counted(module, "asymmetry_witness", "witness")
        counted(module, "schur_expand", "expand")
    return calls


class TestOneSymmetryCheckPerExpansion:
    """`schur_expand` proves symmetry itself; its callers look for a
    witness pair only once it has refused."""

    def test_qsym_schur(self, monkeypatch, capsys):
        calls = count_symmetry_checks(monkeypatch)
        assert run(capsys, "qsym", "--patterns", "", "--n", "6")[0] == 0
        assert calls == {"expand": 1, "witness": 1}
        assert run(capsys, "qsym", "--patterns", "132", "--n", "4")[0] == 1
        assert calls == {"expand": 2, "witness": 3}

    def test_schur_scan(self, monkeypatch, capsys):
        calls = count_symmetry_checks(monkeypatch)
        assert run(capsys, "conjecture", "--which", "schur-positive",
                   "--max-n", "6")[0] == 0
        assert calls == {"expand": 21, "witness": 21}  # 3 classes, n <= 6

    def test_schur_scan_of_a_non_symmetric_sum(self, monkeypatch, capsys):
        # every target's sum replaced by the 132-avoiders', which stops
        # being symmetric at weight 4; digest recorded when the scan still
        # checked symmetry before expanding
        real = conjectures.qsym_sum
        monkeypatch.setattr(conjectures, "qsym_sum",
                            lambda n, patterns, r, limits:
                            real(n, ((1, 3, 2),), r=r, limits=limits))
        code, out, _ = run(capsys, "conjecture", "--which", "schur-positive",
                           "--max-n", "5")
        assert code == 1
        assert ("FAIL schur_positive patterns=123 n=5 -- not symmetric: "
                "(1, 1, 1, 2) vs (1, 1, 2, 1)") in out.splitlines()
        assert hashlib.sha256(out.encode()).hexdigest() == \
            "ec083c6bec7a27022a8901381472ac7838988f9d90c3093c91b122e260d06a8d"


class TestVerifyAndConjecture:
    def test_verify_crossroutes(self, capsys):
        code, out, _ = run(capsys, "verify", "--scope", "genfun-crossroutes",
                           "--max-n", "6")
        assert code == 0
        assert "9/9 checks passed" in out

    def test_verify_json(self, capsys):
        code, out, _ = run(capsys, "verify", "--scope", "class-equalities",
                           "--max-n", "5", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["pass"] is True

    def test_conjecture_real_rooted(self, capsys):
        code, out, _ = run(capsys, "conjecture", "--which", "real-rooted",
                           "--max-n", "7")
        assert code == 0
        assert "matches predictions" in out

    def test_conjecture_too_small_to_observe_failure(self, capsys):
        # the predicted real-rootedness failure only appears from length 7 on
        code, out, _ = run(capsys, "conjecture", "--which", "real-rooted",
                           "--max-n", "5")
        assert code == 1

    def test_conjecture_one_length_short_of_the_predicted_failure(self, capsys):
        code, out, _ = run(capsys, "conjecture", "--which", "real-rooted",
                           "--max-n", "6")
        assert code == 1
        assert out.endswith("scan outcome DIFFERS from predictions\n")

    @pytest.mark.parametrize("argv", [
        ("verify", "--scope", scope) for scope in (*SCOPES, "all")] + [
        ("conjecture", "--which", which.replace("_", "-")) for which in SCANS],
        ids=lambda argv: argv[-1])
    def test_negative_max_n_is_invalid(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--max-n", "-1")
        assert code == 2 and out == ""
        assert "length must be non-negative" in err

    @pytest.mark.parametrize("name", ["chi", "psi"])
    def test_negative_verify_n_is_invalid(self, capsys, name):
        code, out, err = run(capsys, "bijection", "--id", name,
                             "--verify-n", "-1")
        assert code == 2 and out == ""
        assert "length must be non-negative" in err


class TestFormula:
    def test_values(self, capsys):
        code, out, _ = run(capsys, "formula", "--id", "b231", "--n", "7",
                           "--k", "3")
        assert code == 0 and out.strip() == "5"

    def test_eulerian_poly(self, capsys):
        code, out, _ = run(capsys, "formula", "--id", "eulerian_r",
                           "--n", "4", "--r", "0")
        assert code == 0 and out.strip() == "1 11 11 1"

    def test_eulerian_poly_from_the_closed_base_case(self, capsys):
        # one 10-descent in each of the 11! permutations with 12 just before 1
        code, out, err = run(capsys, "formula", "--id", "eulerian_r",
                             "--n", "12", "--r", "10")
        assert (code, out, err) == (0, "439084800 39916800\n", "")

    def test_joint(self, capsys):
        code, out, _ = run(capsys, "formula", "--id", "b231_joint",
                           "--n", "7", "--j", "3", "--k", "2")
        assert code == 0
        from bigdescents.genfun import b231_joint
        assert out.strip() == str(b231_joint(7, 3, 2))

    def test_missing_argument(self, capsys):
        code, _, err = run(capsys, "formula", "--id", "b231", "--n", "7")
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ("b231", "--n", "-1", "--k", "0"),
        ("b231_312", "--n", "-1", "--k", "0"),
        ("b123_231", "--n", "-2", "--k", "0"),
        ("b123", "--n", "-1", "--k", "0"),
        ("narayana", "--n", "3", "--k", "-1"),
    ])
    def test_negative_argument_exits_2(self, capsys, argv):
        code, out, err = run(capsys, "formula", "--id", *argv)
        assert (code, out) == (2, "")
        assert err.startswith("invalid input:") and "non-negative" in err


class TestDeterminism:
    def test_identical_invocations_identical_output(self, capsys):
        a = run(capsys, "table", "--patterns", "321", "--n", "7",
                "--format", "json")
        b = run(capsys, "table", "--patterns", "321", "--n", "7",
                "--format", "json")
        assert a == b

    def test_qsym_readme_example_unchanged_under_the_guard(self, capsys):
        code, out, _ = run(capsys, "qsym", "--patterns", "123", "--n", "5",
                           "--basis", "schur")
        assert code == 0 and out == "s(2,2,1)+4s(3,2)+3s(4,1)+5s(5)\n"


# Every over-guard job: (config file or None, argv, the guard it names).
# A table job also states the exact size of the class it would enumerate.
_SMALL_PATTERN_GUARD = {"avoider_guard_patterns": 5}
OVER_GUARD_JOBS = [
    pytest.param(None, ("table", "--patterns", "132", "--n", "20"),
                 "avoider_guard_patterns=14 (6564120420 permutations)",
                 id="table-pattern-class"),
    pytest.param(None, ("table", "--patterns", "", "--n", "12"),
                 "avoider_guard_empty=11 (479001600 permutations)",
                 id="table-full-group"),
    pytest.param(None, ("table", "--patterns", "132", "--n", "8",
                        "--max-n", "7"),
                 "avoider_guard_patterns=7 (1430 permutations)", id="table-max-n"),
    pytest.param(_SMALL_PATTERN_GUARD, ("table", "--patterns", "132", "--n", "6"),
                 "avoider_guard_patterns=5 (132 permutations)", id="config-table"),
    pytest.param(None, ("qsym", "--patterns", "", "--n", "9"),
                 "qsym_guard=8", id="qsym"),
    pytest.param(_SMALL_PATTERN_GUARD, ("qsym", "--patterns", "123", "--n", "7"),
                 "avoider_guard_patterns=5", id="config-qsym"),
    pytest.param(_SMALL_PATTERN_GUARD, ("verify", "--max-n", "8"),
                 "avoider_guard_patterns=5", id="config-verify"),
    pytest.param(_SMALL_PATTERN_GUARD,
                 ("conjecture", "--which", "real-rooted", "--max-n", "8"),
                 "avoider_guard_patterns=5", id="config-conjecture"),
    pytest.param(None, ("conjecture", "--which", "schur-positive",
                        "--max-n", "9"),
                 "qsym_guard=8", id="conjecture-schur-positive"),
    pytest.param(_SMALL_PATTERN_GUARD,
                 ("bijection", "--id", "chi", "--verify-n", "6"),
                 "avoider_guard_patterns=5", id="config-bijection-chi"),
    pytest.param(_SMALL_PATTERN_GUARD,
                 ("bijection", "--id", "psi", "--verify-n", "6"),
                 "avoider_guard_patterns=5", id="config-bijection-psi"),
    pytest.param(None, ("bijection", "--id", "psi", "--verify-n", "15"),
                 "avoider_guard_patterns=14", id="bijection-psi"),
    pytest.param(None, ("series", "--id", "F", "--order", "31"),
                 "series_guard=30", id="series"),
    pytest.param(None, ("series", "--id", "F", "--order", "17",
                        "--route", "closed"),
                 "series_guard=16", id="series-f-composition"),
    pytest.param({"series_guard": 10},
                 ("series", "--id", "B132", "--order", "11", "--route", "both"),
                 "series_guard=10", id="config-series"),
    pytest.param({"series_guard": 40},
                 ("series", "--id", "F", "--order", "17", "--route", "closed"),
                 "series_guard=16", id="config-series-f-composition"),
    pytest.param(None, ("formula", "--id", "eulerian_r", "--n", "1700",
                        "--r", "0"),
                 "eulerian_guard=500", id="formula-eulerian-r"),
    pytest.param(None, ("formula", "--id", "carlitz_lhs_coeff", "--n", "400",
                        "--r", "101", "--k", "3"),
                 "eulerian_guard=500", id="formula-carlitz"),
    pytest.param({"eulerian_guard": 10},
                 ("formula", "--id", "eulerian_r", "--n", "11", "--r", "2"),
                 "eulerian_guard=10", id="config-formula-eulerian-r"),
    pytest.param(None, ("formula", "--id", "b231", "--n", "20000",
                        "--k", "3"),
                 "formula_guard=5000", id="formula-b231"),
    pytest.param(None, ("formula", "--id", "b123", "--n", "20000",
                        "--k", "10000"),
                 "formula_guard=5000", id="formula-b123"),
    pytest.param({"formula_guard": 6},
                 ("formula", "--id", "b231", "--n", "7", "--k", "3"),
                 "formula_guard=6", id="config-formula-b231"),
]


@pytest.mark.parametrize("config, argv, guard", OVER_GUARD_JOBS)
def test_over_guard_job_exits_3(tmp_path, capsys, config, argv, guard):
    prefix = ()
    if config is not None:
        cfg = tmp_path / "limits.json"
        cfg.write_text(json.dumps(config))
        prefix = ("--config", str(cfg))
    start = time.monotonic()
    code, out, err = run(capsys, *prefix, *argv)
    elapsed = time.monotonic() - start
    assert code == 3
    assert out == ""
    assert guard in err
    # no guard promises a way past it: a module-constant cap has no Limits field
    assert "pass a larger Limits value" not in err
    assert elapsed < 1.0, "the guard must refuse before any enumeration"
