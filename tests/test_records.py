"""The package's immutable value types: records and validated paths, words
and expansions."""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bigdescents import conjectures, genfun
from bigdescents.bijections import (BIJECTIONS, Bijection, IdentityResult,
                                    TransferReport, verify_transfer)
from bigdescents.cli import _with_max_n, main
from bigdescents.config import DEFAULT_LIMITS, Limits, load_limits
from bigdescents.conjectures import (RowProperty, ScanRecord, ScanReport,
                                     conjecture_scan)
from bigdescents.genfun import GFRoutes
from bigdescents.paths import BinaryWord, DyckPath, TwoMotzkinPath
from bigdescents.perms import (DistributionTable, distribution_table,
                               format_permutation, parse_pattern_set,
                               parse_permutation)
from bigdescents.symfunc import QsymExpansion, SymExpansion
from bigdescents.values import Value
from bigdescents.verify import CheckResult
from bigdescents.wilf import ClassComparison, PartitionReport

SRC = Path(__file__).resolve().parents[1] / "src"

# (type, a function building one value afresh on each call, one field)
VALUES = [
    (Limits, lambda: Limits(qsym_guard=9), "qsym_guard"),
    (DistributionTable, lambda: distribution_table(4, [(1, 3, 2)], "bdes"),
     "counts"),
    (CheckResult, lambda: CheckResult(name="c", n=3, population=5, ok=True),
     "ok"),
    (ClassComparison, lambda: ClassComparison(((1, 3, 2),), ((2, 3, 1),),
                                              True, None), "witness_n"),
    (PartitionReport, lambda: PartitionReport(3, (ClassComparison(
        ((1, 3, 2),), ((2, 1, 3),), False, 3),)), "comparisons"),
    (IdentityResult, lambda: IdentityResult("pk", 14, 0), "failures"),
    (TransferReport, lambda: verify_transfer("psi", 4), "population"),
    (Bijection, lambda: BIJECTIONS["chi"]._replace(), "forward"),
    (ScanRecord, lambda: ScanRecord(((1, 2, 3),), 4, True, True, None),
     "holds"),
    (ScanReport, lambda: conjecture_scan("log_concave", 4), "records"),
    (RowProperty, lambda: RowProperty(conjectures._unimodal_witness),
     "witness"),
    (GFRoutes, lambda: GFRoutes(genfun.catalan), "closed"),
    (DyckPath, lambda: DyckPath("UUDUDD"), "steps"),
    (TwoMotzkinPath, lambda: TwoMotzkinPath(("h1", "u", "h0", "d")), "steps"),
    (BinaryWord, lambda: BinaryWord("0110"), "bits"),
    (QsymExpansion, lambda: QsymExpansion(3, {(1, 2): 2}), "coeffs"),
    (SymExpansion, lambda: SymExpansion(n=3, coeffs={(2, 1): 1}), "coeffs"),
]
UNHASHABLE = (QsymExpansion, SymExpansion)  # they hold a coefficient dict
IDS = [kind.__name__ for kind, _, _ in VALUES]


@pytest.mark.parametrize("kind, make, field", VALUES, ids=IDS)
def test_fields_cannot_be_assigned(kind, make, field):
    value = make()
    assert type(value) is kind
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))


@pytest.mark.parametrize("kind, make, field", VALUES, ids=IDS)
def test_equal_values_are_equal_and_hash_equal(kind, make, field):
    a, b = make(), make()
    assert a is not b and a == b and not a != b
    if kind in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)


@pytest.mark.parametrize("make, other", [
    (lambda: DyckPath("UD"), lambda: DyckPath("UUDD")),
    (lambda: TwoMotzkinPath(("h0",)), lambda: TwoMotzkinPath(("h1",))),
    (lambda: BinaryWord("01"), lambda: BinaryWord("10")),
    (lambda: QsymExpansion(2, {(2,): 1}), lambda: QsymExpansion(2, {(2,): 2})),
    (lambda: SymExpansion(2, {(2,): 1}), lambda: SymExpansion(2, {(2,): 2})),
], ids=["DyckPath", "TwoMotzkinPath", "BinaryWord", "QsymExpansion",
        "SymExpansion"])
def test_validated_types_compare_by_value_and_type(make, other):
    assert make() != other()
    assert make() != str(make())


# Values of all five validated types, with cross-type pairs whose fields are
# equal: the empty Dyck and binary words, and one coefficient map as a qsym
# and as a Schur expansion.
CONTRACT_VALUES = [
    DyckPath(""), DyckPath("UD"), DyckPath("UUDD"), DyckPath("UDUD"),
    TwoMotzkinPath(()), TwoMotzkinPath(("h0",)), TwoMotzkinPath(("h1",)),
    TwoMotzkinPath(("u", "d")),
    BinaryWord(""), BinaryWord("01"), BinaryWord("10"), BinaryWord("1"),
    QsymExpansion(2, {(2,): 1}), QsymExpansion(2, {(2,): 2}),
    QsymExpansion(2, {(2,): 1, (1, 1): 3}), QsymExpansion(0, {}),
    SymExpansion(2, {(2,): 1}), SymExpansion(2, {(2,): 1, (1, 1): 3}),
    SymExpansion(0, {}),
]


def _fields(value):
    return tuple(getattr(value, name) for name in value._fields)


def _warm_caches(value):
    if isinstance(value, DyckPath):
        value.statistics
    elif isinstance(value, TwoMotzkinPath):
        value.step_counts()


@pytest.mark.parametrize("warm", [False, True], ids=["fresh", "cached"])
def test_value_contract_across_types(warm):
    """Equal exactly when type and fields are equal, in both directions;
    != negates ==; equal hashable values hash equal; a cached path
    statistic changes none of it."""
    for a in CONTRACT_VALUES:
        for b in CONTRACT_VALUES:
            copy = type(b)(*_fields(b))
            if warm:
                _warm_caches(copy)
            same = type(a) is type(b) and _fields(a) == _fields(b)
            assert (a == copy) is same and (copy == a) is same, (a, b)
            assert (a != copy) is (not same) and (copy != a) is (not same)
            if same and not isinstance(a, UNHASHABLE):
                assert hash(a) == hash(copy)


def test_empty_words_of_two_types_are_unequal():
    assert BinaryWord("") != DyckPath("") and DyckPath("") != BinaryWord("")
    assert not BinaryWord("") == DyckPath("")
    assert not DyckPath("") == BinaryWord("")
    assert TwoMotzkinPath(()) != DyckPath("")


def test_cached_path_statistics_leave_equality_and_hash_alone():
    dyck, motzkin = DyckPath("UUDUDD"), TwoMotzkinPath(("u", "h1", "d"))
    before = hash(dyck), hash(motzkin)
    dyck.statistics
    motzkin.step_counts()
    assert (hash(dyck), hash(motzkin)) == before
    assert dyck == DyckPath("UUDUDD") and DyckPath("UUDUDD") == dyck
    assert motzkin == TwoMotzkinPath(("u", "h1", "d"))
    assert repr(motzkin) == "TwoMotzkinPath(steps=('u', 'h1', 'd'))"


# the exact repr of each validated type's value in VALUES
REPRS = {
    DyckPath: "DyckPath(steps='UUDUDD')",
    TwoMotzkinPath: "TwoMotzkinPath(steps=('h1', 'u', 'h0', 'd'))",
    BinaryWord: "BinaryWord(bits='0110')",
    QsymExpansion: "QsymExpansion(n=3, coeffs={(1, 2): 2})",
    SymExpansion: "SymExpansion(n=3, coeffs={(2, 1): 1})",
}


@pytest.mark.parametrize("kind, make, field", [
    pytest.param(*row, id=row[0].__name__) for row in VALUES if row[0] in REPRS])
def test_validated_types_repr_and_refuse_assignment(kind, make, field):
    value = make()
    assert repr(value) == REPRS[kind]
    with pytest.raises(AttributeError) as refused:
        setattr(value, field, None)
    assert str(refused.value) == (
        f"{kind.__name__} is immutable; cannot set '{field}'")


def test_paths_and_words_are_not_tuples():
    # the CLI prints a bijection's result as a permutation iff it is a tuple
    values = (DyckPath("UD"), TwoMotzkinPath(("h0",)), BinaryWord("1"))
    assert not any(isinstance(value, tuple) for value in values)
    assert [len(value) for value in values] == [2, 1, 1]


def test_dyck_statistics_cache_is_outside_equality():
    a, b = DyckPath("UUDDUD"), DyckPath("UUDDUD")
    assert a.statistics["pk"] == 2
    assert a == b and hash(a) == hash(b)
    assert str(a) == "UUDDUD"


# -- every input is refused or round-trips ---------------------------------
#
# Each case is (inputs, build, well_formed, show).  `well_formed` is a
# specification written apart from the package: `build` must accept exactly
# the inputs it holds for and refuse the rest with ValueError or TypeError.
# An accepted value must equal the value rebuilt from its fields, and `show`
# (when given) must print it as text that `build` reads back to it.

def _walk(word, up, down, letters) -> bool:
    return (set(word) <= letters and word.count(up) == word.count(down)
            and all(word[:i].count(up) >= word[:i].count(down)
                    for i in range(len(word))))


def _permutation_text(text: str) -> bool:
    text = text.strip()
    parts = text.split(",") if "," in text else list(text)
    if not all(part.strip().isdigit() for part in parts):
        return False
    return sorted(map(int, parts)) == list(range(1, len(parts) + 1))


def _pattern_set_text(text: str) -> bool:
    parts = [part.strip() for part in text.split(",")] if text.strip() else []
    return all(part.isdigit() and _permutation_text(part) for part in parts)


def _expansion(n, coeffs, partitions: bool) -> bool:
    return n >= 0 and all(
        sum(key) == n and all(part >= 1 for part in key)
        and (not partitions or list(key) == sorted(key, reverse=True))
        for key in coeffs)


def _words(letters, **kw):
    return st.lists(st.sampled_from(list(letters)), max_size=8, **kw)


_TOKENS = ("u", "d", "h0", "h1", "h2")
_PERMUTATIONS = st.integers(0, 11).flatmap(
    lambda n: st.permutations(range(1, n + 1))).map(format_permutation)
_TEXT = st.text("0123456789, ", max_size=12)
_EXPANSIONS = st.tuples(
    st.integers(-2, 6),
    st.dictionaries(st.lists(st.integers(-1, 4), max_size=4).map(tuple),
                    st.integers(-2, 2), max_size=3))

INPUT_CASES = {
    "DyckPath": (
        st.one_of(_words("UDx").map("".join), _words("UD").map(tuple)),
        DyckPath, lambda w: type(w) is str and _walk(w, "U", "D", set("UD")),
        str),
    "TwoMotzkinPath": (
        st.one_of(_words(_TOKENS).map(tuple), _words(_TOKENS),
                  _words("udh").map("".join)),
        TwoMotzkinPath,
        lambda w: type(w) is tuple and _walk(w, "u", "d", set(_TOKENS[:4])),
        None),
    "BinaryWord": (
        st.one_of(_words("012").map("".join), _words(("0", "1", "01")).map(tuple)),
        BinaryWord, lambda w: type(w) is str and set(w) <= set("01"), str),
    "QsymExpansion": (
        _EXPANSIONS, lambda a: QsymExpansion(*a),
        lambda a: _expansion(*a, partitions=False), None),
    "SymExpansion": (
        _EXPANSIONS, lambda a: SymExpansion(*a),
        lambda a: _expansion(*a, partitions=True), None),
    "parse_permutation": (
        st.one_of(_TEXT, _PERMUTATIONS), parse_permutation, _permutation_text,
        format_permutation),
    "parse_pattern_set": (
        st.one_of(_TEXT, st.lists(_PERMUTATIONS.filter(lambda p: len(p) <= 4),
                                  max_size=3).map(",".join)),
        parse_pattern_set, _pattern_set_text,
        lambda ps: ",".join(map(format_permutation, ps))),
    "TwoMotzkinPath.parse": (
        st.one_of(_words(_TOKENS).map(" ".join), st.text("udh01 ", max_size=10)),
        TwoMotzkinPath.parse,
        lambda text: _walk(tuple(text.split()), "u", "d", set(_TOKENS[:4])),
        str),
}


@pytest.mark.parametrize("case", sorted(INPUT_CASES))
@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_input_is_refused_or_round_trips(case, data):
    inputs, build, well_formed, show = INPUT_CASES[case]
    x = data.draw(inputs)
    if not well_formed(x):
        with pytest.raises((ValueError, TypeError)):
            build(x)
        return
    value = build(x)
    if isinstance(value, Value):
        fields = {name: getattr(value, name) for name in value._fields}
        assert type(value)(**fields) == value
        assert isinstance(str(value), str)
    if show is not None:
        assert build(show(value)) == value


def test_invalid_input_is_refused_under_python_O():
    # the refusals are raises, not asserts, so -O keeps them
    script = (
        "from bigdescents.paths import BinaryWord, DyckPath, TwoMotzkinPath\n"
        "from bigdescents.symfunc import QsymExpansion, SymExpansion\n"
        "bad = [lambda: DyckPath('DU'), lambda: TwoMotzkinPath(('d', 'u')),\n"
        "       lambda: BinaryWord('012'),\n"
        "       lambda: QsymExpansion(3, {(1, 1): 1}),\n"
        "       lambda: SymExpansion(3, {(1, 2): 1})]\n"
        "refused = 0\n"
        "for make in bad:\n"
        "    try:\n"
        "        make()\n"
        "    except ValueError:\n"
        "        refused += 1\n"
        "print(refused)\n")
    out = subprocess.run([sys.executable, "-B", "-O", "-c", script], check=True,
                         capture_output=True, text=True,
                         env={"PYTHONPATH": str(SRC)}).stdout
    assert out.strip() == "5"


def test_load_limits_refuses_unknown_keys_and_non_positive_guards(tmp_path):
    cfg = tmp_path / "limits.json"
    cfg.write_text(json.dumps({"qsym_guard": 9, "bfile_offset": 0}))
    assert load_limits(str(cfg)) == DEFAULT_LIMITS._replace(qsym_guard=9,
                                                            bfile_offset=0)
    cfg.write_text(json.dumps({"qsym_gaurd": 9}))
    with pytest.raises(ValueError, match=r"unknown config keys: \['qsym_gaurd'\]"):
        load_limits(str(cfg))
    for field in set(Limits._fields) - {"bfile_offset"}:
        cfg.write_text(json.dumps({field: 0}))
        with pytest.raises(ValueError, match=f"guard {field} must be positive"):
            load_limits(str(cfg))


@pytest.mark.parametrize("name,content", [
    pytest.param("missing.json", None, id="missing-file"),
    pytest.param("", None, id="directory"),
    pytest.param("limits.json", b'{"qsym_guard": 9,', id="malformed-json"),
    pytest.param("limits.json", b"\xff", id="not-utf-8"),
])
def test_unreadable_config_exits_2(tmp_path, capsys, name, content):
    path = str(tmp_path / name)
    if content is not None:
        (tmp_path / name).write_bytes(content)
    with pytest.raises(ValueError, match="cannot read config"):
        load_limits(path)
    assert main(["--config", path, "formula", "--id", "b231", "--n", "3",
                 "--k", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"invalid input: cannot read config {path!r}")


@pytest.mark.parametrize("data", ["abc", 5, [1]])
def test_config_that_is_not_an_object_exits_2(tmp_path, capsys, data):
    cfg = tmp_path / "limits.json"
    cfg.write_text(json.dumps(data))
    message = f"config {str(cfg)!r} must hold a JSON object"
    with pytest.raises(ValueError, match=re.escape(message)):
        load_limits(str(cfg))
    assert main(["--config", str(cfg), "formula", "--id", "b231", "--n", "3",
                 "--k", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"invalid input: {message}")


@pytest.mark.parametrize("value", [True, False, 9.5, 9.0, "9", None, [9]])
@pytest.mark.parametrize("field", ["qsym_guard", "bfile_offset"])
def test_load_limits_refuses_non_integers(tmp_path, field, value):
    cfg = tmp_path / "limits.json"
    cfg.write_text(json.dumps({field: value}))
    with pytest.raises(ValueError, match=f"guard {field} must be an integer"):
        load_limits(str(cfg))


def test_max_n_overrides_the_three_enumeration_guards(tmp_path, capsys):
    lifted = _with_max_n(Limits(series_order=5), 3)
    assert lifted == Limits(avoider_guard_empty=3, avoider_guard_patterns=3,
                            qsym_guard=3, series_order=5)
    assert _with_max_n(DEFAULT_LIMITS, None) is DEFAULT_LIMITS
    cfg = tmp_path / "limits.json"
    cfg.write_text(json.dumps({"avoider_guard_empty": 2,
                               "avoider_guard_patterns": 2}))
    for patterns in ("", "123"):
        assert main(["--config", str(cfg), "table", "--patterns", patterns,
                     "--n", "4"]) == 3
        assert main(["--config", str(cfg), "table", "--patterns", patterns,
                     "--n", "4", "--max-n", "4"]) == 0
    assert capsys.readouterr().out.split() == "8 14 2 0 0 4 8 2 0 0".split()
    # --max-n is validated like a config value: exit 2, not the guard's 3
    for command in ("table", "qsym"):
        for max_n in ("0", "-1"):
            assert main([command, "--patterns", "231", "--n", "0",
                         "--max-n", max_n]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("guard avoider_guard_empty must be positive") == 4
