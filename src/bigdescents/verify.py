"""Cross-verification suites driven by the CLI's verify subcommand.

Each suite runs a family of exhaustive checks and returns uniform records:
name, size parameter, population examined, pass flag, and a witness string on
failure.  The brute-force enumerations act as the trusted oracle against the
formulas, generating functions, and bijections.
"""

from __future__ import annotations

from typing import NamedTuple

from . import genfun, wilf
from .bijections import BIJECTIONS, _domain_objects, verify_transfer
from .config import DEFAULT_LIMITS, Limits
from .perms import (DistributionTable, distribution_rows, format_permutation,
                    tree_rows)


class CheckResult(NamedTuple):
    name: str
    n: int
    population: int
    ok: bool
    witness: str | None = None

    def to_json(self) -> dict:
        out = {"name": self.name, "n": self.n,
               "population": self.population, "pass": self.ok}
        if self.witness is not None:
            out["witness"] = self.witness
        return out


def _result(name, n, population, ok, witness=None) -> CheckResult:
    return CheckResult(name=name, n=n, population=population, ok=ok,
                       witness=None if ok else witness)


def check_class_equalities(max_n: int,
                           limits: Limits = DEFAULT_LIMITS) -> list[CheckResult]:
    report = wilf.class_partition_report(max_n, limits=limits)
    out = []
    for cmp in report.comparisons:
        label = ("equal" if cmp.same_class else "distinct")
        name = (f"class-{label}:"
                f"{'|'.join(map(format_permutation, cmp.left))}"
                f" vs {'|'.join(map(format_permutation, cmp.right))}")
        witness = (f"witness n={cmp.witness_n}" if cmp.witness_n is not None
                   else "no distinguishing length found")
        out.append(_result(name, max_n, max_n + 1, cmp.consistent(), witness))
    return out


def _brute_force_rows(max_n: int, patterns, stat: str,
                      limits: Limits) -> list[tuple[DistributionTable, str]]:
    """The exhaustive tree's tables of lengths 0..max_n, each with a
    mismatch note: the merged walk's counts when `distribution_rows`
    disagrees, "" when it agrees."""
    tree = tree_rows(max_n, patterns, stat, limits=limits)
    merged = distribution_rows(max_n, patterns, stat, limits=limits)
    return [(t, "" if t == m else f"; merged walk {list(m.counts)}")
            for t, m in zip(tree, merged, strict=True)]


def check_formulas(max_n: int,
                   limits: Limits = DEFAULT_LIMITS) -> list[CheckResult]:
    """Every enumeration route against the brute-force distribution, which
    the merged walk behind `distribution_rows` must reproduce as well."""
    out = []
    for label, patterns, rows in wilf.TABLE_CLASS_ROUTES:
        tables = _brute_force_rows(max_n, patterns, "bdes", limits)
        for n, ((table, mismatch), got) in enumerate(
                zip(tables, rows(max_n), strict=True)):
            expected = list(table.counts)
            got = got + [0] * (n + 1 - len(got))
            out.append(_result(
                f"distribution:{label}", n, table.total(),
                got == expected and not mismatch,
                f"formula {got} vs brute force {expected}{mismatch}"))
    # r-Eulerian recurrence against brute force, and the Carlitz identity
    for r in range(3):
        for table, mismatch in _brute_force_rows(min(max_n, 7), (),
                                                 f"des_r({r})", limits):
            rec = genfun.eulerian_r(table.n, r)
            brute = table.poly()
            out.append(_result(f"eulerian-recurrence:r={r}", table.n,
                               table.total(), rec == brute and not mismatch,
                               f"{rec} vs {brute}{mismatch}"))
        for n in range(1, min(max_n, 7) + 1):
            out.append(_result(f"carlitz:r={r}", n, 6,
                               genfun.carlitz_verify(n, r, 6)))
    # bdes over the unrestricted group matches the r=1 Eulerian polynomials
    for table, mismatch in _brute_force_rows(min(max_n, 8), (), "bdes",
                                             limits):
        rec = genfun.eulerian_r(table.n, 1)
        out.append(_result("eulerian-r1-vs-bdes", table.n, table.total(),
                           rec == table.poly() and not mismatch,
                           f"{rec} vs {table.poly()}{mismatch}"))
    return out


def check_bijections(max_n: int,
                     limits: Limits = DEFAULT_LIMITS) -> list[CheckResult]:
    out = []
    reports = {}
    for name, b in sorted(BIJECTIONS.items()):
        for n in range(b.min_length, max_n + 1):
            report = reports[name, n] = verify_transfer(name, n, limits)
            ok = report.all_pass()
            witness = (f"{report.round_trip_failures} round-trip failures; "
                       + "; ".join(f"{r.label}: {r.failures}"
                                   for r in report.identities))
            out.append(_result(f"bijection:{name}", n, report.population,
                               ok, witness))
    # omega maps are bijections onto the Dyck paths of the same semilength:
    # C_n distinct images.  When the transfer's round trip passed, the map is
    # injective on an enumeration that yields each avoider once, so the
    # distinct images number the transfer's population; only a failed round
    # trip sends the row back to enumerate and count the images.
    for name in ("omega_f", "omega_l"):
        b = BIJECTIONS[name]
        for n in range(max_n + 1):
            report = reports[name, n]
            distinct = report.population
            if report.round_trip_failures:
                distinct = len({str(b.forward(pi))
                                for pi in _domain_objects(b, n, limits)})
            expected = genfun.catalan(n)
            out.append(_result(f"bijection:{name}:onto-dyck", n, expected,
                               distinct == expected,
                               f"{distinct} distinct images"))
    # composites that must preserve the big-descent count: identities of
    # their first map's record, read off its transfers
    for first, second in (("phi_213_231", "phi_213_312"),
                          ("phi_123_132", "phi_132_213")):
        for n in range(1, max_n + 1):
            (result,) = [r for r in reports[first, n].identities
                         if r.label == f"bdes <-> bdes of {second}^-1"]
            out.append(_result(f"composite:{second}^-1 . {first}", n,
                               result.population, result.failures == 0,
                               f"{result.failures} failures"))
    return out


def check_genfun_crossroutes(order: int,
                             limits: Limits = DEFAULT_LIMITS) -> list[CheckResult]:
    out = []
    for gf_id, info in sorted(genfun.GF_IDS.items()):
        # pipeline-vs-closed:B123/Bgrave123 already certifies F's default route
        if info.functional is None or info.default == "functional":
            continue
        closed = genfun.expand(gf_id, order, limits=limits)
        functional = genfun.expand_functional(gf_id, order, limits=limits)
        ok = closed.coeffs == functional.coeffs
        witness = next((f"order {i}: {c} vs {f}" for i, (c, f) in
                        enumerate(zip(closed.coeffs, functional.coeffs))
                        if c != f), None)
        out.append(_result(f"dual-route:{gf_id}", order, order + 1, ok, witness))
    for which in ("B123", "Bgrave123"):
        closed = genfun.expand(which, order, limits=limits)
        pipeline = genfun.expand_by_peak_insertion(which, order)
        ok = closed.coeffs == pipeline.coeffs
        out.append(_result(f"pipeline-vs-closed:{which}", order, order + 1,
                           ok, "pipeline disagrees with closed form"))
    return out


SCOPES = {
    "class-equalities": check_class_equalities,
    "formulas": check_formulas,
    "bijections": check_bijections,
    "genfun-crossroutes": check_genfun_crossroutes,
}


def run_scope(scope: str, max_n: int,
              limits: Limits = DEFAULT_LIMITS) -> list[CheckResult]:
    if scope != "all" and scope not in SCOPES:
        raise ValueError(f"unknown scope {scope!r}; "
                         f"have {sorted(SCOPES) + ['all']}")
    if max_n < 0:
        raise ValueError("length must be non-negative")
    results = []
    for name, fn in SCOPES.items():
        if scope in ("all", name):
            results.extend(fn(max_n, limits))
    return results
