"""Command-line front end.

Subcommands: table, verify, series, bijection, qsym, conjecture, formula.
Every invocation is deterministic: identical flags produce byte-identical
output.  Exit codes: 0 success, 1 check failure, 2 invalid input, 3 resource
guard.

The b-file format flattens the triangle of counts row-major over (n, k) with
trailing zeros trimmed per row (every row keeps at least one entry) and
numbers the lines from the configured offset (default 1), which matches the
row-reading conventions of the sequence-database entries this table family
points at.
"""

from __future__ import annotations

import importlib
import json
import sys

from . import bijections, conjectures, genfun, perms, symfunc, verify
from .config import DEFAULT_LIMITS, Limits, load_limits
from .errors import BudgetError


_MAX_N_HELP = ("set every enumeration guard (avoider_guard_empty, "
               "avoider_guard_patterns, qsym_guard) to this length")


def _build_parser(command: str | None = None):
    """The parser of every command; when ``command`` is given, only its
    arguments are added (they read the modules it runs)."""
    import argparse  # after the command's modules are compiled: see main

    parser = argparse.ArgumentParser(
        prog="bigdescents",
        description="Exact enumeration of big-descent statistics over "
                    "pattern-avoiding permutations.")
    parser.add_argument("--config", help="JSON file overriding size guards")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, _, add_arguments, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        if command in (None, name):
            add_arguments(p)
    return parser


def _table_arguments(p) -> None:
    p.add_argument("--patterns", required=True,
                   help='comma-separated patterns, e.g. "213,231"; '
                        '"" means no restriction')
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--stat", default="bdes",
                   help=", ".join(perms.STATISTICS) + ", or des_r(r)")
    p.add_argument("--format", default="text",
                   choices=["text", "json", "tsv", "bfile"])
    p.add_argument("--max-n", type=int, default=None, help=_MAX_N_HELP)


def _verify_arguments(p) -> None:
    p.add_argument("--scope", default="all",
                   choices=sorted(verify.SCOPES) + ["all"])
    p.add_argument("--max-n", type=int, default=8)
    p.add_argument("--format", default="text", choices=["text", "json"])


def _series_arguments(p) -> None:
    p.add_argument("--id", required=True, choices=sorted(genfun.GF_IDS))
    p.add_argument("--order", type=int, default=None)
    p.add_argument("--r", type=int, default=None,
                   help="run-length parameter (R_run only)")
    p.add_argument("--route", default=None,
                   choices=["closed", "functional", "both"],
                   help="expansion route (default: the id's registered "
                        "route, functional for F and closed otherwise); "
                        "both cross-checks the two")
    p.add_argument("--format", default="text", choices=["text", "json"])


def _bijection_arguments(p) -> None:
    p.add_argument("--id", required=True, choices=sorted(bijections.BIJECTIONS))
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--apply", metavar="X",
                       help="domain object (permutation or Dyck word)")
    group.add_argument("--invert", metavar="Y",
                       help="codomain object (Dyck word, Motzkin tokens, "
                            "or binary word)")
    group.add_argument("--verify-n", type=int, metavar="N",
                       help="exhaustively verify round trips and statistic "
                            "transfers at size N")
    p.add_argument("--format", default="text", choices=["text", "json"])


def _qsym_arguments(p) -> None:
    p.add_argument("--patterns", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, default=1)
    p.add_argument("--basis", default="schur",
                   choices=["schur", "monomial", "fundamental"])
    p.add_argument("--format", default="text", choices=["text", "json"])
    p.add_argument("--max-n", type=int, default=None, help=_MAX_N_HELP)


def _conjecture_arguments(p) -> None:
    p.add_argument("--which", required=True,
                   choices=[name.replace("_", "-")
                            for name in conjectures.SCANS])
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--format", default="text", choices=["text", "json"])


def _formula_arguments(p) -> None:
    p.add_argument("--id", required=True, choices=sorted(genfun.FORMULA_IDS))
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--j", type=int)
    p.add_argument("--r", type=int)


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def _with_max_n(limits: Limits, max_n: int | None) -> Limits:
    """The guards of `table`/`qsym`: ``--max-n`` replaces whichever applies."""
    if max_n is None:
        return limits
    return limits._replace(avoider_guard_empty=max_n,
                           avoider_guard_patterns=max_n,
                           qsym_guard=max_n).validated()


def _cmd_table(args, limits: Limits) -> int:
    limits = _with_max_n(limits, args.max_n)
    patterns = perms.parse_pattern_set(args.patterns)
    if args.format == "bfile":
        # the whole triangle up to n, rows trimmed, flat indices
        index = limits.bfile_offset
        for row in perms.distribution_rows(args.n, patterns, args.stat,
                                           limits=limits):
            for value in row.poly():
                print(f"{index} {value}")
                index += 1
        return 0
    table = perms.distribution_table(args.n, patterns, args.stat,
                                     limits=limits)
    if args.format == "text":
        print(" ".join(map(str, table.counts)))
    elif args.format == "tsv":
        print("\t".join(map(str, table.counts)))
    else:  # json
        print(json.dumps({
            "patterns": [perms.format_permutation(p) for p in table.patterns],
            "n": table.n, "stat": table.stat, "counts": list(table.counts),
        }, sort_keys=True))
    return 0


def _cmd_verify(args, limits: Limits) -> int:
    results = verify.run_scope(args.scope, args.max_n, limits=limits)
    ok = all(r.ok for r in results)
    if args.format == "json":
        print(json.dumps({"checks": [r.to_json() for r in results],
                          "pass": ok}, sort_keys=True))
    else:
        for r in results:
            line = f"{'ok  ' if r.ok else 'FAIL'} {r.name} (n={r.n}, population={r.population})"
            if not r.ok and r.witness:
                line += f" -- {r.witness}"
            print(line)
        print(f"{sum(r.ok for r in results)}/{len(results)} checks passed")
    return 0 if ok else 1


def _cmd_series(args, limits: Limits) -> int:
    info = genfun.GF_IDS[args.id]
    if args.r is not None and not info.needs_r:
        raise ValueError(f"{args.id} takes no r parameter")
    order = args.order if args.order is not None else limits.series_order
    route = args.route or info.default
    closed = functional = None
    if route in ("closed", "both"):
        closed = genfun.expand(args.id, order, r=args.r, limits=limits)
    if route in ("functional", "both"):
        functional = genfun.expand_functional(args.id, order, limits=limits)
    if route == "both" and closed.coeffs != functional.coeffs:
        print(f"route mismatch for {args.id} at order {order}", file=sys.stderr)
        return 1
    series = closed if closed is not None else functional
    if args.format == "json":
        payload = series.to_json()
        payload["id"] = args.id
        payload["rows"] = [{"n": i, "poly": str(c)}
                           for i, c in enumerate(series.coeffs)]
        print(json.dumps(payload, sort_keys=True))
    else:
        print(series.pretty())
    return 0


def _cmd_bijection(args, limits: Limits) -> int:
    if args.verify_n is not None:
        report = bijections.verify_transfer(args.id, args.verify_n, limits)
        if args.format == "json":
            print(json.dumps(report.to_json(), sort_keys=True))
        else:
            print(f"bijection {report.bijection} at n={report.n}: "
                  f"population {report.population}, "
                  f"round-trip failures {report.round_trip_failures}")
            for r in report.identities:
                print(f"  {r.label}: {r.failures} failures / {r.population}")
        return 0 if report.all_pass() else 1
    b = bijections.BIJECTIONS[args.id]
    if args.apply is not None:
        result = bijections.apply(args.id, b.domain(args.apply.strip()))
    else:
        result = bijections.invert(args.id, b.codomain(args.invert.strip()))
    out = (perms.format_permutation(result) if isinstance(result, tuple)
           else str(result))
    if args.format == "json":
        print(json.dumps({"bijection": args.id, "result": out}))
    else:
        print(out)
    return 0


def _cmd_qsym(args, limits: Limits) -> int:
    limits = _with_max_n(limits, args.max_n)
    patterns = perms.parse_pattern_set(args.patterns)
    if args.basis == "fundamental":
        items = sorted(symfunc.qsym_fundamental(args.n, patterns, r=args.r,
                                        limits=limits).items())
        if args.format == "json":
            print(json.dumps({"basis": "fundamental", "n": args.n,
                              "coeffs": [[list(c), v] for c, v in items]},
                             sort_keys=True))
        else:
            print(" + ".join(f"{v}*F{list(c)}" for c, v in items) or "0")
        return 0
    q = symfunc.qsym_sum(args.n, patterns, r=args.r, limits=limits)
    if args.basis == "monomial":
        items = sorted(q.coeffs.items())
        banner = symfunc.asymmetry_witness(q)
        if args.format == "json":
            print(json.dumps({"basis": "monomial_qsym", "n": args.n,
                              "symmetric": banner is None,
                              "coeffs": [[list(c), v] for c, v in items]},
                             sort_keys=True))
        else:
            if banner is not None:
                print(f"# symmetric=false, witness {banner[0]} vs {banner[1]}")
            print(" + ".join(f"{v}*M{list(c)}" for c, v in items) or "0")
        return 0
    try:
        expansion = symfunc.schur_expand(q)
    except ValueError:  # not symmetric
        witness = symfunc.asymmetry_witness(q)
        print(f"not symmetric: M-coefficients differ on {witness[0]} vs "
              f"{witness[1]}; Schur basis unavailable", file=sys.stderr)
        return 1
    if args.format == "json":
        print(json.dumps({"basis": "schur", "n": args.n,
                          "coeffs": [[list(l), v] for l, v in
                                     sorted(expansion.coeffs.items())]},
                         sort_keys=True))
    else:
        print(symfunc.format_schur(expansion))
    return 0


def _cmd_conjecture(args, limits: Limits) -> int:
    which = args.which.replace("-", "_")
    report = conjectures.conjecture_scan(which, args.max_n, limits=limits)
    ok = report.all_as_predicted()
    if args.format == "json":
        print(json.dumps(report.to_json(), sort_keys=True))
    else:
        for r in report.records:
            mark = "ok  " if r.holds else "FAIL"
            label = (",".join(map(perms.format_permutation, r.patterns))
                     or "(none)")
            line = f"{mark} {report.which} patterns={label} n={r.n}"
            if r.witness:
                line += f" -- {r.witness}"
            print(line)
        print("scan outcome matches predictions" if ok
              else "scan outcome DIFFERS from predictions")
    return 0 if ok else 1


def _cmd_formula(args, limits: Limits) -> int:
    kwargs = {}
    for key in ("n", "k", "j", "r"):
        value = getattr(args, key)
        if value is not None:
            kwargs[key] = value
    result = genfun.formula(args.id, limits=limits, **kwargs)
    if isinstance(result, list):
        print(" ".join(map(str, result)))
    else:
        print(result)
    return 0


# Each command: its help line; the modules it runs, loaded in this order
# before its parser is built (largest compile first: algebra, then perms,
# then the rest, each after the modules it imports); the function that adds
# its arguments; its handler.
_COMMANDS = {
    "table": ("distribution of a statistic over an avoidance class",
              ("perms",), _table_arguments, _cmd_table),
    "verify": ("run a cross-verification suite",
               ("algebra", "perms", "genfun", "values", "paths", "bijections",
                "wilf", "verify"), _verify_arguments, _cmd_verify),
    "series": ("expand a named generating function",
               ("algebra", "genfun"), _series_arguments, _cmd_series),
    "bijection": ("apply, invert, or verify a bijection",
                  ("perms", "values", "paths", "bijections"),
                  _bijection_arguments, _cmd_bijection),
    "qsym": ("descent-set quasisymmetric sums",
             ("perms", "values", "symfunc"), _qsym_arguments, _cmd_qsym),
    "conjecture": ("scan a conjectured property",
                   ("algebra", "perms", "genfun", "values", "symfunc", "wilf",
                    "conjectures"), _conjecture_arguments, _cmd_conjecture),
    "formula": ("evaluate a closed counting formula",
                ("algebra", "genfun"), _formula_arguments, _cmd_formula),
}


def _named_command(argv) -> str | None:
    """The command ``argv`` names, read as argparse reads it: the first word
    after any ``--config`` option (or its abbreviation), whose value follows
    ``=`` or is the next word.  None when that word names no command."""
    words = iter(argv)
    for word in words:
        option, equals, _ = word.partition("=")
        if len(option) > 2 and "--config".startswith(option):
            if not equals:
                next(words, None)
            continue
        return word if word in _COMMANDS else None
    return None


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    command = _named_command(argv)
    # import_module reads each module's __spec__, which runs a lazily
    # registered module.  They are compiled before argparse is imported: a
    # compile that starts on the heap argparse leaves behind raises the job's
    # peak RSS.
    for name in _COMMANDS[command][1] if command else ():
        importlib.import_module(f"{__package__}.{name}")
    args = _build_parser(command).parse_args(argv)
    limits = DEFAULT_LIMITS
    try:
        if args.config:
            limits = load_limits(args.config)
        return _COMMANDS[args.command][3](args, limits)
    except BudgetError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return 3
    except (ValueError, TypeError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
