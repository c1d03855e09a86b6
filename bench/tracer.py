"""In-process tracer for the benchmark's per-layer breakdown.

The tracer wraps public functions of the ``bigdescents`` modules from outside
the package: nothing under ``src/`` knows it exists.  Each wrapped call keeps
a frame on one stack; when the call ends, its self time (duration minus the
time covered by wrapped callees) is added to that function's totals.

Three kinds of wrapper:

* ``SPAN``: one recorded span per call (name, parent span, start, end), for
  functions called at most about 10^4 times per job.
* ``AGG``: per-element functions called 10^5-10^6 times; only the call count
  and summed self time are kept.
* ``GEN``: generator functions.  Every resumption is timed on its own, so the
  time the consumer spends between items is charged to the consumer.

Modules import each other's functions by name, so ``install`` rebinds every
module-level reference to a wrapped function in every ``bigdescents`` module,
including references held in module-level tuples, lists, dicts and
``functools.partial`` objects.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import Counter

SPAN, AGG, GEN = "span", "agg", "gen"


def _distinct_avoider_request(tracer, args, kwargs, result):
    n = args[0] if args else kwargs["n"]
    patterns = args[1] if len(args) > 1 else kwargs["patterns"]
    # Runs before the program sees ``patterns``: reading a one-shot iterator
    # here would hand the program an empty one, so only sequences are keyed.
    if isinstance(patterns, (tuple, list)):
        tracer.distinct.add((n, frozenset(tuple(p) for p in patterns)))


def _transfer_report(tracer, args, kwargs, report):
    tracer.counts["bijections.verify_transfer.population"] += report.population
    tracer.counts["bijections.failures"] += report.round_trip_failures + sum(
        r.failures for r in report.identities)


def _product_terms(tracer, args, kwargs, result):
    if result is not NotImplemented:
        tracer.counts["algebra.MultiPoly.mul.terms_out"] += len(result.terms)


def _series_size(tracer, args, kwargs, series):
    tracer.counts["genfun.result_terms"] += sum(len(c.terms) for c in series.coeffs)
    bits = max((max(q.numerator.bit_length(), q.denominator.bit_length())
                for c in series.coeffs for q in c.terms.values()), default=0)
    tracer.maxima["genfun.coeff_bits_max"] = max(
        tracer.maxima.get("genfun.coeff_bits_max", 0), bits)


def _unpredicted_records(tracer, args, kwargs, report):
    # As in ScanReport.all_as_predicted: a record predicted to hold must
    # hold, and a class predicted to fail must fail at some length.
    failed_classes = {r.patterns for r in report.records if not r.holds}
    predicted_failures = {r.patterns for r in report.records if not r.expected}
    tracer.counts["conjectures.records_unpredicted"] += sum(
        r.expected and not r.holds for r in report.records) + len(
        predicted_failures - failed_classes)


def _failed_checks(tracer, args, kwargs, results):
    tracer.counts["verify.checks_failed"] += sum(not r.ok for r in results)


# (traced name, module, attribute, wrapper kind, observer of args and result)
LAYERS = (
    ("cli.main", "cli", "main", SPAN, None),
    ("perms.enumerate_avoiders", "perms", "enumerate_avoiders", GEN,
     _distinct_avoider_request),
    ("perms.distribution_table", "perms", "distribution_table", SPAN, None),
    ("perms.statistic", "perms", "statistic", AGG, None),
    ("perms.contains", "perms", "contains", AGG, None),
    ("paths.iter_dyck_paths", "paths", "iter_dyck_paths", GEN, None),
    ("paths.occ_factor", "paths", "occ_factor", AGG, None),
    ("paths.path_statistic", "paths", "path_statistic", AGG, None),
    ("bijections.verify_transfer", "bijections", "verify_transfer", SPAN,
     _transfer_report),
    ("bijections.apply", "bijections", "apply", AGG, None),
    ("bijections.invert", "bijections", "invert", AGG, None),
    ("algebra.MultiPoly.mul", "algebra", "MultiPoly.__mul__", SPAN,
     _product_terms),
    ("algebra.MultiPoly.add", "algebra", "MultiPoly.__add__", SPAN, None),
    ("algebra.MultiPoly.exact_div", "algebra", "MultiPoly.exact_div", SPAN, None),
    ("algebra.TruncatedSeries.mul", "algebra", "TruncatedSeries.__mul__", SPAN,
     None),
    ("algebra.TruncatedSeries.truediv", "algebra", "TruncatedSeries.__truediv__",
     SPAN, None),
    ("algebra.TruncatedSeries.sqrt", "algebra", "TruncatedSeries.sqrt", SPAN, None),
    ("algebra.TruncatedSeries.exact_div", "algebra", "TruncatedSeries.exact_div",
     SPAN, None),
    ("algebra.series_compose", "algebra", "series_compose", SPAN, None),
    ("genfun.expand", "genfun", "expand", SPAN, _series_size),
    ("genfun.expand_functional", "genfun", "expand_functional", SPAN,
     _series_size),
    ("symfunc.qsym_sum", "symfunc", "qsym_sum", SPAN, None),
    ("symfunc.schur_expand", "symfunc", "schur_expand", SPAN, None),
    ("symfunc.schur_to_monomial_qsym", "symfunc", "schur_to_monomial_qsym",
     SPAN, None),
    ("symfunc.asymmetry_witness", "symfunc", "asymmetry_witness", SPAN, None),
    ("conjectures.conjecture_scan", "conjectures", "conjecture_scan", SPAN,
     _unpredicted_records),
    ("conjectures.is_real_rooted", "conjectures", "is_real_rooted", SPAN, None),
    ("wilf.class_partition_report", "wilf", "class_partition_report", SPAN, None),
    ("verify.check_class_equalities", "verify", "check_class_equalities", SPAN,
     _failed_checks),
    ("verify.check_formulas", "verify", "check_formulas", SPAN, _failed_checks),
    ("verify.check_bijections", "verify", "check_bijections", SPAN,
     _failed_checks),
    ("verify.check_genfun_crossroutes", "verify", "check_genfun_crossroutes",
     SPAN, _failed_checks),
)

# Every per-layer metric, with its unit and which direction is better.
# ``X.calls`` and ``X.self_s`` come from the traced function X; the rest from
# observers, cache statistics and the run itself (see ``layer_metrics``).
PER_LAYER = (
    ("cli.import_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("perms.enumerate_avoiders.calls", "count", "lower"),
    ("perms.enumerate_avoiders.yielded", "count", "lower"),
    ("perms.enumerate_avoiders.self_s", "s", "lower"),
    ("perms.enumerate_avoiders.distinct_ratio", "ratio", "higher"),
    ("perms.distribution_table.calls", "count", "lower"),
    ("perms.distribution_table.self_s", "s", "lower"),
    ("perms.statistic.calls", "count", "lower"),
    ("perms.statistic.self_s", "s", "lower"),
    ("perms.contains.calls", "count", "lower"),
    ("perms.contains.self_s", "s", "lower"),
    ("paths.iter_dyck_paths.yielded", "count", "lower"),
    ("paths.occ_factor.calls", "count", "lower"),
    ("paths.occ_factor.self_s", "s", "lower"),
    ("paths.path_statistic.calls", "count", "lower"),
    ("paths.path_statistic.self_s", "s", "lower"),
    ("bijections.verify_transfer.population", "count", "lower"),
    ("bijections.verify_transfer.self_s", "s", "lower"),
    ("bijections.apply.calls", "count", "lower"),
    ("bijections.apply.self_s", "s", "lower"),
    ("bijections.invert.calls", "count", "lower"),
    ("bijections.invert.self_s", "s", "lower"),
    ("bijections.failures", "count", "lower"),
    ("algebra.MultiPoly.mul.calls", "count", "lower"),
    ("algebra.MultiPoly.mul.terms_out", "count", "lower"),
    ("algebra.MultiPoly.mul.self_s", "s", "lower"),
    ("algebra.MultiPoly.add.calls", "count", "lower"),
    ("algebra.MultiPoly.add.self_s", "s", "lower"),
    ("algebra.MultiPoly.exact_div.calls", "count", "lower"),
    ("algebra.MultiPoly.exact_div.self_s", "s", "lower"),
    ("algebra.TruncatedSeries.mul.calls", "count", "lower"),
    ("algebra.TruncatedSeries.mul.self_s", "s", "lower"),
    ("algebra.TruncatedSeries.truediv.calls", "count", "lower"),
    ("algebra.TruncatedSeries.truediv.self_s", "s", "lower"),
    ("algebra.TruncatedSeries.sqrt.self_s", "s", "lower"),
    ("algebra.TruncatedSeries.exact_div.self_s", "s", "lower"),
    ("algebra.series_compose.self_s", "s", "lower"),
    ("genfun.expand.calls", "count", "lower"),
    ("genfun.expand.self_s", "s", "lower"),
    ("genfun.expand_functional.calls", "count", "lower"),
    ("genfun.expand_functional.self_s", "s", "lower"),
    ("genfun.result_terms", "count", "lower"),
    ("genfun.coeff_bits_max", "bits", "lower"),
    ("symfunc.qsym_sum.self_s", "s", "lower"),
    ("symfunc.schur_expand.self_s", "s", "lower"),
    ("symfunc.schur_to_monomial_qsym.self_s", "s", "lower"),
    ("symfunc.asymmetry_witness.self_s", "s", "lower"),
    ("symfunc.kostka.hit_ratio", "ratio", "higher"),
    ("conjectures.conjecture_scan.self_s", "s", "lower"),
    ("conjectures.is_real_rooted.calls", "count", "lower"),
    ("conjectures.is_real_rooted.self_s", "s", "lower"),
    ("conjectures.records_unpredicted", "count", "lower"),
    ("wilf.class_partition_report.self_s", "s", "lower"),
    ("verify.check_class_equalities.self_s", "s", "lower"),
    ("verify.check_formulas.self_s", "s", "lower"),
    ("verify.check_bijections.self_s", "s", "lower"),
    ("verify.check_genfun_crossroutes.self_s", "s", "lower"),
    ("verify.checks_failed", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


class Tracer:
    """Call counts, self times, counters and spans of one process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack: list[list] = []  # frames: [child time, enclosing span id]
        self.stats: dict[str, list] = {}  # name -> [calls, self seconds]
        self.counts: Counter = Counter()
        self.maxima: dict[str, int] = {}
        self.distinct: set = set()
        self.spans: list = []  # (name, parent span id, start, end)

    def _stat(self, name: str) -> list:
        return self.stats.setdefault(name, [0, 0.0])

    def wrap_call(self, name: str, fn, kind: str = AGG, observe=None):
        """Wrap a function; SPAN also records one span per call."""
        stack, clock, spans = self.stack, self.clock, self.spans
        stat = self._stat(name)
        record = kind == SPAN
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            span_id = parent
            if record:
                span_id = len(spans)
                spans.append(None)
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                stat[0] += 1
                stat[1] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                if record:
                    spans[span_id] = (name, parent, start, end)
            if observe is not None:
                observe(tracer, args, kwargs, result)
            return result

        return wrapper

    def wrap_generator(self, name: str, fn, observe=None):
        """Wrap a generator function; each resumption is timed separately."""
        stat = self._stat(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat[0] += 1
            if observe is not None:
                observe(tracer, args, kwargs, None)
            return tracer._resumptions(name, stat, fn(*args, **kwargs))

        return wrapper

    def _resumptions(self, name, stat, gen):
        stack, clock, counts = self.stack, self.clock, self.counts
        yielded = name + ".yielded"
        while True:
            frame = [0.0, stack[-1][1] if stack else None]
            stack.append(frame)
            start = clock()
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                elapsed = clock() - start
                stack.pop()
                stat[1] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
            counts[yielded] += 1
            yield item

    def summary(self) -> dict:
        """Counts and self times of this process, as JSON-ready data."""
        counters = dict(self.counts)
        counters["perms.enumerate_avoiders.distinct"] = len(self.distinct)
        return {"stats": self.stats, "counters": counters, "maxima": self.maxima}

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, (name, parent, start, end) in enumerate(self.spans):
                fh.write(json.dumps({"id": span_id, "parent": parent,
                                     "name": name, "start": start,
                                     "end": end}) + "\n")


def _substitute(value, original, wrapper, seen: set):
    """``value`` with references to ``original`` replaced by ``wrapper``.

    Lists and dicts are changed in place; a tuple or partial that refers to
    ``original`` is rebuilt.  Anything else is returned unchanged.
    """
    if value is original:
        return wrapper
    if isinstance(value, functools.partial):
        if value.func is original:
            return functools.partial(wrapper, *value.args, **value.keywords)
        return value
    if id(value) in seen or not isinstance(value, (tuple, list, dict)):
        return value
    seen.add(id(value))
    if isinstance(value, dict):
        for key, item in value.items():
            new = _substitute(item, original, wrapper, seen)
            if new is not item:
                value[key] = new
        return value
    items = [_substitute(item, original, wrapper, seen) for item in value]
    if isinstance(value, list):
        value[:] = items
        return value
    if type(value) is tuple and any(a is not b for a, b in zip(items, value)):
        return tuple(items)
    return value


def install(tracer: Tracer) -> None:
    """Wrap every function in ``LAYERS`` and rebind all references to it."""
    modules = [module for name, module in list(sys.modules.items())
               if name == "bigdescents" or name.startswith("bigdescents.")]
    for name, module_name, attr, kind, observe in LAYERS:
        module = sys.modules[f"bigdescents.{module_name}"]
        if "." in attr:  # a method: the class dict holds every alias
            cls_name, method = attr.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[method]
            wrapper = tracer.wrap_call(name, original, kind, observe)
            for key, value in list(cls.__dict__.items()):
                if value is original:
                    setattr(cls, key, wrapper)
            continue
        original = getattr(module, attr)
        if kind == GEN:
            wrapper = tracer.wrap_generator(name, original, observe)
        else:
            wrapper = tracer.wrap_call(name, original, kind, observe)
        for mod in modules:
            seen: set = set()
            for key, value in list(vars(mod).items()):
                if key.startswith("__"):
                    continue
                new = _substitute(value, original, wrapper, seen)
                if new is not value:
                    setattr(mod, key, new)


def merge(summaries: list[dict]) -> dict:
    """Sum the per-job summaries of one workload (maxima take the max)."""
    stats: dict[str, list] = {}
    counters: Counter = Counter()
    maxima: dict[str, int] = {}
    for s in summaries:
        for name, (calls, self_s) in s["stats"].items():
            acc = stats.setdefault(name, [0, 0.0])
            acc[0] += calls
            acc[1] += self_s
        counters.update(s["counters"])
        for name, value in s["maxima"].items():
            maxima[name] = max(maxima.get(name, 0), value)
    return {"stats": stats, "counters": counters, "maxima": maxima}


def layer_metrics(jobs: list[dict], overhead_ratio: float) -> dict:
    """Every metric of ``PER_LAYER`` from the traced jobs of one workload.

    Each job dict holds a tracer ``summary`` plus ``import_s`` and the
    ``kostka`` cache hits and misses of its process.  Counts and self times
    are summed over the jobs; ``cli.import_s`` is the median per job.
    """
    merged = merge(jobs)
    values: dict[str, float] = {}
    for name, (calls, self_s) in merged["stats"].items():
        values[name + ".calls"] = calls
        values[name + ".self_s"] = self_s
    values.update(merged["counters"])
    values.update(merged["maxima"])
    calls = values.get("perms.enumerate_avoiders.calls", 0)
    values["perms.enumerate_avoiders.distinct_ratio"] = (
        values["perms.enumerate_avoiders.distinct"] / calls if calls else 0.0)
    hits = sum(job["kostka"][0] for job in jobs)
    lookups = hits + sum(job["kostka"][1] for job in jobs)
    values["symfunc.kostka.hit_ratio"] = hits / lookups if lookups else 0.0
    values["cli.import_s"] = statistics.median(job["import_s"] for job in jobs)
    values["trace.overhead_ratio"] = overhead_ratio
    return {name: {"value": values.get(name, 0), "unit": unit}
            for name, unit, _ in PER_LAYER}
