"""Tests of the benchmark itself: tracer arithmetic, job selection and the
golden-digest check.  Run with: python3 -m pytest -q bench/test_bench.py"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from jobs import (SETUP_JOB, WORKLOADS, Runner, golden_argvs,  # noqa: E402
                  job_key, load_golden, readme_jobs, symmetry_images, variants,
                  workload_passes)
from tracer import (AGG, LAYERS, PER_LAYER, SPAN, Tracer,  # noqa: E402
                    layer_metrics)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_nested_spans():
    clock = FakeClock()
    tracer = Tracer(clock)

    def leaf():
        clock.now += 2

    leaf = tracer.wrap_call("leaf", leaf, SPAN)

    def element():  # aggregated: no span, but its time is still subtracted
        clock.now += 1
        leaf()

    element = tracer.wrap_call("element", element, AGG)

    def root():
        clock.now += 1
        leaf()
        clock.now += 3
        element()

    tracer.wrap_call("root", root, SPAN)()
    assert tracer.stats["root"] == [1, 4.0]  # 9 s in total, 5 s in callees
    assert tracer.stats["element"] == [1, 1.0]
    assert tracer.stats["leaf"] == [2, 4.0]
    assert tracer.stack == []
    # the leaf inside the aggregated call hangs off the root span
    assert tracer.spans == [("root", None, 0.0, 9.0), ("leaf", 0, 1.0, 3.0),
                            ("leaf", 0, 7.0, 9.0)]


def test_self_time_survives_an_exception():
    clock = FakeClock()
    tracer = Tracer(clock)

    def fail():
        clock.now += 1
        raise ValueError

    fail = tracer.wrap_call("fail", fail, SPAN)

    def root():
        try:
            fail()
        except ValueError:
            clock.now += 2

    tracer.wrap_call("root", root, SPAN)()
    assert tracer.stats["fail"] == [1, 1.0]
    assert tracer.stats["root"] == [1, 2.0]
    assert tracer.stack == []


def test_generator_is_timed_per_resumption():
    clock = FakeClock()
    tracer = Tracer(clock)

    def produce(n):
        for i in range(n):
            clock.now += 1
            yield i

    produce = tracer.wrap_generator("produce", produce)

    def consume():
        for _ in produce(3):
            clock.now += 10  # the consumer's own work between items
        for _ in produce(5):
            break  # abandoned after one item

    tracer.wrap_call("consume", consume, SPAN)()
    assert tracer.stats["produce"] == [2, 4.0]
    assert tracer.stats["consume"] == [1, 30.0]
    assert tracer.counts["produce.yielded"] == 4
    assert tracer.stack == []


def test_tracer_leaves_a_one_shot_pattern_iterator_to_the_program():
    tracer = Tracer()

    def enumerate_avoiders(n, patterns):
        yield from (tuple(p) for p in patterns)

    wrapped = tracer.wrap_generator("perms.enumerate_avoiders",
                                    enumerate_avoiders, LAYERS[1][4])
    assert list(wrapped(3, iter([(1, 2), (2, 1)]))) == [(1, 2), (2, 1)]
    assert list(wrapped(3, [(1, 2)])) == [(1, 2)]
    assert tracer.distinct == {(3, frozenset({(1, 2)}))}


def test_layer_metrics_cover_every_listed_metric():
    tracer = Tracer()
    job = {**tracer.summary(), "import_s": 0.1, "kostka": [3, 1]}
    metrics = layer_metrics([job, job], overhead_ratio=1.5)
    assert list(metrics) == [name for name, _, _ in PER_LAYER]
    assert metrics["symfunc.kostka.hit_ratio"]["value"] == 0.75
    assert metrics["trace.overhead_ratio"]["value"] == 1.5


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in PER_LAYER]
    assert [m["name"] for m in spec["end_to_end"]] == [
        "wall_s", "peak_rss_mb", "setup_s"]
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)


def test_every_pass_runs_every_variant_in_a_seeded_order():
    assert symmetry_images("231") == ("132", "213", "231", "312")
    assert symmetry_images("1234") == ("1234", "4321")
    assert variants(("table", "--patterns", "", "--n", "9")) == [
        ("table", "--patterns", "", "--n", "9")]

    def first_passes(seed, count=3):
        passes = workload_passes("enumerate", seed)
        return [next(passes) for _ in range(count)]

    assert first_passes(7) == first_passes(7)
    assert first_passes(7) != first_passes(8)
    every = sorted(v for job in WORKLOADS["enumerate"] for v in variants(job))
    assert len(every) == 11
    for jobs in first_passes(7):
        assert sorted(jobs) == every


def test_reference_prints_its_checksum_in_both_forms():
    runner = Runner(ROOT, {}, deadline=time.perf_counter() + 60)
    assert runner.run_reference() > 0
    assert runner.run_reference(start=True) > 0
    assert runner.attempted == 0 and runner.failures == []


def test_every_job_variant_and_readme_example_has_a_golden_digest():
    golden = load_golden()
    assert not [job_key(a) for a in golden_argvs(ROOT) if job_key(a) not in golden]


def test_readme_lines_keep_empty_arguments_and_drop_comments(tmp_path):
    readme = tmp_path / "README.md"
    readme.write_text('text\n```sh\npip install -e .\n'
                      'bigdescents table --patterns "" --n 4   # all of S_4\n'
                      '```\n```python\nbigdescents not shell\n```\n')
    assert readme_jobs(readme) == [("table", "--patterns", "", "--n", "4")]


def test_tampered_golden_digest_counts_as_a_failure(tmp_path):
    golden = load_golden()
    runner = Runner(ROOT, golden, deadline=time.perf_counter() + 60)
    runner.run_cli(SETUP_JOB)
    assert runner.failures == []

    key = job_key(SETUP_JOB)
    tampered = {**golden, key: {**golden[key], "sha256": "0" * 64}}
    runner = Runner(ROOT, tampered, deadline=time.perf_counter() + 60)
    runner.run_cli(SETUP_JOB)
    assert runner.run_traced(SETUP_JOB, tmp_path / "spans.jsonl") is None
    assert runner.attempted == 2 and len(runner.failures) == 2
    assert len(runner.failures) / runner.attempted > 0


def test_traced_counts_repeat_and_stdout_is_unchanged(tmp_path):
    # verify reaches check_formulas through the SCOPES dict and genfun.expand
    # through partials in catalogue; both must be rebound to be counted.
    argv = ("verify", "--scope", "formulas", "--max-n", "4")
    runner = Runner(ROOT, {}, deadline=time.perf_counter() + 60)
    untraced = runner.run_cli(argv)
    runner.golden[job_key(argv)] = {
        "exit": untraced.exit, "sha256": hashlib.sha256(untraced.stdout).hexdigest()}
    runner.failures = []
    (_, first), (_, second) = [runner.run_traced(argv, tmp_path / f"{i}.jsonl")
                               for i in range(2)]
    assert runner.failures == []  # traced digests equal the untraced one
    assert first["stats"]["verify.check_formulas"][0] == 1
    assert first["stats"]["genfun.expand"][0] > 0
    assert first["counters"] == second["counters"]
    assert first["maxima"] == second["maxima"]
    assert {k: v[0] for k, v in first["stats"].items()} == {
        k: v[0] for k, v in second["stats"].items()}
    spans = [json.loads(line) for line in
             (tmp_path / "0.jsonl").read_text().splitlines()]
    assert spans[0]["name"] == "cli.main" and spans[0]["parent"] is None
