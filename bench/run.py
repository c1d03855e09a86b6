"""The repository's benchmark: named workloads of ``bigdescents`` CLI jobs.

Usage, from the root of a checkout:

    python3 bench/run.py --workload enumerate|series|crosscheck \
        --seed N --seconds S --trace 0|1

Every invocation first runs each ``bigdescents ...`` example of README.md
once and compares its exit code and stdout sha256 with bench/golden.json.
The workload's job list then runs in passes, each job a fresh
``python -m bigdescents.cli`` process, one at a time.  A pass runs every
variant of every job (each symmetry image of a ``table`` job's pattern, see
jobs.py) once, in an order the seed shuffles.  Jobs run pass after pass
while the next one is expected to end within ``--seconds``; the first pass
always runs whole.

The host's speed drifts by a quarter or more over minutes, alike for all
jobs (other tenants share its cores).  So the fixed program reference.py
runs as a fresh process next to the jobs: its compute form between them,
for about 60 % of their time, and its start-up form after every set-up
probe.  wall_s is scaled by REFERENCE_S over the compute form's mean time in
the run, setup_s by START_S over the start-up form's median: they read as
seconds on the host at its reference speed.  The unscaled figures are
printed too.

``--trace 0`` (end-to-end metrics, nothing wrapped):
  setup_s      median start-to-exit time of fresh ``formula`` processes,
               scaled
  wall_s       the time to run the job list once: the sum over its jobs of
               each job's mean start-to-exit time, scaled
  peak_rss_mb  the largest peak RSS of any job process (see spawn.py)

``--trace 1`` (per-layer metrics): the first pass untraced, then the same
jobs again, each in a child that wraps the package's public functions (see
tracer.py); spans go to .bench_out/spans/, counts and self times are summed
over the jobs.  ``trace.overhead_ratio`` is the traced pass's wall time over
the untraced one.

Each job's exit code and stdout digest is checked against the golden file;
a mismatch or a timeout counts as failed.  ``fail_ratio`` (failed over
attempted) is printed with the metrics and carried by the ``failed`` and
``attempted`` fields of the last line, a JSON object.  The command exits 0
when every check passed, 1 when one failed, and 2 when the checkout holds no
program to run.
"""

from __future__ import annotations

import argparse
import itertools
import json
import shlex
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from jobs import (SETUP_JOB, WORKLOADS, Runner, load_golden,  # noqa: E402
                  readme_jobs, workload_passes)
from tracer import layer_metrics  # noqa: E402

SETUP_PROBES = 11
# About the median start-to-exit times of reference.py and of its start-up
# form on a 2.0 GHz Xeon vCPU under Python 3.11: wall_s and setup_s are
# scaled to the host speed at which they take this long (see end_to_end).
REFERENCE_S = 0.35
START_S = 0.11
REFERENCE_SHARE = 0.6
# Jobs still unfinished this long after the start count as timed out, so a
# run ends within three minutes.
RUN_DEADLINE_S = 170.0
OUT_DIR = ".bench_out"


def run_job(runner: Runner, argv: tuple[str, ...]):
    outcome = runner.run_cli(argv)
    print(f"  {outcome.wall_s:8.3f} s {outcome.maxrss_kib / 1024:7.1f} MB  "
          f"{shlex.join(argv)}")
    return outcome


def end_to_end(runner: Runner, passes, seconds: float) -> dict:
    """Jobs run pass after pass until the next one is not expected to end
    within ``seconds``, but at least one whole pass.  Between jobs,
    reference.py runs for REFERENCE_SHARE of the time the jobs took."""
    setup, starts = [], []
    for _ in range(SETUP_PROBES):
        setup.append(runner.run_cli(SETUP_JOB).wall_s)
        starts.append(runner.run_reference(start=True))
    times: dict[tuple[str, ...], list[float]] = {}
    refs, peak, owed = [], 0, 0.0
    begin = time.perf_counter()
    for argv in itertools.chain.from_iterable(passes):
        if argv in times and time.perf_counter() - begin + statistics.mean(
                times[argv]) * (1 + REFERENCE_SHARE) > seconds:
            break
        outcome = run_job(runner, argv)
        times.setdefault(argv, []).append(outcome.wall_s)
        peak = max(peak, outcome.maxrss_kib)
        owed += outcome.wall_s * REFERENCE_SHARE
        while owed > 0 and (ref := runner.run_reference()) is not None:
            refs.append(ref)
            owed -= ref
    wall = sum(statistics.mean(t) for t in times.values())
    starts = [s for s in starts if s is not None]
    scale = REFERENCE_S / statistics.mean(refs) if refs else 1.0
    start_scale = START_S / statistics.median(starts) if starts else 1.0
    print(f"runs per job: {sorted(len(t) for t in times.values())}")
    print(f"unscaled wall {wall:.3f} s; reference.py ran {len(refs)} times, "
          f"scale {scale:.3f}")
    print(f"unscaled setup {statistics.median(setup):.3f} s; start-up "
          f"scale {start_scale:.3f}")
    return {
        "wall_s": {"value": wall * scale, "unit": "s"},
        "peak_rss_mb": {"value": peak / 1024, "unit": "MB"},
        "setup_s": {"value": statistics.median(setup) * start_scale,
                    "unit": "s"},
    }


def per_layer(runner: Runner, jobs, workload: str) -> dict:
    untraced = sum(run_job(runner, argv).wall_s for argv in jobs)
    spans_dir = Path(OUT_DIR) / "spans" / workload
    spans_dir.mkdir(parents=True, exist_ok=True)
    traced_wall, summaries = 0.0, []
    for i, argv in enumerate(jobs):
        result = runner.run_traced(argv, spans_dir / f"job{i}.jsonl")
        if result is not None:
            traced_wall += result[0]
            summaries.append(result[1])
    print(f"untraced pass {untraced:.3f} s, traced pass {traced_wall:.3f} s")
    if not summaries:
        return {}
    return layer_metrics(summaries, traced_wall / untraced)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "bigdescents" / "cli.py").is_file():
        print(f"no bigdescents sources under {root / 'src'}; run from the "
              "root of a checkout", file=sys.stderr)
        return 2
    runner = Runner(root, load_golden(),
                    deadline=time.perf_counter() + RUN_DEADLINE_S)

    for example in readme_jobs(root / "README.md"):
        runner.run_cli(example)
    readme_failures = list(runner.failures)
    runner.attempted, runner.failures = 0, []

    passes = workload_passes(args.workload, args.seed)
    if args.trace:
        metrics = per_layer(runner, next(passes), args.workload)
    else:
        metrics = end_to_end(runner, passes, args.seconds)

    for problem in readme_failures:
        print(f"README example failed: {problem}", file=sys.stderr)
    for problem in runner.failures:
        print(f"job failed: {problem}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    fail_ratio = len(runner.failures) / runner.attempted
    print(f"fail_ratio {fail_ratio} ratio "
          f"({len(runner.failures)} of {runner.attempted} jobs)")
    correct = not readme_failures and not runner.failures
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": len(runner.failures), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
