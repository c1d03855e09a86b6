"""Workload job lists and their pattern variants, the seeded job order, the
README examples, and the runner that checks each CLI process against its
golden exit code and stdout digest."""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import shlex
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from reference import CHECKSUM, STARTED

BENCH_DIR = Path(__file__).resolve().parent
GOLDEN_FILE = BENCH_DIR / "golden.json"
SPAWN = BENCH_DIR / "spawn.py"
REFERENCE = BENCH_DIR / "reference.py"

# README's first formula example: a fresh process that does no enumeration,
# so its start-to-exit time is interpreter start-up plus import of the package.
SETUP_JOB = ("formula", "--id", "b231", "--n", "7", "--k", "3")

WORKLOADS: dict[str, tuple[tuple[str, ...], ...]] = {
    # Large-n brute force, nearly all in perms: the levelwise build of the
    # 58,786 avoiders of length 11, the b-file that re-enumerates every row
    # 0..10, the general-length containment path, and the unrestricted
    # itertools stream.  The algebra-using modules never run.
    "enumerate": (
        ("table", "--patterns", "231", "--n", "11"),
        ("table", "--patterns", "231", "--n", "10", "--format", "bfile"),
        ("table", "--patterns", "1234", "--n", "7"),
        ("table", "--patterns", "", "--n", "9", "--stat", "des"),
    ),
    # Exact algebra: five-variable series composition with coefficient swell,
    # and functional fixed points that redo full-order sweeps against the
    # closed forms.  perms is never called.  The orders above the default 12
    # are deliberate: a later series cost guard must admit them.
    "series": (
        ("series", "--id", "F", "--order", "11"),
        ("series", "--id", "Gtilde", "--order", "13", "--route", "both"),
        ("series", "--id", "B132", "--order", "20", "--route", "both"),
    ),
    # Hundreds of small, often repeated enumerations (verify asks for the
    # same (n, patterns) pairs again and again), and the only workload where
    # paths, bijections, symfunc, conjectures, wilf and verify do real work.
    # Every size stays inside today's guards or passes an override.
    "crosscheck": (
        ("verify", "--scope", "all", "--max-n", "8"),
        ("conjecture", "--which", "real-rooted", "--max-n", "10"),
        ("conjecture", "--which", "schur-positive", "--max-n", "7"),
        ("bijection", "--id", "chi", "--verify-n", "9"),
        ("qsym", "--patterns", "123", "--n", "9", "--max-n", "9"),
    ),
}


def symmetry_images(pattern: str) -> tuple[str, ...]:
    """The pattern with its reverse, complement and reverse-complement.

    Each image indexes an avoidance class of the same size, though not in
    general with the same statistic distribution.
    """
    top = len(pattern) + 1
    complement = "".join(str(top - int(c)) for c in pattern)
    return tuple(sorted({pattern, pattern[::-1], complement, complement[::-1]}))


def variants(job: tuple[str, ...]) -> list[tuple[str, ...]]:
    """Every argv a job runs as (a table job with a pattern runs once per
    image of its single pattern; other jobs have one variant)."""
    if job[0] != "table":
        return [job]
    at = job.index("--patterns") + 1
    if not job[at]:
        return [job]
    return [job[:at] + (p,) + job[at + 1:] for p in symmetry_images(job[at])]


def workload_passes(workload: str, seed: int):
    """Yield the job list (argvs in run order) of each pass.

    A pass runs every variant of every job once: a table job with a pattern
    runs once per symmetry image, since the images cost up to 1.7x apart
    and one pick per seed would make the pass time depend on the seed.  The
    seed shuffles the order of every pass.
    """
    rng = random.Random(seed)
    jobs = [v for job in WORKLOADS[workload] for v in variants(job)]
    while True:
        rng.shuffle(jobs)
        yield list(jobs)


def readme_jobs(readme: Path) -> list[tuple[str, ...]]:
    """The argv of every ``bigdescents ...`` line in the README's sh blocks.

    shlex keeps ``--patterns ""`` as an empty argument and drops trailing
    ``#`` comments.
    """
    text = readme.read_text(encoding="utf-8")
    jobs = []
    for block in re.findall(r"^```sh\n(.*?)^```", text, re.S | re.M):
        for line in block.splitlines():
            words = shlex.split(line, comments=True)
            if words and words[0] == "bigdescents":
                jobs.append(tuple(words[1:]))
    return jobs


def golden_argvs(root: Path) -> list[tuple[str, ...]]:
    """Every argv that needs a golden digest: the set-up job, every README
    example and every variant of every workload job."""
    argvs = [SETUP_JOB, *readme_jobs(root / "README.md")]
    argvs += [v for jobs in WORKLOADS.values() for job in jobs
              for v in variants(job)]
    return argvs


def job_key(argv: tuple[str, ...]) -> str:
    return shlex.join(argv)


def load_golden() -> dict[str, dict]:
    with open(GOLDEN_FILE, encoding="utf-8") as fh:
        return json.load(fh)


@dataclass
class Outcome:
    """One finished (or killed) child process."""

    exit: int | None  # None when killed at its timeout
    stdout: bytes
    stderr: bytes
    wall_s: float
    maxrss_kib: int


def run_process(cmd: list[str], env: dict, timeout: float) -> Outcome:
    """Run ``cmd`` through spawn.py, which reports the exit code, wall time
    and peak RSS of ``cmd`` alone (see spawn.py for why)."""
    read_fd, write_fd = os.pipe()
    try:
        proc = subprocess.Popen(
            [sys.executable, "-I", "-S", str(SPAWN), str(write_fd),
             repr(timeout), *cmd],
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, env=env, pass_fds=(write_fd,),
            start_new_session=True)
    finally:
        os.close(write_fd)
    try:
        stdout, stderr = proc.communicate(timeout=timeout + 10)
    except subprocess.TimeoutExpired:  # spawn.py itself did not stop
        os.killpg(proc.pid, signal.SIGKILL)
        stdout, stderr = proc.communicate()
    except BaseException:  # interrupted: leave nothing running
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        os.close(read_fd)
        raise
    with os.fdopen(read_fd, "rb") as fh:
        report = fh.read().split()
    if not report:
        return Outcome(None, stdout, stderr, timeout, 0)
    code, wall_s, maxrss_kib, timed_out = report
    return Outcome(exit=None if int(timed_out) else int(code), stdout=stdout,
                   stderr=stderr, wall_s=float(wall_s),
                   maxrss_kib=int(maxrss_kib))


class Runner:
    """Runs CLI jobs from one checkout and checks them against golden digests."""

    def __init__(self, root: Path, golden: dict[str, dict], deadline: float):
        self.golden = golden
        self.deadline = deadline  # perf_counter time by which all jobs end
        paths = [str(root / "src"), os.environ.get("PYTHONPATH", "")]
        self.env = dict(os.environ,
                        PYTHONPATH=os.pathsep.join(p for p in paths if p))
        self.attempted = 0
        self.failures: list[str] = []

    def _timeout(self) -> float:
        return self.deadline - time.perf_counter()

    def check(self, argv: tuple[str, ...], exit: int | None,
              digest: str | None, stderr: bytes = b"") -> bool:
        """Count one attempt; record a failure on a timeout, a wrong exit
        code or a stdout digest that differs from the golden one."""
        self.attempted += 1
        key = job_key(argv)
        want = self.golden.get(key)
        if exit is None:
            problem = "timed out"
        elif want is None:
            problem = "has no golden digest"
        elif exit != want["exit"]:
            last = stderr.decode(errors="replace").strip().splitlines()[-1:]
            problem = f"exited {exit}, golden {want['exit']} {last}"
        elif digest != want["sha256"]:
            problem = f"stdout sha256 {digest}, golden {want['sha256']}"
        else:
            return True
        self.failures.append(f"{key}: {problem}")
        return False

    def run_cli(self, argv: tuple[str, ...]) -> Outcome:
        """A fresh ``python -m bigdescents.cli`` process, checked."""
        timeout = self._timeout()
        if timeout <= 0:
            outcome = Outcome(None, b"", b"", 0.0, 0)
        else:
            outcome = run_process(
                [sys.executable, "-m", "bigdescents.cli", *argv],
                self.env, timeout)
        self.check(argv, outcome.exit,
                   hashlib.sha256(outcome.stdout).hexdigest(), outcome.stderr)
        return outcome

    def run_reference(self, start: bool = False) -> float | None:
        """A fresh reference.py process, its compute or (``start``) its
        start-up form; returns its wall time, or None when the run's
        deadline has passed.  It is not a job of the program, so it counts
        toward neither ``attempted`` nor ``failures``."""
        timeout = self._timeout()
        if timeout <= 0:
            return None
        cmd, want = ([sys.executable, str(REFERENCE), "--start"], STARTED) \
            if start else ([sys.executable, "-I", "-S", str(REFERENCE)], CHECKSUM)
        outcome = run_process(cmd, self.env, timeout)
        if outcome.exit is None:
            return None
        if outcome.exit != 0 or outcome.stdout.decode().strip() != want:
            raise RuntimeError(f"reference.py exited {outcome.exit} and "
                               f"printed {outcome.stdout!r}, not {want!r}")
        return outcome.wall_s

    def run_traced(self, argv: tuple[str, ...], spans_file: Path):
        """The job in a traced child; returns its wall time (without the
        time spent writing spans) and its summary, or None on failure."""
        timeout = self._timeout()
        if timeout <= 0:
            self.check(argv, None, None)
            return None
        outcome = run_process(
            [sys.executable, str(BENCH_DIR / "traced_job.py"), str(spans_file),
             "--", *argv], self.env, timeout)
        if outcome.exit != 0:  # the child itself failed or timed out
            self.check(argv, outcome.exit, None, outcome.stderr)
            return None
        summary = json.loads(outcome.stdout)
        if not self.check(argv, summary["exit"], summary["sha256"]):
            return None
        return outcome.wall_s - summary["write_s"], summary
