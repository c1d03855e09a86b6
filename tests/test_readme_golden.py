"""Every ``bigdescents ...`` example in the README, run in-process, must give
the exit code and stdout sha256 recorded in ``bench/golden.json``.

The README examples, their golden digests and the key that joins them come
from ``bench/jobs.py``, so this gate and the benchmark check the same thing.
"""

import contextlib
import hashlib
import io
import sys
from pathlib import Path

import pytest

from bigdescents.cli import main

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

from jobs import job_key, load_golden, readme_jobs  # noqa: E402

README_JOBS = readme_jobs(ROOT / "README.md")
GOLDEN = load_golden()


def mismatch(argv, golden):
    """None when ``argv`` reproduces its golden entry, else what differs."""
    want = golden.get(job_key(argv))
    if want is None:
        return "no golden digest"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
    if code != want["exit"]:
        return f"exit {code}, golden {want['exit']}"
    if digest != want["sha256"]:
        return f"stdout sha256 {digest}, golden {want['sha256']}"
    return None


def test_readme_has_examples():
    assert len(README_JOBS) >= 10


@pytest.mark.parametrize("argv", README_JOBS, ids=job_key)
def test_readme_example_matches_golden(argv):
    assert mismatch(argv, GOLDEN) is None


def test_gate_fails_on_an_altered_digest():
    argv = README_JOBS[0]
    altered = dict(GOLDEN)
    entry = dict(altered[job_key(argv)])
    entry["sha256"] = hashlib.sha256(b"not the output").hexdigest()
    altered[job_key(argv)] = entry
    assert mismatch(argv, altered).startswith("stdout sha256")
    assert mismatch(argv, GOLDEN) is None
