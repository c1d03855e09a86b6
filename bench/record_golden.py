"""Record bench/golden.json: exit code and stdout sha256 of every job.

Usage, from the root of a checkout of the commit whose outputs are the
reference: python3 bench/record_golden.py

Covers the set-up job, every README example and every variant the seed can
pick for every workload job.  The benchmark compares each run against this
file, so record it only from a commit whose outputs are known to be right.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from jobs import GOLDEN_FILE, Runner, golden_argvs, job_key  # noqa: E402


def main() -> int:
    root = Path.cwd()
    runner = Runner(root, {}, deadline=time.perf_counter() + 3600)
    golden = {}
    for argv in golden_argvs(root):
        outcome = runner.run_cli(argv)
        if outcome.exit is None:
            print(f"timed out: {job_key(argv)}", file=sys.stderr)
            return 1
        golden[job_key(argv)] = {
            "exit": outcome.exit,
            "sha256": hashlib.sha256(outcome.stdout).hexdigest()}
        print(f"{outcome.wall_s:7.2f} s  exit {outcome.exit}  {job_key(argv)}")
    with open(GOLDEN_FILE, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
