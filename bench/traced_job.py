"""Run one CLI job in this process under the tracer.

Usage: python3 bench/traced_job.py SPANS_FILE -- CLI_ARGS...

Imports ``bigdescents`` (from PYTHONPATH), wraps the traced functions, calls
``cli.main(CLI_ARGS)`` with stdout captured, writes the recorded spans to
SPANS_FILE as JSON lines, and prints one JSON object: the exit code, the
sha256 of the captured stdout, the import time, the tracer's counts and self
times, the Kostka cache statistics and the time spent writing spans.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Tracer, install  # noqa: E402


def main(argv: list[str]) -> int:
    spans_file, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: traced_job.py SPANS_FILE -- CLI_ARGS...")
    start = time.perf_counter()
    import bigdescents.cli
    import_s = time.perf_counter() - start

    tracer = Tracer()
    install(tracer)
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        try:
            code = bigdescents.cli.main(cli_args)
        except SystemExit as exc:  # argparse rejects bad input this way
            code = exc.code if isinstance(exc.code, int) else 1
    kostka = bigdescents.symfunc.kostka.cache_info()

    start = time.perf_counter()
    tracer.write_spans(spans_file)
    write_s = time.perf_counter() - start
    print(json.dumps({
        "exit": code,
        "sha256": hashlib.sha256(captured.getvalue().encode()).hexdigest(),
        "import_s": import_s,
        "kostka": [kostka.hits, kostka.misses],
        "write_s": write_s,
        **tracer.summary(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
