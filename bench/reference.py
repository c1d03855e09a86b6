"""Fixed work that gauges how fast the host runs now.

Usage: python3 -I -S bench/reference.py     (compute)
       python3 bench/reference.py --start   (start-up)

The benchmark runs this as a fresh process next to its jobs and scales its
timings by how long this took (see run.py).  The compute form mixes what the
jobs spend their time on: Fraction and big-integer arithmetic, tuple
permutations and dict updates; it prints ``CHECKSUM``.  The start-up form
starts the interpreter with ``site``, imports the standard modules that
``bigdescents`` imports and prints ``STARTED``.  Neither imports
``bigdescents``, so no change to the program changes their time.
"""

import itertools
import sys
from fractions import Fraction

ROUNDS = 36
CHECKSUM = "5052 2522"
STARTED = "started"


def chunk() -> tuple[int, int]:
    total = Fraction(0)
    for i in range(1, 1500):
        total += Fraction(1, i % 97 + 1)
    ascents = 0
    for perm in itertools.permutations(range(6)):
        ascents += perm[0] < perm[1]
    counts: dict[int, int] = {}
    for i in range(10000):
        key = i * 7 % 1009
        counts[key] = counts.get(key, 0) + 1
    return total.numerator % 10007, ascents * len(counts) // 144


def main(argv: list[str]) -> None:
    if argv == ["--start"]:
        import argparse, dataclasses, functools, json, math, typing  # noqa: E401,F401
        print(STARTED)
        return
    results = {chunk() for _ in range(ROUNDS)}
    print(" ".join(f"{a} {b}" for a, b in sorted(results)))


if __name__ == "__main__":
    main(sys.argv[1:])
