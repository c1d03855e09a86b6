"""The exhaustive checks and the tree tally hold only the current path of
their walk.

Each job's Python allocations, traced after one warm-up call, must peak
below 256 KiB.  Collecting the 16,796 avoiders of `verify_transfer("chi",
10)` alone would take over 2 MiB, so a stream that lists its leaves fails.
"""

import tracemalloc

import pytest

from bigdescents import bijections, perms, symfunc, verify

LIMIT = 256 * 1024

JOBS = {
    "chi transfer at 10": lambda: bijections.verify_transfer("chi", 10),
    "check_bijections(9)": lambda: verify.check_bijections(9),
    "qsym over 1234 at 8": lambda: symfunc.qsym_sum(8, [(1, 2, 3, 4)]),
    "tree pk over 231 at 11": lambda: perms.tree_rows(11, [(2, 3, 1)], "pk"),
}


def traced_peak(job) -> int:
    job()  # lazy imports and caches are not the walk's
    tracemalloc.start()
    try:
        job()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name", JOBS)
def test_peak_is_below_the_limit(name):
    assert traced_peak(JOBS[name]) < LIMIT


# one job per client of the stream: the transfers and the descent-set sums
@pytest.mark.parametrize("name", ["chi transfer at 10", "qsym over 1234 at 8"])
def test_a_stream_that_lists_its_leaves_fails(monkeypatch, name):
    stream = perms.avoider_stream

    def listing(n, patterns, limits):
        return iter(list(stream(n, patterns, limits)))

    monkeypatch.setattr(perms, "avoider_stream", listing)
    assert traced_peak(JOBS[name]) >= LIMIT
