"""Every generating-function expansion at order 12 against recorded digests.

``golden_series.json`` holds the sha256 of ``TruncatedSeries.pretty()`` for
each closed-form expansion (``R_run`` at r = 2 and r = 3) and each
functional-equation expansion.  The digests were recorded before the
coefficient kernel stored integers natively, so a kernel rewrite must
reproduce the old series byte for byte.

Re-record (only after an intended change of output) with
``PYTHONPATH=src python tests/test_golden_series.py``.

``F_SERIES_STDOUT`` pins the stdout of ``series --id F`` at three orders
above 12, up to the series guard (30), where F's default (functional) route
meets its largest coefficients.
"""

import hashlib
import json
from pathlib import Path

import pytest

from bigdescents.cli import main
from bigdescents.genfun import GF_IDS, expand, expand_functional

ORDER = 12
GOLDEN_PATH = Path(__file__).with_name("golden_series.json")


def _jobs():
    for gf_id, info in GF_IDS.items():
        if info.needs_r:
            for r in (2, 3):
                yield f"expand:{gf_id}:r={r}", lambda i=gf_id, r=r: expand(i, ORDER, r)
        else:
            yield f"expand:{gf_id}", lambda i=gf_id: expand(i, ORDER)
        if info.functional is not None:
            yield (f"expand_functional:{gf_id}",
                   lambda i=gf_id: expand_functional(i, ORDER))


JOBS = dict(_jobs())


def digest(key: str) -> str:
    return hashlib.sha256(JOBS[key]().pretty().encode()).hexdigest()


def test_golden_file_covers_every_expansion():
    golden = json.loads(GOLDEN_PATH.read_text())
    assert sorted(golden) == sorted(JOBS)
    # F's two routes (composition and pulled-back quadratic) print one series
    assert golden["expand_functional:F"] == golden["expand:F"]


@pytest.mark.parametrize("key", sorted(JOBS))
def test_series_matches_golden_digest(key):
    assert digest(key) == json.loads(GOLDEN_PATH.read_text())[key]


F_SERIES_STDOUT = {
    20: "54412cf39c2294a14dbf34421e604c7724aa5cd1c68ac35e02611639c47b1a49",
    24: "b4f6d4f27f84c373b47d092dadc635ad724062758f15ee8a5cf14d7dea13086d",
    30: "006320ae8a029f8b009ea51e4b77dbcef37fcc0104d8caba2dd0cd44f91477e0",
}


@pytest.mark.parametrize("order", sorted(F_SERIES_STDOUT))
def test_f_series_stdout_matches_golden_digest(capsys, order):
    assert main(["series", "--id", "F", "--order", str(order)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == F_SERIES_STDOUT[order]


if __name__ == "__main__":
    GOLDEN_PATH.write_text(
        json.dumps({key: digest(key) for key in sorted(JOBS)}, indent=1) + "\n")
