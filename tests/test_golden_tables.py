"""The stdout of the longest table and scan jobs against recorded digests.

Each digest is the sha256 of the job's stdout through ``cli.main``, recorded
from the depth-first generating tree that visits every avoider, before the
merged walk of ``perms.distribution_rows`` existed.  So the merged walk must
reproduce the exhaustive tables byte for byte at the default guards.
"""

import hashlib

import pytest

from bigdescents.cli import main

STDOUT_DIGESTS = {
    ("table", "--patterns", "231", "--n", "14"):
        "6cb7149c2a1d252b287ff23b2e51df8f356f9cae7653016dac49188820bd90ec",
    ("table", "--patterns", "123", "--n", "14"):
        "79ead99f7dbdf2ff2a52c4f72fa6f68fad1ca1f7c6b244babb0f79a772914e52",
    ("table", "--patterns", "132", "--n", "14"):
        "c51640d5517526d44e95d5f8c50495bdfe084476bed91fa6c1cbdc75eee33a96",
    ("table", "--patterns", "", "--n", "11"):
        "9c0565ac969dcd5b566dac5bc68153df25cd36456a7cadfd68b41b14b38f7d76",
    ("table", "--patterns", "", "--n", "11", "--stat", "des_r(2)"):
        "9854ce6554d707c769b88d7b857150f16242a75b385087dfd005474412afead4",
    ("conjecture", "--which", "real-rooted", "--max-n", "14"):
        "a287cb893c8b2e60221921ba4e5d662ea5d9e196a8820ea0406bd2b9be77f4cc",
}


@pytest.mark.parametrize("argv", sorted(STDOUT_DIGESTS),
                         ids=lambda argv: " ".join(argv))
def test_stdout_matches_recorded_digest(capsys, argv):
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_DIGESTS[argv]
