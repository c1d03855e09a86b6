"""The stdout of the bijection checks and of the weak-excedance tables
against recorded digests.

Each digest is the sha256 of the job's stdout through ``cli.main``, recorded
while ``verify_transfer`` still ran chi's reversed identities in a second
tally over S_n(123), the onto-Dyck rows enumerated the omega domains a
second time, and ``hibasc``/``lobasc`` built the weak-excedance set on every
call.  So the one-pass checks must print the same lines, witnesses and
populations byte for byte.  The json digest of ``--max-n 10`` was recorded
while every transfer read its domain from ``enumerate_avoiders``, collected
and sorted, and every map validated the path or word it built, before the
transfers read the unordered depth-first stream and the maps built their
images unchecked.
"""

import hashlib

import pytest

from bigdescents.cli import main

STDOUT_DIGESTS = {
    ("verify", "--scope", "bijections", "--max-n", "9"):
        "f68b78a15f208976f75249ea28fb0ba8977f32a828d2a3805ff91f1619278204",
    ("verify", "--scope", "bijections", "--max-n", "8", "--format", "json"):
        "54461f2b065dbb56adc4dcecc80820e541f41aba8b2cdd8e1333ee5c27c6582b",
    ("verify", "--scope", "bijections", "--max-n", "10", "--format", "json"):
        "7a6a12ff09cb7231e7d24838d482c0b4154448ce8e9e55c2c3d29bc7eb769c5b",
    ("bijection", "--id", "chi", "--verify-n", "9"):
        "bd6f9e3711a14e0cf4c2a247d20f0f7284b2bb5f40e888cf536b23ef9f75a978",
    ("bijection", "--id", "omega_f", "--verify-n", "9"):
        "2278fccf043bdaed7d8df81011123fb0b6f50aa528d0ec25c81e35372606110f",
    ("bijection", "--id", "omega_l", "--verify-n", "9"):
        "4a775784cfa1f09450d67c0023ee10044e0a1705c5973ec70db359dea8de83b1",
    ("bijection", "--id", "psi", "--verify-n", "9"):
        "bd0510a8438c6f9c3dd3fd46db8ba1641f32dde10a027b18b9c225a11273693d",
    ("bijection", "--id", "chi", "--verify-n", "9", "--format", "json"):
        "182b415b102c69121a867f7d6c0053996d15fb74611180c91cf79d569bd09ef3",
    ("table", "--patterns", "321", "--n", "9", "--stat", "hibasc"):
        "a270b6c9a9e0a67cc3f230fec925480a7ce45103550ac73d127e6df1dc6996f9",
    ("table", "--patterns", "321", "--n", "9", "--stat", "lobasc"):
        "84237153b2a6f22f4ed4878aa50d667d15c394aa8d42ed02e6d119c499167a7b",
}


@pytest.mark.parametrize("argv", sorted(STDOUT_DIGESTS),
                         ids=lambda argv: " ".join(argv))
def test_stdout_matches_recorded_digest(capsys, argv):
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_DIGESTS[argv]
