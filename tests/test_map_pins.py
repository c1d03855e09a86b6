"""Every bijection and its inverse against recorded digests of their images.

For each map, the images of its whole domain at n = 8, written as text in
the domain's lexicographic order (`enumerate_avoiders`, `iter_dyck_paths`)
and joined by newlines, hash to a recorded sha256; for
each inverse, likewise the preimages of its whole codomain.  Round trips and
the golden tables pass when a map and its inverse change in the same wrong
way; these pins do not.
"""

import hashlib

import pytest

from bigdescents import bijections as bj
from bigdescents.paths import iter_dyck_paths
from bigdescents.perms import enumerate_avoiders, format_permutation
from oracles import iter_binary_words, iter_two_motzkin

N = 8


def _codomain(name: str):
    if name == "psi":
        return iter_two_motzkin(N - 1)
    if name in ("chi", "omega_f", "omega_l"):
        return iter_dyck_paths(N)
    if name in ("phi_213_231", "phi_213_312"):
        return iter_binary_words(N - 1)
    return (w for w in iter_binary_words(N) if w.bits.endswith("1"))


def _digest(images) -> str:
    text = "\n".join(format_permutation(y) if isinstance(y, tuple) else str(y)
                     for y in images)
    return hashlib.sha256(text.encode()).hexdigest()


# name: (sha256 of the forward images, sha256 of the inverse images).  Two
# pairs of forward digests coincide: over their lexicographically ordered
# domains, phi_123_132 and phi_132_213 (both rlmax_word), and phi_213_231
# and phi_213_312, list the same words in the same order.
MAP_DIGESTS = {
    "chi": (
        "284a4b828f1bc5b267bbd7d1ac31f83ba8ac9e057233ce35cc3010c63fdbf53c",
        "12e8ad2ab9bf23522f7677aaddf9fbf418edff611f0ab8deeb25ef65a82b2379",
    ),
    "omega_f": (
        "0318e1434a383009642ff6f6a03b2a70f22bf207081100e53cf0b6df12c73740",
        "781a63bd696ac57395178536aae22499c558b71306a08624dd9ea6cedf72865d",
    ),
    "omega_l": (
        "851ec1297849f3a60f1677581ad947c2d93136ca27dac26d22e6d15c4a057967",
        "186331a8c100747c9069102c2a943c439646ba8d2d2c397adcf87a89acd59b4a",
    ),
    "phi_123_132": (
        "eda7dfb315b7c3c213e3cb1cf98ec7b957e7eddd455053561b3775f209c24654",
        "90387b90f4dedfbd5e110ae355d02d4c5f7b7fadf0d9382f5e45fe5d3ad87b20",
    ),
    "phi_132_213": (
        "eda7dfb315b7c3c213e3cb1cf98ec7b957e7eddd455053561b3775f209c24654",
        "7cb0e5ddcd05c99f1a9c840c19261f19f2a1da5eadfd715db929836749ce5d7e",
    ),
    "phi_213_231": (
        "37824733c62c6443569022df3b3a132f7020ce98e389043529d99cdfe23f555b",
        "86543ce3c432f127105e85d6f897311835c982be35799f2cc92bea7cea41ad41",
    ),
    "phi_213_312": (
        "37824733c62c6443569022df3b3a132f7020ce98e389043529d99cdfe23f555b",
        "7ff8631c0a943063990bde913ea8f7fc8f259eec484c23a9a4a7c8e944bc119e",
    ),
    "phi_231_321": (
        "1fe796d06e089adf150bbaf5f1f0f1d43b6b6560ca27caa57ec0f5f1e7fd4a5f",
        "994422c4bba57f70d45c5476a5742a11f9bbc0c63949a18f77dd6fc1a76dc838",
    ),
    "psi": (
        "a056119734eff69999db39d186ffb0d6d8c4d80eab7316a1b7b25450349bc4f1",
        "d0f6ae03a6ea5305befad78c366549aefe5dbf2b48cdd65f9189d24821fab693",
    ),
}


@pytest.mark.parametrize("name", sorted(bj.BIJECTIONS))
def test_forward_images_match_recorded_digest(name):
    b = bj.BIJECTIONS[name]
    domain = (iter_dyck_paths(N) if b.domain_patterns is None
              else enumerate_avoiders(N, b.domain_patterns))
    assert _digest(map(b.forward, domain)) == MAP_DIGESTS[name][0]


@pytest.mark.parametrize("name", sorted(bj.BIJECTIONS))
def test_inverse_images_match_recorded_digest(name):
    b = bj.BIJECTIONS[name]
    assert _digest(map(b.backward, _codomain(name))) == MAP_DIGESTS[name][1]
