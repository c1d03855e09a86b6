"""The stdout of the longest table, scan and quasisymmetric jobs against
recorded digests.

Each digest is the sha256 of the job's stdout through ``cli.main``.  The
table and real-rooted digests were recorded from the depth-first generating
tree that visits every avoider, before the merged walk of
``perms.distribution_rows`` existed; the qsym, Schur-scan and des_r(2)
digests from the avoider enumeration of ``symfunc`` and the walk keyed by
``perms._signature``, before either became a client of ``merged.walk``.  So
the merged walks must reproduce the exhaustive outputs byte for byte.  The
rbdes, basc and lbasc digests were recorded while each had its own loop,
evaluated on every avoider, before the tables read them as des_r(1) of a
padded or reversed word.  The rbdes and lbasc digests over 231, over S_10
and over {132, 213} at length 13 were recorded from the depth-first tree,
before the merged walk took padded words, whose end sentinel is 0.  The
qsym digest over 1234 at length 9 was recorded while ``symfunc`` read the
avoiders of a class with a longer pattern from ``enumerate_avoiders``,
collected and sorted, before it read the unordered depth-first stream.
The pk, sdes, lddes and hibasc digests and the 2143 b-file were recorded
while the tree's tally was a recursive descent of its own, before it and
the stream shared one depth-first walk.
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
    ("table", "--patterns", "213,231", "--n", "14", "--stat", "des_r(2)"):
        "d20bbcaec12781bf441e4ca89bb7305c3bef045a4bfd6464da66ac4d2c1e5cd2",
    ("conjecture", "--which", "schur-positive", "--max-n", "8"):
        "34af70da544ff75a1bc36b7b7b3d595d79e1de6713463a81e1856bcf02348643",
    ("qsym", "--patterns", "", "--n", "10", "--basis", "schur",
     "--max-n", "10"):
        "d6002c709aa58f20c9ffcc490a4abdd05d13f531e449a726a53cbf9b3f8ef21c",
    ("qsym", "--patterns", "123", "--n", "12", "--basis", "fundamental",
     "--max-n", "12"):
        "79d3a3961d2dd74ac1963fc449071a35cb207dccc9625123525f7db17181ba46",
    ("qsym", "--patterns", "231", "--n", "10", "--basis", "monomial",
     "--max-n", "10"):
        "fc2c0fbedc4b4a36b40481bf6baad19439ac973748147286b416418af98ddb53",
    ("table", "--patterns", "231", "--n", "12", "--stat", "basc",
     "--format", "json"):
        "8463bc4bc21393cad6b973214af364f5b5c7f90766886f63e621755d1bc9d933",
    ("table", "--patterns", "1234", "--n", "9", "--stat", "basc"):
        "f5eb52753054cb6ce977d4960fc0cb55f0344056ab58cbb1f3b67e9e1a3cf814",
    ("table", "--patterns", "", "--n", "9", "--stat", "rbdes"):
        "ea98f1ca2ece55d065da57fcb0d581af271593e39088b9486afb350e1fefdf6c",
    ("table", "--patterns", "2143", "--n", "9", "--stat", "lbasc"):
        "4364189a4c38daa786c244ec140236df0ca6f631477e7d3798bf354f7573dc57",
    ("table", "--patterns", "132,213", "--n", "12", "--stat", "lbasc",
     "--format", "bfile"):
        "15f5ba28880ab88d30cc7b5028fe739ea09f1102c481e877dda77d392ddac675",
    ("table", "--patterns", "231", "--n", "13", "--stat", "rbdes"):
        "aa9bc6026b94a041ecaaf44fd5c27ea0c18a1cd47fe14dcfceb91c8a3dd892fc",
    ("table", "--patterns", "231", "--n", "13", "--stat", "lbasc"):
        "b9a5eecf887e9d8d736a51cc309fdb783268d0b031a96cec40b6119ffd105a9e",
    ("table", "--patterns", "", "--n", "10", "--stat", "lbasc"):
        "7aa37a352c1ae4c12446efdc55110d62755abe6654a22e7c0b8cc61e06cde846",
    ("table", "--patterns", "132,213", "--n", "13", "--stat", "rbdes",
     "--format", "bfile"):
        "034df19071ec8113bc02531aac7706876de69375c49119ae91e5b38c28fa97f1",
    ("qsym", "--patterns", "1234", "--n", "9", "--basis", "fundamental",
     "--max-n", "9"):
        "99438b634368a7950c2dcde9180d035e8fea0da0d59281ae87a8ba760df91af9",
    ("table", "--patterns", "231", "--n", "12", "--stat", "pk"):
        "f93b7940de9750bbedbebb6469e4321363b0a81a3a5bcde0e82c78994d106364",
    ("table", "--patterns", "132", "--n", "12", "--stat", "sdes"):
        "3fcdd16357258d8184ed0d539b6e7c0676606d709c2377a5704d21dfc1019084",
    ("table", "--patterns", "1324", "--n", "9", "--stat", "lddes"):
        "f5988a76f9fa599ccd1c7d12c9e6c0c18db67bcc278849694811a31a0aae2fee",
    ("table", "--patterns", "", "--n", "9", "--stat", "hibasc"):
        "650be6930c29eb1c8fc9d6cf1d942a7d03e7ab1eb6a71a85b1a12357052f9579",
    ("table", "--patterns", "2143", "--n", "10", "--format", "bfile"):
        "fa346ebfddc1c6b50c8b76d09fe6f2c6b750f4feecba0523d401d62e7d6c011b",
}


@pytest.mark.parametrize("argv", sorted(STDOUT_DIGESTS),
                         ids=lambda argv: " ".join(argv))
def test_stdout_matches_recorded_digest(capsys, argv):
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_DIGESTS[argv]
