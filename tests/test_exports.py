"""The package's public names."""

import bigdescents


def test_every_export_resolves_once():
    names = bigdescents.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(bigdescents, name)] == []
