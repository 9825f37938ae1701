"""The package's public surface."""

import twistsense


def test_every_exported_name_resolves_once():
    names = twistsense.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(twistsense, name)] == []
