"""The package's public names."""

import bluffsolve


def test_every_exported_name_resolves():
    assert [name for name in bluffsolve.__all__ if not hasattr(bluffsolve, name)] == []
