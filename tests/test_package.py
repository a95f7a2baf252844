"""The package's public surface."""

import crsing


def test_every_exported_name_resolves():
    missing = [name for name in crsing.__all__ if not hasattr(crsing, name)]
    assert missing == []
    assert len(set(crsing.__all__)) == len(crsing.__all__)
