"""Public surface: every name `v2xric.__all__` exports exists, once."""

from collections import Counter

import v2xric


def test_every_exported_name_resolves_once():
    repeated = [name for name, count in Counter(v2xric.__all__).items() if count > 1]
    missing = [name for name in v2xric.__all__ if not hasattr(v2xric, name)]
    assert repeated == [] and missing == [], (repeated, missing)
