"""Public surface: every name `v2xric.__all__` exports exists, once, and the
package exports nothing else."""

import types
from collections import Counter

import v2xric
from v2xric import ran


def test_every_exported_name_resolves_once():
    repeated = [name for name, count in Counter(v2xric.__all__).items() if count > 1]
    missing = [name for name in v2xric.__all__ if not hasattr(v2xric, name)]
    assert repeated == [] and missing == [], (repeated, missing)


def test_public_names_are_the_exported_ones():
    """`__init__`'s imports and `__all__` list the same names."""
    public = {name for name, value in vars(v2xric).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == set(v2xric.__all__) - {"__version__"}


def test_node_ids_left_the_package():
    """Nodes are named by view slot and code alone; the NodeId class is the
    test oracle `reference_ids`."""
    assert "NodeId" not in v2xric.__all__
    assert not hasattr(v2xric, "NodeId") and not hasattr(ran, "NodeId")
