"""Public surface: every name `v2xric.__all__` exports exists, once, and the
package exports nothing else."""

import types
from collections import Counter

import numpy as np

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


def test_the_forwarding_table_is_a_bare_array():
    """The RAN's forwarding state is the int32 array `forwarding_table`
    returns; the ForwardingTable wrapper class is gone."""
    assert "ForwardingTable" not in v2xric.__all__
    assert not hasattr(v2xric, "ForwardingTable") and not hasattr(ran, "ForwardingTable")
    table = v2xric.forwarding_table(3, 2)
    assert type(table) is np.ndarray and table.dtype == np.int32
    assert table.shape == (3, 2) and (table == -1).all()
