"""Node identities as objects: the oracle for the package's node codes.

The package names a node by its view slot and its integer code, packed and
unpacked by `v2xric.ran.node_codes` and `v2xric.ran.kinds`. Tests and the
per-node oracles name nodes by this `NodeId` instead: a (kind, index) tuple
whose order is the code order, and whose `code` is the code the package
builds for it.
"""

from __future__ import annotations

from collections import namedtuple

from v2xric import ConfigurationError, NodeKind
from v2xric.ran import _INDEX_BITS


class NodeId(namedtuple("NodeId", "kind index")):
    """Total order is (kind, index); `code` packs both into one integer.

    A tuple underneath, so the hashing, equality and ordering that every
    table, graph and forwarding lookup leans on run at C speed.
    """

    __slots__ = ()

    def __new__(cls, kind: NodeKind, index: int) -> "NodeId":
        if not (0 <= index < (1 << _INDEX_BITS)):
            raise ConfigurationError(f"node index out of range [0, 2^20): {index}")
        return super().__new__(cls, kind, index)

    @property
    def code(self) -> int:
        return (int(self.kind) << _INDEX_BITS) | self.index

    @classmethod
    def from_code(cls, code: int) -> "NodeId":
        """The NodeId whose `code` is `code`."""
        code = int(code)
        return cls(NodeKind(code >> _INDEX_BITS), code & ((1 << _INDEX_BITS) - 1))

    def __str__(self) -> str:
        return f"{self.kind.name}-{self.index}"
