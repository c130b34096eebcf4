"""Scalar reference for the seeded per-link outage draw.

Used by the tests as an oracle for `channel.outage_uniform`, the batched
draw `streams.sense` makes for every measured link: the same
splitmix64-style avalanche written with plain Python integers, one link at
a time, with none of the production uint64 arrays.
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1
_PHI64 = 0x9E3779B97F4A7C15
_MIX_C1 = 0xBF58476D1CE4E5B9
_MIX_C2 = 0x94D049BB133111EB


def _mix64(z: int) -> int:
    z = ((z ^ (z >> 30)) * _MIX_C1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_C2) & _MASK64
    return z ^ (z >> 31)


def _link_uniform_int(seed: int, code_a: int, code_b: int, tick_ms: int) -> float:
    # codes are canonical (code_a <= code_b)
    h = _mix64((seed ^ _PHI64) & _MASK64)
    h = _mix64(h ^ (((code_a << 22) | code_b) & _MASK64))
    h = _mix64(h ^ (tick_ms & _MASK64))
    return (h >> 11) * 2.0 ** -53


def stochastic_blockage(p_b: float, link_key, t: float, seed: int) -> bool:
    """Deterministic Bernoulli outage draw for one link (a pair of NodeIds) at
    one report instant t, in seconds."""
    a, b = link_key
    ca, cb = sorted((a.code, b.code))
    return _link_uniform_int(int(seed), ca, cb, int(round(t * 1000.0))) < p_b
