"""Exception types shared across the simulator, and the one check of the
config boundary: every configuration key declares its domain on its
dataclass field (`config_key`), and `check_keys` holds a section to them."""

import math
from collections.abc import Sequence
from dataclasses import Field, field, fields
from functools import cache
from numbers import Integral, Real

import numpy as np


class ConfigurationError(ValueError):
    """A config value is out of range, unknown, or jointly infeasible."""


class MeasurementError(ValueError):
    """A link measurement was requested for degenerate geometry."""


def require_int(name: str, value) -> None:
    """Refuse a `value` for `name` that is not an integer; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ConfigurationError(f"{name} must be an integer: {value!r}")


def config_key(default, domain) -> Field:
    """A configuration key's field: its `default` and its `domain`, what the
    annotation does not already say. The domain of a number is an interval
    written "[lo, hi)" and the like (a bound may be inf, or a power such as
    2^63); of a str or bool, the tuple of its values; of a grid
    (`tuple[float, ...]`), the field of the key each of its values must pass."""
    return field(default=default, metadata={"domain": domain})


def _bound(text: str):
    base, _, power = text.strip().partition("^")
    return int(base) ** int(power) if power else float(base)


@cache  # the few intervals the fields declare
def bounds(interval: str) -> tuple[float, bool, float, bool]:
    """(lo, lo_open, hi, hi_open) of an interval written "(lo, hi]" and the like."""
    lo, hi = map(_bound, interval[1:-1].split(","))
    return lo, interval[0] == "(", hi, interval[-1] == ")"


def within(interval: str, value) -> bool:
    """Whether `value` lies in `interval`."""
    lo, lo_open, hi, hi_open = bounds(interval)
    return (lo < value if lo_open else lo <= value) and (value < hi if hi_open else value <= hi)


def check_keys(section) -> None:
    """Hold every key of a config dataclass `section` to its field's domain."""
    for key in fields(section):
        if "domain" in key.metadata:
            _check(key, getattr(section, key.name))


def _check(key: Field, value) -> None:
    """Refuse a `value` outside `key`'s domain, naming the key. The annotation
    says whether None passes, and the type: a float is any finite real number
    but a bool, an int any integer but a bool, a bool a bool or `np.bool_`,
    a grid a non-empty sequence (a tuple or a list) of distinct values."""
    name, domain = key.name, key.metadata["domain"]
    kind = key.type.removesuffix(" | None")
    if value is None and kind != key.type:
        return
    if kind == "tuple[float, ...]":
        if not isinstance(value, Sequence):
            raise ConfigurationError(f"{name} must be a sequence of numbers: {value!r}")
        if not value:
            raise ConfigurationError(f"{name} must be non-empty")
        for each in value:
            try:
                _check(domain, each)
            except ConfigurationError as exc:
                raise ConfigurationError(f"invalid value for {name}: {exc}") from None
        if len(set(value)) < len(value):  # a repeat would run and summarise a cell twice
            raise ConfigurationError(f"{name} must hold distinct values: {value!r}")
        return
    if kind == "int":
        require_int(name, value)
    elif kind == "bool" and not isinstance(value, (bool, np.bool_)):
        raise ConfigurationError(f"{name} must be a bool: {value!r}")
    elif kind == "float":
        if isinstance(value, bool) or not isinstance(value, Real):
            raise ConfigurationError(f"{name} must be a real number: {value!r}")
        if not math.isfinite(value):
            raise ConfigurationError(f"invalid value for {name}: {value} (must be finite)")
    if isinstance(domain, tuple):
        if value not in domain:
            raise ConfigurationError(f"{name} must be one of {domain}: {value}")
    elif not within(domain, value):
        raise ConfigurationError(f"{name} out of range {domain}: {value}")
