"""Exception types shared across the simulator, and the integer check of
the config boundary."""

from numbers import Integral


class ConfigurationError(ValueError):
    """A config value is out of range, unknown, or jointly infeasible."""


class MeasurementError(ValueError):
    """A link measurement was requested for degenerate geometry."""


def require_int(name: str, value) -> None:
    """Refuse a `value` for `name` that is not an integer; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ConfigurationError(f"{name} must be an integer: {value!r}")
