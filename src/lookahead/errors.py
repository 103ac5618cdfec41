"""Exception types shared across the package, and the integer check of config fields."""

import dataclasses
import functools


class DataError(ValueError):
    """A dataset is empty, too small, or internally inconsistent."""


class StateError(RuntimeError):
    """An operation was applied to an object in the wrong state."""


@functools.cache
def _int_fields(cls: type) -> tuple[str, ...]:
    return tuple(f.name for f in dataclasses.fields(cls) if f.type in (int, "int"))


def require_ints(obj: object) -> None:
    """Raise ValueError naming the first ``int``-annotated field of dataclass ``obj``
    that does not hold a plain int (a bool does not count)."""
    for name in _int_fields(type(obj)):
        value = getattr(obj, name)
        if type(value) is not int:
            raise ValueError(f"{name} must be an integer, got {value!r}")
