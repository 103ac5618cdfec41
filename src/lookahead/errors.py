"""Exception types shared across the package, the type check of config fields,
and the key check of artifact documents."""

import dataclasses
import functools
import math


class DataError(ValueError):
    """A dataset is empty, too small, or internally inconsistent."""


class StateError(RuntimeError):
    """An operation was applied to an object in the wrong state."""


def is_number(value: object) -> bool:
    # a bool is neither; JSON NaN and Infinity parse to floats, but no setting takes them
    return type(value) is int or (isinstance(value, float) and math.isfinite(value))


def _are_numbers(value: object) -> bool:
    return isinstance(value, (tuple, list)) and all(is_number(v) for v in value)


# field annotation -> (test of a value, what a value must be)
_FIELD_TYPES = {
    "int": (lambda v: type(v) is int, "an integer"),
    "float": (is_number, "a number"),
    "float | None": (lambda v: v is None or is_number(v), "a number or null"),
    "tuple[float, ...]": (_are_numbers, "a list of numbers"),
    "tuple[float, float, float]": (lambda v: _are_numbers(v) and len(v) == 3, "a list of 3 numbers"),
}


@functools.cache
def _typed_fields(cls: type) -> tuple[tuple[str, object, str], ...]:
    return tuple((f.name, *_FIELD_TYPES[f.type]) for f in dataclasses.fields(cls)
                 if f.type in _FIELD_TYPES)


def require_keys(doc: object, keys: tuple[str, ...], source: object) -> dict:
    """``doc``, once it is a JSON object holding every one of ``keys``; otherwise a
    DataError naming ``source`` (the file the document came from) and the first missing key."""
    if not isinstance(doc, dict):
        raise DataError(f"{source} must be a JSON object, got {type(doc).__name__}")
    for key in keys:
        if key not in doc:
            raise DataError(f"{source}: missing key {key!r}")
    return doc


def require_types(obj: object) -> None:
    """Raise ValueError naming the first ``int``- or ``float``-annotated field of
    dataclass ``obj`` whose value does not fit: an int field holds a plain int, a
    float field an int or a finite float, a float tuple a list or tuple of them;
    a bool is none of these."""
    for name, test, what in _typed_fields(type(obj)):
        value = getattr(obj, name)
        if not test(value):
            raise ValueError(f"{name} must be {what}, got {value!r}")
