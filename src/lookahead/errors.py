"""Exception types shared across the package, the type check of every field read
from a file, and the parse and key check of artifact documents."""

import dataclasses
import functools
import json
import math
import sys


class DataError(ValueError):
    """A dataset is empty, too small, or internally inconsistent."""


def is_number(value: object) -> bool:
    # a bool is neither; JSON NaN and Infinity parse to floats and an integer beyond
    # the float range has no float, so no setting takes them
    return ((type(value) is int and -sys.float_info.max <= value <= sys.float_info.max)
            or (isinstance(value, float) and math.isfinite(value)))


def are_numbers(value: object) -> bool:
    """Whether ``value`` is a list or tuple whose every entry ``is_number``."""
    if not isinstance(value, (tuple, list)):
        return False
    for v in value:
        if type(v) is not float:
            return all(map(is_number, value))
    # all floats, as every written state parses: one sum finds a NaN or an infinity,
    # and only a sum that overflows is checked value by value
    return math.isfinite(sum(value)) or all(map(is_number, value))


# field annotation -> (test of a value, what a value must be)
_FIELD_TYPES = {
    "bool": (lambda v: type(v) is bool, "true or false"),
    "str": (lambda v: type(v) is str, "a string"),
    "int": (lambda v: type(v) is int, "an integer"),
    "int | None": (lambda v: v is None or type(v) is int, "an integer or null"),
    "float": (is_number, "a number"),
    "float | None": (lambda v: v is None or is_number(v), "a number or null"),
    "tuple[float, ...]": (are_numbers, "a list of numbers"),
    "tuple[float, float, float]": (lambda v: are_numbers(v) and len(v) == 3, "a list of 3 numbers"),
}


@functools.cache
def _typed_fields(cls: type) -> tuple[tuple[str, object, str], ...]:
    return tuple((f.name, *_FIELD_TYPES[f.type]) for f in dataclasses.fields(cls)
                 if f.type in _FIELD_TYPES)


def parse_object(data: bytes, keys: tuple[str, ...], source: object) -> dict:
    """``data`` parsed, once it is UTF-8 JSON text of an object holding every one of
    ``keys``; otherwise a DataError naming ``source`` (the file, or file and line, the
    bytes came from) and what is wrong: the text, the JSON, the type or the first missing key."""
    try:
        doc = json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise DataError(f"{source}: not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    except json.JSONDecodeError as exc:
        raise DataError(f"{source}: not valid JSON: {exc.msg} at char {exc.pos}") from None
    if not isinstance(doc, dict):
        raise DataError(f"{source} must be a JSON object, got {type(doc).__name__}")
    for key in keys:
        if key not in doc:
            raise DataError(f"{source}: missing key {key!r}")
    return doc


def require_numbers(values: object, source: object, key: str) -> list:
    """``values``, once it is a list of numbers; otherwise a DataError naming ``source``
    (the file the list came from), ``key`` and the first entry that is not one. A NaN
    or an infinity passes, for the finiteness check of the list's owner to name."""
    if type(values) is not list:
        raise DataError(f"{source}: {key} must be a list of numbers, got {values!r}")
    if not are_numbers(values):
        for i, v in enumerate(values):
            if not (type(v) is float or is_number(v)):
                raise DataError(f"{source}: {key} entry {i} must be a number, got {v!r}")
    return values


def require_types(obj: object) -> None:
    """Raise ValueError, as ``<field> must be <what>, got <value!r>``, naming the first
    field of dataclass ``obj`` whose value does not fit its ``_FIELD_TYPES`` entry; a
    bool is no number, and a nested dataclass or an array is its own class's to check."""
    for name, test, what in _typed_fields(type(obj)):
        value = getattr(obj, name)
        if not test(value):
            raise ValueError(f"{name} must be {what}, got {value!r}")
