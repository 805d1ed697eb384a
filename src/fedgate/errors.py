"""Shared exception types, and the field checks and camelCase key map that records in JSON share."""

import sys
from dataclasses import fields
from functools import cache
from numbers import Integral, Real


class FedGateError(Exception):
    """A refused operation (a job ends failed); base of every fedgate error."""


class ValidationError(FedGateError):
    """An input or invariant check failed (the CLI exits 2, the API answers 400)."""


def check_field_types(
    record: object, what: str, field_types: tuple[tuple[str, type], ...]
) -> None:
    """Refuse a record whose named fields do not hold their types; a bool is no int."""
    for name, kind in field_types:
        value = getattr(record, name)
        if not isinstance(value, kind) or isinstance(value, bool):
            raise ValidationError(f"{what} field {name} must be {kind.__name__}")


def check_keys(data: object, what: str, keys) -> None:
    """Refuse a record that is not an object or holds a key outside ``keys``."""
    if not isinstance(data, dict):
        raise ValidationError(f"{what} must be an object, got {type(data).__name__}")
    if not data.keys() <= keys:
        raise ValidationError(f"{what} has unknown keys {sorted(map(str, data.keys() - keys))}")


def check_integer(name: str, value, minimum: int | None = 1) -> int:
    """``value`` as an int of at least ``minimum``; bools, text and fractions are refused."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValidationError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def check_real(name: str, value) -> float:
    """``value`` as a finite float; bools, text, NaN, infinities and overflowing ints are refused."""
    if isinstance(value, bool) or not isinstance(value, Real) or not abs(value) <= sys.float_info.max:
        raise ValidationError(f"{name} must be a finite number, got {value!r}")
    return float(value)


@cache
def _camel_names(cls) -> dict[str, str]:
    """Each field name of ``cls`` that its constructor takes, keyed by its camelCase."""
    names = {}
    for f in fields(cls):
        if f.init:
            head, *rest = f.name.split("_")
            names[head + "".join(word.title() for word in rest)] = f.name
    return names


def from_camel_keys(cls, data: object, what: str, **readers):
    """``cls`` read from ``data``, whose keys are the camelCase of its field names.

    Any other key is refused and an absent one takes the field's default;
    ``readers`` maps a field name to the function that reads its value.
    """
    names = _camel_names(cls)
    check_keys(data, what, names.keys())
    values = {}
    try:
        for key, value in data.items():
            name = names[key]
            values[name] = readers[name](value) if name in readers else value
        return cls(**values)
    except TypeError as error:  # a required key is absent, or a value has the wrong shape
        raise ValidationError(f"malformed {what}: {error}") from None


def _written(value):
    """``value`` as JSON holds it: bytes as lowercase hex, a tuple as a list, a record by its ``to_dict``."""
    if isinstance(value, bytes):
        return value.hex()
    if isinstance(value, tuple):
        return [_written(item) for item in value]
    return value.to_dict() if hasattr(value, "to_dict") else value


def to_camel_dict(record, **writers) -> dict:
    """``record``'s fields under the keys ``from_camel_keys`` reads them from.

    ``writers`` maps a field name to the function that writes its value.
    """
    body = {}
    for key, name in _camel_names(type(record)).items():
        value = getattr(record, name)
        body[key] = writers[name](value) if name in writers else _written(value)
    return body
