"""Shared exception types, and the field type and key checks records loaded from JSON share."""

from dataclasses import fields


class FedGateError(Exception):
    """Base class for all fedgate errors."""


class ValidationError(FedGateError):
    """An input or invariant check failed."""


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


def from_camel_keys(cls, data: object, what: str, **readers):
    """``cls`` read from ``data``, whose keys are the camelCase of its field names.

    Any other key is refused and an absent one takes the field's default;
    ``readers`` maps a field name to the function that reads its value.
    """
    names = {}
    for f in fields(cls):
        head, *rest = f.name.split("_")
        names[head + "".join(word.title() for word in rest)] = f.name
    check_keys(data, what, names.keys())
    values = {names[key]: value for key, value in data.items()}
    try:
        return cls(**{n: readers[n](v) if n in readers else v for n, v in values.items()})
    except TypeError as error:  # a required key is absent, or a value has the wrong shape
        raise ValidationError(f"malformed {what}: {error}") from None
