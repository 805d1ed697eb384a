"""Shared exception types, and the field type check records loaded from JSON share."""


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
