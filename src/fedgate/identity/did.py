"""Decentralized identifier strings.

An identifier is three colon-separated parts: the fixed ``did`` scheme, a
lowercase alphanumeric method name, and a method-specific id drawn from
``[A-Za-z0-9._-]``.  ``parse_did`` and ``str()`` round-trip losslessly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from ..errors import ValidationError

_METHOD_RE = re.compile(r"^[a-z0-9]+$")
_SPECIFIC_ID_RE = re.compile(r"^[A-Za-z0-9._-]+$")


@dataclass(frozen=True)
class DidIdentifier:
    method: str
    specific_id: str
    _text: str = field(init=False, repr=False, compare=False)  # ``str()``, formatted once

    def __post_init__(self) -> None:
        if not _METHOD_RE.match(self.method):
            raise ValidationError(f"method must be lowercase alphanumeric, got {self.method!r}")
        if not self.specific_id:
            raise ValidationError("method-specific id must be non-empty")
        if not _SPECIFIC_ID_RE.match(self.specific_id):
            raise ValidationError(
                f"specific id may only use [A-Za-z0-9._-], got {self.specific_id!r}"
            )
        object.__setattr__(self, "_text", f"did:{self.method}:{self.specific_id}")

    def __str__(self) -> str:
        return self._text


def parse_did(text: str) -> DidIdentifier:
    """Split ``did:<method>:<specific-id>`` into its three parts."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValidationError(f"expected three colon-separated parts, got {len(parts)} in {text!r}")
    scheme, method, specific_id = parts
    if scheme != "did":
        raise ValidationError(f"scheme must be 'did', got {scheme!r}")
    return DidIdentifier(method=method, specific_id=specific_id)
