"""Decentralized identifiers: parsing, documents, registry, resolution."""

from .did import (
    DidIdentifier,
    DidParseError,
    EmptySpecificIdError,
    IllegalCharacterError,
    PartCountError,
    WrongSchemeError,
    parse_did,
)
from .document import DidDocument, PublicKeyEntry, ServiceEndpoint
from .registry import (
    AlreadyRegisteredError,
    DidRegistry,
    DuplicateProfileError,
    UnknownDidError,
    VersionSequenceError,
)
from .resolver import Attestation, NoDriverError, RegistryDriver, Resolver

__all__ = [
    "DidIdentifier",
    "DidParseError",
    "WrongSchemeError",
    "PartCountError",
    "EmptySpecificIdError",
    "IllegalCharacterError",
    "parse_did",
    "DidDocument",
    "PublicKeyEntry",
    "ServiceEndpoint",
    "DidRegistry",
    "AlreadyRegisteredError",
    "DuplicateProfileError",
    "UnknownDidError",
    "VersionSequenceError",
    "Resolver",
    "Attestation",
    "RegistryDriver",
    "NoDriverError",
]
