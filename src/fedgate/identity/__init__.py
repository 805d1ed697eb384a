"""Decentralized identifiers: parsing, documents, registry, resolution."""

from .did import DidIdentifier, parse_did
from .document import DidDocument, PublicKeyEntry, ServiceEndpoint
from .registry import AlreadyRegisteredError, DidRegistry, UnknownDidError
from .resolver import Attestation, RegistryDriver, Resolver

__all__ = [
    "DidIdentifier",
    "parse_did",
    "DidDocument",
    "PublicKeyEntry",
    "ServiceEndpoint",
    "DidRegistry",
    "AlreadyRegisteredError",
    "UnknownDidError",
    "Resolver",
    "Attestation",
    "RegistryDriver",
]
