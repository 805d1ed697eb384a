"""Decentralized identifiers: parsing, documents, registry, resolution."""

from .did import DidIdentifier
from .document import DidDocument, PublicKeyEntry
from .registry import DidRegistry
from .resolver import Attestation, RegistryDriver, Resolver
