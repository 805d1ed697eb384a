"""Claim lifecycle and the two authentication workflows with DoS bounds."""

from .issuance import ClaimIssuer, make_claim_checker, verify_claim
from .legacy import LegacyImportResult, import_legacy_accounts, read_accounts_csv
from .pending import PendingTable
from .ratelimit import SlidingWindowLimiter
from .workflows import (
    SCHEME_CONTRACT_LOOKUP,
    SCHEME_USER_LOOKUP,
    AccessGateway,
    AccessOutcome,
    AccessRequest,
    GrantStore,
    LookupResult,
)

__all__ = [
    "ClaimIssuer",
    "verify_claim",
    "make_claim_checker",
    "SlidingWindowLimiter",
    "PendingTable",
    "SCHEME_CONTRACT_LOOKUP",
    "SCHEME_USER_LOOKUP",
    "AccessGateway",
    "AccessOutcome",
    "AccessRequest",
    "GrantStore",
    "LookupResult",
    "import_legacy_accounts",
    "read_accounts_csv",
    "LegacyImportResult",
]
