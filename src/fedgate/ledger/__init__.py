"""Append-only hash-linked ledger and the access-policy contract engine."""

from .chain import Chain, load_chain, verify_chain_file
from .contracts import (
    AccessOutcome,
    AccessPolicyContract,
    ClaimPredicate,
    ClaimRequirement,
    ContractEngine,
    ContractNotFoundError,
    GrantToken,
)
