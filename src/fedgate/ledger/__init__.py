"""Append-only hash-linked ledger and the access-policy contract engine."""

from .chain import (
    GENESIS_PREV_HASH,
    Block,
    Chain,
    Transaction,
    load_chain,
    verify_chain_file,
    verify_chain_records,
)
from .contracts import (
    AccessOutcome,
    AccessPolicyContract,
    ClaimPredicate,
    ClaimRequirement,
    ContractEngine,
    ContractNotFoundError,
    GrantToken,
)

__all__ = [
    "Transaction",
    "Block",
    "Chain",
    "GENESIS_PREV_HASH",
    "verify_chain_records",
    "verify_chain_file",
    "load_chain",
    "ClaimPredicate",
    "ClaimRequirement",
    "AccessPolicyContract",
    "GrantToken",
    "AccessOutcome",
    "ContractEngine",
    "ContractNotFoundError",
]
