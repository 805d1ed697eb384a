"""Claim lifecycle and the two authentication workflows with DoS bounds."""

from .issuance import ClaimIssuer, make_claim_checker
from .pending import PendingTable
from .ratelimit import SlidingWindowLimiter
from .workflows import SCHEME_CONTRACT_LOOKUP, SCHEME_USER_LOOKUP, AccessGateway, AccessRequest
