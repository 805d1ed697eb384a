"""Measure how the contract-lookup workflow behaves under a fake-DID flood.

Usage:
    python scripts/flood_benchmark.py --requests 10000

An attacker sprays access requests naming identifiers that will never
resolve. Each one parks a pending entry until the ttl sweep reclaims it, so
the interesting numbers are the pending-table peak (bounded by capacity), the
split between parked-then-denied and rejected-at-capacity requests, ledger
growth (none: unresolvable requests are never sealed), and wall time. A
registered, claimed user issues one request through each scheme mid-flood to
show the user-lookup path stays open while contract-lookup is saturated.
"""

from __future__ import annotations

import argparse
import time
import tracemalloc

from fedgate.access import SCHEME_USER_LOOKUP
from fedgate.clock import SimulatedClock
from fedgate.desk import MEMBERSHIP_CLAIM, build_desk

SERVICE = "fl-study"


def run_flood(requests: int, capacity: int, ttl: int, pause_every: int) -> dict:
    desk = build_desk(
        0,
        SimulatedClock(start=100_000),
        frozenset({"did:efed:issuer"}),
        pending_capacity=capacity,
        pending_ttl_seconds=ttl,
    )
    issuer = desk.claim_issuer(desk.register("issuer"))
    desk.deploy_policy(SERVICE, desk.register("owner"))
    member = desk.register("member")
    issuer.issue(member.did, MEMBERSHIP_CLAIM, "yes", 1_000_000)
    height_before = desk.chain.height

    tracemalloc.start()
    baseline, _ = tracemalloc.get_traced_memory()
    tally = {"denied": 0, "rejected-capacity": 0}
    mid_flood = {}
    started = time.perf_counter()
    for i in range(requests):
        if i % 100 == 0:
            desk.clock.advance(1)
        if i == requests // 4:
            mid_flood["user_lookup"] = desk.request(
                member.did, SERVICE, SCHEME_USER_LOOKUP
            ).decision
        if pause_every and i == requests // 2:
            desk.clock.advance(ttl + 1)  # an attacker pause; sweep reclaims
            mid_flood["contract_lookup"] = desk.request(member.did, SERVICE).decision
        outcome = desk.request(f"did:efed:ghost{i}", SERVICE)
        tally[outcome.decision] += 1
    elapsed = time.perf_counter() - started
    current, _ = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    return {
        "requests": requests,
        "elapsed": elapsed,
        "pending_peak": desk.gateway.pending.peak_size,
        "parked_denials": tally["denied"],
        "capacity_rejections": tally["rejected-capacity"],
        "chain_growth": desk.chain.height - height_before,
        "memory_mb": (current - baseline) / 1e6,
        "mid_flood": mid_flood,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--requests", type=int, default=10_000)
    parser.add_argument("--capacity", type=int, default=256)
    parser.add_argument("--ttl", type=int, default=30)
    args = parser.parse_args()

    stats = run_flood(args.requests, args.capacity, args.ttl, pause_every=True)
    rate = stats["requests"] / stats["elapsed"]
    print(f"flood size            {stats['requests']}")
    print(f"wall time             {stats['elapsed']:.2f}s  ({rate:,.0f} req/s)")
    print(f"pending peak          {stats['pending_peak']}  (capacity {args.capacity})")
    print(f"parked then denied    {stats['parked_denials']}")
    print(f"rejected at capacity  {stats['capacity_rejections']}")
    print(f"ledger growth         {stats['chain_growth']} blocks (legit grants only)")
    print(f"memory growth         {stats['memory_mb']:.2f} MB")
    for scheme, decision in stats["mid_flood"].items():
        print(f"mid-flood {scheme:<16} {decision}")
    ok = stats["pending_peak"] <= args.capacity and all(
        d == "granted" for d in stats["mid_flood"].values()
    )
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
