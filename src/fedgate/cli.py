"""Command-line front end.

Exit codes are a contract shared by every subcommand: 0 on success, 1 when a
domain check fails (a denial, a broken chain, a failed job), 2 when the input
itself is unusable (bad flags, missing, unreadable or malformed files): ``main``
maps every ``OSError`` and ``ValidationError`` to 2, and the text readers turn
a byte that is not UTF-8 into a ``ValidationError``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .access import SCHEME_CONTRACT_LOOKUP, SCHEME_USER_LOOKUP
from .access.legacy import import_legacy_accounts, read_accounts_csv
from .canonical import canonical_json_bytes
from .clock import SimulatedClock
from .desk import build_desk
from .errors import ValidationError
from .fl import SyntheticSpec, write_dataset
from .ledger import load_chain
from .scenario import DEFAULT_SEED, START_TIME, ScenarioConfig, run_demo

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_INPUT = 2

_DECISION_OF = {"access_grant": "granted", "access_denial": "denied"}


def cmd_demo(args: argparse.Namespace) -> int:
    if args.config is not None:
        try:  # decoded strictly here: ``json.loads`` would guess at the bytes' encoding
            raw = json.loads(Path(args.config).read_bytes().decode())
        except ValueError as exc:  # not UTF-8, or not JSON
            raise ValidationError(f"cannot read scenario config: {exc}") from None
        config = ScenarioConfig.from_dict(raw)
    else:
        config = ScenarioConfig()
    overrides = {"out_dir": str(args.out)}
    if args.seed is not None:
        overrides["seed"] = args.seed
        overrides["federation"] = dataclasses.replace(
            config.federation, rng_seed=args.seed
        )
    if args.scheme is not None:
        overrides["scheme"] = args.scheme
    config = dataclasses.replace(config, **overrides)

    summary = run_demo(config)
    for decision in summary["decisions"]:
        print(f"{decision['did']}: {decision['decision']}")
    if "job" in summary:
        print(f"job: {summary['job']['state']}")
    print(f"artifacts: {Path(config.out_dir)}")
    return summary["exitCode"]


def cmd_gen_data(args: argparse.Namespace) -> int:
    spec = SyntheticSpec(
        n_clients=args.clients,
        samples_per_client=args.samples,
        feature_dim=args.dim,
        separability=args.separability,
        seed=args.seed if args.seed is not None else DEFAULT_SEED,
        label_skew=args.label_skew,
    )
    directory = write_dataset(spec, Path(args.out))
    print(f"wrote {args.clients} partitions to {directory}")
    return EXIT_OK


def cmd_verify_chain(args: argparse.Namespace) -> int:
    try:  # the chain is read once; --explain takes its blocks
        blocks = load_chain(Path(args.chain))
    except ValidationError as exc:  # names the first bad height
        print(exc)
        return EXIT_DOMAIN
    print("chain verified")
    if args.explain is not None:
        return _explain_decision(blocks, args.explain)
    return EXIT_OK


def _explain_decision(blocks, ref: str) -> int:
    """Print the access decision whose ``requestRef`` or ``txId`` is ``ref``, as its block holds it."""
    for block in blocks:
        for tx in block.transactions:
            if tx.kind not in _DECISION_OF:
                continue
            try:  # the block hashes cover these bytes, not their shape
                payload = json.loads(tx.payload)
                if ref not in (payload["requestRef"], tx.tx_id):
                    continue
                lines = [
                    f"request {payload['requestRef']}: {_DECISION_OF[tx.kind]}",
                    f"  tx: {tx.tx_id}",
                    f"  holder: {payload['holder']}",
                    f"  service: {payload['service']}",
                    f"  contract: {payload['contractId']}",
                    f"  missing claims: {', '.join(payload.get('missing', [])) or '-'}",
                    f"  block: {block.height} at time {block.timestamp}",
                ]
            except (ValueError, TypeError, KeyError):
                raise ValidationError(f"block {block.height} holds a malformed {tx.kind} payload") from None
            print("\n".join(lines))
            return EXIT_OK
    print(f"no access decision has requestRef or txId {ref}")
    return EXIT_DOMAIN


def cmd_import_legacy(args: argparse.Namespace) -> int:
    accounts = read_accounts_csv(Path(args.accounts))

    seed = args.seed if args.seed is not None else DEFAULT_SEED
    # every account id starts with "legacy-", so no username maps to the issuer's DID
    trusted = frozenset({"did:efed:importer"})
    desk = build_desk(seed, SimulatedClock(start=START_TIME), trusted)
    issuer = desk.claim_issuer(desk.register("importer", desk.keypair("importer", 0)))
    report = import_legacy_accounts(accounts, desk, issuer)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.json").write_bytes(canonical_json_bytes(report) + b"\n")
    desk.chain.write_chain(out_dir / "chain.jsonl")
    desk.registry.write_log(out_dir / "identity.jsonl")
    imported = sum(1 for r in report if r["status"] == "imported")
    print(f"imported {imported} of {len(report)} accounts into {out_dir}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None, help="master RNG seed")

    parser = argparse.ArgumentParser(
        prog="fedgate",
        description="Identity-gated federated learning desk: demo and utilities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser(
        "demo", parents=[common], help="run the end-to-end scenario"
    )
    demo.add_argument("--out", default="demo-out", help="artifact directory")
    demo.add_argument("--config", default=None, help="scenario config JSON file")
    demo.add_argument(
        "--scheme",
        choices=(SCHEME_CONTRACT_LOOKUP, SCHEME_USER_LOOKUP),
        default=None,
        help="authentication workflow",
    )
    demo.set_defaults(func=cmd_demo)

    gen = sub.add_parser(
        "gen-data", parents=[common], help="generate a synthetic dataset directory"
    )
    gen.add_argument("--out", default="dataset", help="output directory")
    gen.add_argument("--clients", type=int, default=3)
    gen.add_argument("--samples", type=int, default=40)
    gen.add_argument("--dim", type=int, default=2)
    gen.add_argument("--separability", type=float, default=2.0)
    gen.add_argument("--label-skew", type=float, default=0.0)
    gen.set_defaults(func=cmd_gen_data)

    verify = sub.add_parser("verify-chain", help="check a persisted ledger file")
    verify.add_argument("chain", help="chain JSONL file")
    verify.add_argument(
        "--explain", default=None, metavar="REF", help="print one access decision, by its requestRef or txId"
    )
    verify.set_defaults(func=cmd_verify_chain)

    legacy = sub.add_parser(
        "import-legacy",
        parents=[common],
        help="register username/role accounts as identifiers with role claims",
    )
    legacy.add_argument("accounts", help="accounts CSV with username,role header")
    legacy.add_argument("--out", default="legacy-out", help="output directory")
    legacy.set_defaults(func=cmd_import_legacy)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"cannot use file: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
