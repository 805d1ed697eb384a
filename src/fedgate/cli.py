"""Command-line front end.

Exit codes are a contract shared by every subcommand: 0 on success, 1 when a
domain check fails (a denial, a broken chain, a failed job), 2 when the input
itself is unusable (bad flags, missing or malformed files).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

from .access.legacy import import_legacy_accounts, read_accounts_csv
from .canonical import canonical_json_bytes
from .clock import SimulatedClock
from .desk import build_desk
from .errors import FedGateError, ValidationError
from .fl import SyntheticSpec, read_metrics_csv, write_dataset
from .keys import KeyPair
from .ledger import verify_chain_file
from .scenario import ScenarioConfig, run_demo

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_INPUT = 2


def cmd_demo(args: argparse.Namespace) -> int:
    if args.config is not None:
        try:
            raw = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            print(f"cannot read scenario config: {exc}", file=sys.stderr)
            return EXIT_INPUT
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

    result = run_demo(config)
    for decision in result.decisions:
        print(f"{decision['did']}: {decision['decision']}")
    if result.job_state is not None:
        print(f"job: {result.job_state}")
    print(f"artifacts: {result.out_dir}")
    return result.exit_code


def cmd_gen_data(args: argparse.Namespace) -> int:
    spec = SyntheticSpec(
        n_clients=args.clients,
        samples_per_client=args.samples,
        feature_dim=args.dim,
        separability=args.separability,
        seed=args.seed if args.seed is not None else 7,
        label_skew=args.label_skew,
    )
    directory = write_dataset(spec, Path(args.out))
    print(f"wrote {args.clients} partitions to {directory}")
    return EXIT_OK


def cmd_verify_chain(args: argparse.Namespace) -> int:
    try:
        ok, bad_height = verify_chain_file(Path(args.chain))
    except OSError as exc:
        print(f"cannot read chain: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if ok:
        print("chain verified")
        return EXIT_OK
    print(f"chain invalid at height {bad_height}")
    return EXIT_DOMAIN


def cmd_plot_metrics(args: argparse.Namespace) -> int:
    try:
        rows = read_metrics_csv(Path(args.metrics))
    except (OSError, ValueError) as exc:
        print(f"cannot read metrics: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if not rows:
        print("metrics file has no data rows", file=sys.stderr)
        return EXIT_INPUT
    out = Path(args.out) if args.out else Path(args.metrics).with_suffix(".dat")
    lines = ["# round global_loss train_accuracy"]
    for row in rows:
        lines.append(f"{row.round_index} {row.global_loss!r} {row.train_accuracy!r}")
    out.write_text("\n".join(lines) + "\n")
    print(f"wrote {len(rows)} points to {out}")
    return EXIT_OK


def cmd_import_legacy(args: argparse.Namespace) -> int:
    accounts = read_accounts_csv(Path(args.accounts))

    seed = args.seed if args.seed is not None else 7
    trusted = frozenset({"did:efed:legacy-issuer"})
    desk = build_desk(seed, SimulatedClock(start=1_000_000), trusted)
    issuer_key = KeyPair.generate(
        hashlib.sha256(f"legacy-issuer:{seed}".encode()).digest()
    )
    issuer = desk.claim_issuer(desk.register("legacy-issuer", issuer_key))
    results = import_legacy_accounts(accounts, desk.registry, issuer)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    report = [
        {
            "username": r.username,
            "did": r.did,
            "status": r.status,
            "claimType": r.claim_type,
            "value": r.value,
        }
        for r in results
    ]
    (out_dir / "report.json").write_bytes(canonical_json_bytes(report) + b"\n")
    desk.chain.write_chain(out_dir / "chain.jsonl")
    desk.registry.write_log(out_dir / "identity.jsonl")
    imported = sum(1 for r in results if r.status == "imported")
    print(f"imported {imported} of {len(results)} accounts into {out_dir}")
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
        choices=("contract_lookup", "user_lookup"),
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

    verify = sub.add_parser(
        "verify-chain", parents=[common], help="check a persisted ledger file"
    )
    verify.add_argument("chain", help="chain JSONL file")
    verify.set_defaults(func=cmd_verify_chain)

    plot = sub.add_parser(
        "plot-metrics",
        parents=[common],
        help="turn a metrics CSV into a gnuplot-ready series",
    )
    plot.add_argument("metrics", help="metrics CSV file")
    plot.add_argument("--out", default=None, help="output .dat path")
    plot.set_defaults(func=cmd_plot_metrics)

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
    except FileNotFoundError as exc:
        print(f"missing file: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except FedGateError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
