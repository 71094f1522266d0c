"""Command-line interface.

    scms bootstrap  [--devices N]            bootstrap demo
    scms provision  [--devices N ...]        provisioning pipeline demo
    scms revoke     [--devices N ...]        misbehavior-to-revocation demo
    scms crl inspect FILE                    pretty-print a CRL or composite
    scms ballot     [--electors N ...]       quorum validation demo
    scms run SCENARIO.json [--trace FILE]    run a scenario file
    scms vectors generate|check [--path P]   golden-vector management
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import vectors as vectors_mod
from .certmodel import Crl, decode_composite
from .errors import ParseError, ScmsError
from .harness import ScenarioConfig, World, run_scenario


def _scenario(build) -> ScenarioConfig:
    """``build()``, or exit status 2 if it refuses, as for a bad flag."""
    try:
        return build()
    except (OSError, json.JSONDecodeError, RecursionError, ScmsError) as exc:
        print(f"error: cannot load scenario: {exc}", file=sys.stderr)
        raise SystemExit(2) from None


def _add_scale_args(parser, devices=5, periods=3, batch_size=10):
    parser.add_argument("--devices", type=int, default=devices)
    parser.add_argument("--periods", type=int, default=periods)
    parser.add_argument("--batch-size", type=int, default=batch_size)
    parser.add_argument("--seed", type=int, default=1)


def cmd_bootstrap(args) -> int:
    config = _scenario(lambda: ScenarioConfig(
        name="bootstrap", seed=args.seed, devices=args.devices, periods=1,
        batch_size=1, bsms_per_device_per_period=0,
    ))
    world = World(config)
    device = world.devices[0]
    print(json.dumps({
        "devices_bootstrapped": len(world.devices),
        "enrollment_cert_bytes": len(device.enrollment_cert_bytes),
        "trusted_roots": len(device.trust.endorsed_roots),
        "electors": device.trust.valid_elector_count(),
        "policy": {
            "batch_size": device.batch_size,
            "rotation_minutes": device.rotation_minutes,
            "crl_capacity": device.crl_store.capacity,
        },
    }, indent=2))
    return 0


def cmd_provision(args) -> int:
    config = _scenario(lambda: ScenarioConfig(
        name="provision", seed=args.seed, devices=args.devices,
        periods=args.periods, batch_size=args.batch_size,
        bsms_per_device_per_period=0,
    ))
    result = run_scenario(config)
    print(json.dumps(result.metrics, indent=2))
    return 0 if not result.violations else 1


def cmd_revoke(args) -> int:
    def build() -> ScenarioConfig:
        if args.devices < 4:
            raise ScmsError("the revocation demo needs at least 4 devices, "
                            "an offender and 3 reporters")
        return ScenarioConfig(
            name="revoke", seed=args.seed, devices=args.devices,
            periods=args.periods, batch_size=args.batch_size,
            events=[{
                "period": min(1, args.periods - 1), "action": "misbehavior",
                "offender": 0, "reporters": [1, 2, 3],
            }],
        )

    config = _scenario(build)
    result = run_scenario(config)
    print(json.dumps({
        "revocations": result.metrics["revocations"],
        "bsms_rejected": result.metrics["bsms_rejected"],
        "crl_composite_bytes": result.metrics["crl_composite_bytes"],
        "violations": result.violations,
    }, indent=2))
    return 0 if not result.violations else 1


def _print_crl(crl: Crl) -> None:
    print(f"CRL series={crl.series} craca={crl.craca_id.hex()} "
          f"period={crl.issue_period} sequence={crl.sequence}")
    for (la1, la2, i, j_max), members in crl.linkage_groups().items():
        print(f"  linkage group la_ids=({la1.hex()},{la2.hex()}) "
              f"i={i} j_max={j_max} devices={len(members)}")
        for m in members:
            print(f"    ls1={m.ls1.hex()} ls2={m.ls2.hex()} "
                  f"priority={m.priority}")
    for entry in crl.certid_entries:
        print(f"  certid {entry.cert_id.hex()} priority={entry.priority}")


def cmd_crl(args) -> int:
    data = Path(args.file).read_bytes()
    try:
        if data[:4] == b"CRLS":
            for crl in decode_composite(data):
                _print_crl(crl)
        else:
            _print_crl(Crl.decode(data))
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def cmd_ballot_demo(args) -> int:
    from .crypto import DeterministicRandom, KeyPair
    from .certmodel import SERIES_COMPONENT, issue_component_cert
    from .rootmgmt import ENDORSE_ROOT, TrustState, build_ballot, make_elector

    rng = DeterministicRandom(args.seed, "ballot-demo")
    electors = [make_elector(rng) for _ in range(args.electors)]
    trust = TrustState([cert for _, cert in electors],
                       quorum=args.quorum if args.quorum else None)
    root_key = KeyPair.generate(rng)
    root_cert = issue_component_cert(
        root_key, "root", None, None, b"\x00" * 8, SERIES_COMPONENT,
        (0, 1 << 20), None,
    )
    ballot = build_ballot(ENDORSE_ROOT, root_cert, electors[: args.votes])
    accepted = trust.process_ballot(ballot)
    print(json.dumps({
        "electors": args.electors,
        "quorum": trust.quorum,
        "votes": args.votes,
        "accepted": len(accepted) == 1,
        "root_trusted": trust.root_trusted(root_cert.cert_id()),
    }, indent=2))
    return 0


def cmd_run(args) -> int:
    config = _scenario(
        lambda: ScenarioConfig.from_json(Path(args.scenario).read_text()))
    if args.trace:
        config.keep_trace_events = True
    result = run_scenario(config)
    if args.trace:
        result.world.trace.write_ndjson(args.trace)
    print(json.dumps({
        "scenario": config.name,
        "trace_digest": result.trace_digest,
        "metrics": result.metrics,
        "violations": result.violations,
    }, indent=2))
    return 0 if not result.violations else 1


def cmd_vectors(args) -> int:
    path = Path(args.path)
    if args.vectors_cmd == "generate":
        vectors_mod.generate(path, args.script)
        print(f"wrote {path}")
        return 0
    results = vectors_mod.check(path)
    failed = [name for name, ok in results if not ok]
    for name, ok in results:
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
    print(f"{len(results) - len(failed)}/{len(results)} vectors match")
    return 0 if not failed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scms",
        description="V2X security credential management reference "
                    "implementation and simulator",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("bootstrap", help="bootstrap demo")
    _add_scale_args(p)
    p.set_defaults(func=cmd_bootstrap)

    p = sub.add_parser("provision", help="provisioning pipeline demo")
    _add_scale_args(p)
    p.set_defaults(func=cmd_provision)

    p = sub.add_parser("revoke", help="misbehavior and revocation demo")
    _add_scale_args(p)
    p.set_defaults(func=cmd_revoke)

    p = sub.add_parser("crl", help="CRL utilities")
    crl_sub = p.add_subparsers(dest="crl_cmd", required=True)
    pi = crl_sub.add_parser("inspect", help="pretty-print a CRL file")
    pi.add_argument("file")
    pi.set_defaults(func=cmd_crl)

    p = sub.add_parser("ballot", help="elector quorum demo")
    p.add_argument("--electors", type=int, default=3)
    p.add_argument("--quorum", type=int, default=0)
    p.add_argument("--votes", type=int, default=2)
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func=cmd_ballot_demo)

    p = sub.add_parser("run", help="run a scenario JSON file")
    p.add_argument("scenario")
    p.add_argument("--trace", help="write the event trace to this file")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("vectors", help="golden-vector management")
    p.add_argument("vectors_cmd", choices=["generate", "check"])
    p.add_argument("--path", default=str(vectors_mod.default_vector_path()))
    p.add_argument("--script", default=None,
                   help="oracle script for generate")
    p.set_defaults(func=cmd_vectors)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
