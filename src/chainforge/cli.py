"""Command line surface: analyze, partition, evaluate, setup, derive,
oracle, gen.

Exit codes: 0 success, 1 internal invariant violation, 2 usage or parse
error, 3 derivation not authorized, 4 oracle instance too large.

With CHAINFORGE_CI=1 every randomized command must be given an explicit
seed so golden outputs stay stable; outside CI, deterministic seeding of
the key generator additionally requires --allow-deterministic.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import nullcontext
from pathlib import Path

from . import brute, ces, gen, optimize
from .errors import (
    ChainforgeError,
    InternalError,
    NotAuthorized,
    ParseError,
    TooLarge,
)
from .formats import parse_partition, parse_policy, partition_text, policy_text
from .policy import (
    Policy,
    attach_to_maximum,
    bundle_labels,
    issued_secrets,
    issued_secrets_via_bottoms,
    issued_secrets_via_tree,
    max_bundle_size,
    total_secrets,
)


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as e:
        raise ParseError(f"{path}: not UTF-8 text ({e.reason} at byte {e.start})") from None


def _load_policy(path: str) -> Policy:
    return parse_policy(_read(path))


def _print_bottoms(policy, pi) -> None:
    p = policy.poset
    total_size = total_weight = 0
    for chain in pi.chains:
        b = chain[-1]
        size = p.up_size(b)
        weight = sum(policy.count(x) for x in p.up_set(b))
        total_size += size
        total_weight += weight
        print(f"bottom {b}: size {size} weight {weight}")
    print(f"bottoms_total: size {total_size} weight {total_weight}")


def _cmd_analyze(args) -> int:
    policy = _load_policy(args.policy)
    p = policy.poset
    print(f"elements: {len(p)}")
    print(f"covers: {len(p.covers)}")
    print(f"width: {p.width()}")
    print("minimal: " + " ".join(p.minimal_elements()))
    print("maximal: " + " ".join(p.maximal_elements()))
    print(f"synthetic maximum needed: {'no' if p.maximum() else 'yes'}")
    return 0


def _cmd_partition(args) -> int:
    policy = _load_policy(args.policy)
    result = optimize.optimal_partition(policy)
    if not optimize.verify_result(policy, result):
        raise InternalError("optimization result failed self-verification")
    # opened before the report is printed, so an unwritable path prints
    # only the error line
    with open(args.out, "w", encoding="utf-8") if args.out else nullcontext() as out:
        print(f"khat: {result.khat}")
        print(f"K: {total_secrets(policy, result.partition)}")
        print(f"kmax: {result.kmax}")
        print(f"width: {result.width}")
        print(f"chains: {len(result.partition.chains)}")
        print(f"flow_cost: {result.flow_cost}")
        _print_bottoms(policy, result.partition)
        if out is not None:
            out.write(partition_text(result.partition))
            print(f"wrote: {args.out}")
    return 0


def _cmd_evaluate(args) -> int:
    policy = _load_policy(args.policy)
    pi = parse_partition(_read(args.partition), policy.poset)
    khat = issued_secrets(policy, pi)
    bottoms = issued_secrets_via_bottoms(policy, pi)
    tree = issued_secrets_via_tree(*attach_to_maximum(policy, pi))
    if not khat == tree == bottoms:
        raise InternalError(
            f"issued-secret formulas disagree: {khat}, tree {tree}, bottoms {bottoms}"
        )
    print(f"chains: {len(pi.chains)}")
    print(f"kmax: {max_bundle_size(policy, pi)}")
    print(f"K: {total_secrets(policy, pi)}")
    print(f"khat: {khat}")
    print(f"khat_tree: {tree}")
    print(f"khat_bottoms: {bottoms}")
    _print_bottoms(policy, pi)
    for label in args.phi or []:
        print(f"phi({label}): " + " ".join(bundle_labels(policy, label, pi)))
    return 0


def _entropy_from_args(args) -> ces.EntropySource:
    ci = os.environ.get("CHAINFORGE_CI") == "1"
    if args.seed is not None:
        if not ci and not args.allow_deterministic:
            raise ParseError("--seed outside CI mode requires --allow-deterministic")
        try:
            seed = bytes.fromhex(args.seed)
        except ValueError:
            raise ParseError("--seed must be a hex string") from None
        return ces.seeded_entropy(seed)
    if ci:
        raise ParseError("CHAINFORGE_CI=1 requires an explicit --seed")
    return os.urandom


def _scheme_params(args) -> ces.SchemeParams:
    try:
        return ces.SchemeParams(security_bits=args.bits, hash_name=args.hash)
    except ValueError as e:
        raise ParseError(f"--hash {args.hash}: {e}") from None


def _cmd_setup(args) -> int:
    policy = _load_policy(args.policy)
    pi = parse_partition(_read(args.partition), policy.poset)
    entropy = _entropy_from_args(args)
    params = _scheme_params(args)
    holders = [x for x in policy.poset.elements if policy.count(x) > 0]
    for x in holders:  # all checked before anything is written
        if "\0" in x or os.path.basename(x) != x:
            raise ParseError(f"label {x!r} cannot name a bundle file")
    material = ces.setup(policy, pi, params, entropy)

    outdir = Path(args.export)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "material.txt").write_text(
        ces.export_material(material, include_secrets=args.unsafe_export),
        encoding="utf-8",
    )
    for x in holders:
        bundle = ces.issue_bundle(material, policy, x)
        (outdir / f"bundle-{x}.txt").write_text(ces.bundle_to_text(bundle), encoding="utf-8")
    print(f"keys: {len(material.keys)}")
    print(f"bundles: {len(holders)}")
    print(f"export: {outdir}")
    return 0


def _cmd_derive(args) -> int:
    policy = _load_policy(args.policy)
    pi = parse_partition(_read(args.partition), policy.poset)
    try:
        bundle = ces.bundle_from_text(_read(args.bundle))
    except ValueError as e:
        raise ParseError(str(e)) from None
    params = _scheme_params(args)
    key = ces.derive(policy, pi, bundle, args.target, params)
    print(key.hex())
    return 0


def _cmd_oracle(args) -> int:
    policy = _load_policy(args.policy)
    report = brute.brute_minimum(policy, limit=args.limit)
    result = optimize.optimal_partition(policy)
    print(f"min_khat: {report.min_khat}")
    print(f"partitions_examined: {report.partitions_examined}")
    print(f"min_chain_count_at_min: {report.min_chain_count_at_min}")
    print("argmin: " + " ".join(">".join(c) for c in report.argmin.chains))
    print(f"optimizer_khat: {result.khat}")
    if result.khat == report.min_khat:
        print("verdict: PASS")
        return 0
    print("verdict: FAIL")
    return 1


def _cmd_gen(args) -> int:
    if args.elements < 1:
        raise ParseError("--elements must be at least 1")
    if not 0.0 <= args.density <= 1.0:
        raise ParseError("--density must be in [0, 1]")
    policy = gen.random_policy(args.elements, args.density, args.seed)
    sys.stdout.write(policy_text(policy))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chainforge",
        description="Chain partition optimization and chain-based key assignment "
        "for information flow policies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("analyze", help="report basic structure of a policy file")
    sp.add_argument("policy")
    sp.set_defaults(func=_cmd_analyze)

    sp = sub.add_parser("partition", help="compute an optimal chain partition")
    sp.add_argument("policy")
    sp.add_argument("--out", help="write the partition to this file")
    sp.set_defaults(func=_cmd_partition)

    sp = sub.add_parser("evaluate", help="report metrics of a given partition")
    sp.add_argument("policy")
    sp.add_argument("partition")
    sp.add_argument("--phi", action="append", metavar="LABEL",
                    help="also print the bundle labels of LABEL (repeatable)")
    sp.set_defaults(func=_cmd_evaluate)

    sp = sub.add_parser("setup", help="generate keys, secrets and user bundles")
    sp.add_argument("policy")
    sp.add_argument("partition")
    entropy = sp.add_mutually_exclusive_group(required=True)
    entropy.add_argument("--seed", metavar="HEX", help="deterministic entropy seed")
    entropy.add_argument("--system-entropy", action="store_true",
                         help="draw entropy from the operating system")
    sp.add_argument("--export", required=True, metavar="DIR",
                    help="directory for material and bundle files")
    sp.add_argument("--unsafe-export", action="store_true",
                    help="include raw secrets in the exported material")
    sp.add_argument("--allow-deterministic", action="store_true",
                    help="permit --seed outside CI mode")
    sp.add_argument("--bits", type=int, default=256, choices=(128, 256, 512))
    sp.add_argument("--hash", default="sha256")
    sp.set_defaults(func=_cmd_setup)

    sp = sub.add_parser("derive", help="derive one key from a user bundle")
    sp.add_argument("policy")
    sp.add_argument("partition")
    sp.add_argument("bundle")
    sp.add_argument("target")
    sp.add_argument("--bits", type=int, default=256, choices=(128, 256, 512))
    sp.add_argument("--hash", default="sha256")
    sp.set_defaults(func=_cmd_derive)

    sp = sub.add_parser("oracle", help="exhaustively certify the optimizer on a small policy")
    sp.add_argument("policy")
    sp.add_argument("--limit", type=int, default=brute.DEFAULT_LIMIT)
    sp.set_defaults(func=_cmd_oracle)

    sp = sub.add_parser("gen", help="emit a seeded random policy file")
    sp.add_argument("--elements", type=int, required=True)
    sp.add_argument("--density", type=float, default=0.3)
    sp.add_argument("--seed", type=int, required=True)
    sp.set_defaults(func=_cmd_gen)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    # counts and totals may have any number of digits (Python 3.10.7+
    # otherwise refuses int <-> str conversions past 4 300 digits)
    digits = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if digits is not None:
        sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except NotAuthorized as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except TooLarge as e:
        print(f"error: {e}", file=sys.stderr)
        return 4
    except InternalError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 1
    except ChainforgeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    finally:
        if digits is not None:
            sys.set_int_max_str_digits(digits)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
