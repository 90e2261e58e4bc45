"""Command line front end: demos, attack scenarios, benchmarks, vectors.

Four subcommands: `demo` runs a seeded two-party conversation through the
in-process directory and relay, `attack` executes one scripted adversary
and exits zero only when the outcome matches the pinned expectation,
`bench` prints the timing and operation-count report, and `vectors` checks
a known-answer file against the package's primitives.

All output under a fixed seed is byte-stable except bench timing numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import crypto_suite as cs
from .bench import MIN_ITERATIONS, PINNED_COUNTS, format_report, run_bench
from .directory_server import Honest, KeyDirectory, Relay
from .endpoint import endpoint_pair
from .errors import LettersealError
from .kat import check_file
from .mske import EXPECTED, attack_names, run_attack
from .wire import decode_envelope, encode_envelope

_SEED_ENV = "LETTERSEAL_SEED"


def _resolve_seed(value: int | None) -> int:
    if value is None:
        value = int(os.environ.get(_SEED_ENV, "0"), 0)
    if not 0 <= value < 2**64:
        raise ValueError(f"seed must fit in u64, got {value}")
    return value


def _emit(record: dict, fmt: str, text: str) -> None:
    if fmt == "json-lines":
        print(json.dumps(record, sort_keys=True))
    else:
        print(text)


# ---------------------------------------------------------------------------
# demo
# ---------------------------------------------------------------------------

def cmd_demo(protocol: str, messages: int, seed: int, fmt: str) -> int:
    """Two parties, one relay. v1/v2 stream one direction so the counter
    progression is visible; vdr alternates sender every two messages so
    each turn opens a fresh epoch."""
    rng = cs.SeededRng(seed)
    alice_rng = rng.fork(b"demo-alice")
    bob_rng = rng.fork(b"demo-bob")
    directory = KeyDirectory()
    relay = Relay(behavior=Honest())

    ska, pka = cs.dh_keygen(alice_rng)
    skb, pkb = cs.dh_keygen(bob_rng)
    kid_a = directory.register(pka, "alice")
    kid_b = directory.register(pkb, "bob")
    for kid, owner in ((kid_a, "alice"), (kid_b, "bob")):
        _emit({"type": "register", "kid": kid, "owner": owner}, fmt,
              f"registered {owner} under kid {kid}")

    alice, bob = endpoint_pair(
        protocol, (ska, directory.lookup(kid_a)),
        (skb, directory.lookup(kid_b)), alice_rng, bob_rng,
        kids=(kid_a, kid_b), names=("alice", "bob"))
    for k in range(messages):
        alice_sends = protocol != "vdr" or (k // 2) % 2 == 0
        sender, receiver = (alice, bob) if alice_sends else (bob, alice)
        pt = f"hello {k:02d}".encode()
        wire_bytes = relay.relay(encode_envelope(sender.seal(pt)))[0]
        received = decode_envelope(wire_bytes)
        ok = receiver.open(received) == pt
        if protocol == "vdr":
            stage = [received.i_index, received.j_index]
            where = f"epoch={received.i_index} j={received.j_index}"
        elif protocol == "v2":
            stage = received.counter
            where = f"ctr={stage}"
        else:
            stage = k
            where = f"msg={stage}"
        _emit({"type": "message", "ordinal": k, "sender": sender.name,
               "stage": stage, "size": len(wire_bytes),
               "roundtrip": "ok" if ok else "FAIL"}, fmt,
              f"{sender.name} -> {receiver.name}  {where}  "
              f"{len(wire_bytes)} wire bytes  "
              f"roundtrip {'ok' if ok else 'FAIL'}")
        if not ok:
            return 1
    return 0


# ---------------------------------------------------------------------------
# attack
# ---------------------------------------------------------------------------

def cmd_attack(name: str, seed: int, fmt: str) -> int:
    report = run_attack(name, seed=seed)
    expected = EXPECTED[name]
    got = (report.succeeded, report.violated_freshness)
    as_expected = got == expected
    queries = len(report.queries)  # one trace entry per oracle call

    def yn(flag: bool) -> str:
        return "yes" if flag else "no"

    record = {
        "type": "attack_report",
        "name": report.name,
        "seed": seed,
        "succeeded": report.succeeded,
        "violated_freshness": report.violated_freshness,
        "expected_succeeded": expected[0],
        "expected_violated": expected[1],
        "as_expected": as_expected,
        "queries": queries,
        "details": report.details,
    }
    if fmt == "json-lines":
        print(json.dumps(record, sort_keys=True))
    else:
        print(f"attack {report.name} (seed {seed})")
        print(f"  succeeded:          {yn(report.succeeded)}"
              f"  (expected {yn(expected[0])})")
        print(f"  freshness violated: {yn(report.violated_freshness)}"
              f"  (expected {yn(expected[1])})")
        print(f"  oracle queries:     {queries}")
        for key in sorted(report.details):
            print(f"  {key}: {report.details[key]}")
        print(f"  verdict: {'as expected' if as_expected else 'UNEXPECTED'}")
    return 0 if as_expected else 1


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

def cmd_bench(iterations: int, seed: int, fmt: str) -> int:
    report = run_bench(iterations=iterations, seed=seed)
    if fmt == "json-lines":
        for row in report["rows"]:
            print(json.dumps({
                "type": "bench_row", "scenario": row.scenario,
                "e2e_avg_us": round(row.e2e_avg, 3),
                "enc_avg_us": round(row.enc_avg, 3),
                "dec_avg_us": round(row.dec_avg, 3),
                "stddev_us": round(row.stddev, 3),
                "iterations": row.iterations,
            }, sort_keys=True))
        for scenario, rows in report["op_costs"].items():
            for r in rows:
                print(json.dumps({
                    "type": "op_cost", "scenario": scenario, "op": r.op,
                    "count_per_message": r.count_per_message,
                    "unit_cost_us": round(r.unit_cost, 3),
                    "pinned": PINNED_COUNTS[scenario][r.op],
                }, sort_keys=True))
        for point, size in report["state_bytes"].items():
            print(json.dumps({"type": "state_size", "point": point,
                              "snapshot_bytes": size}, sort_keys=True))
    else:
        print(format_report(report))
    return 0


# ---------------------------------------------------------------------------
# vectors
# ---------------------------------------------------------------------------

def cmd_vectors(path: str, fmt: str) -> int:
    """The file is outside input: one that cannot be read, parsed or
    computed (a wrong input count is a TypeError) is an error line."""
    try:
        results = check_file(path)
    except (OSError, ValueError, TypeError, LettersealError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    bad = 0
    for name, ok in results:
        bad += 0 if ok else 1
        _emit({"type": "vector", "name": name, "ok": ok}, fmt,
              f"{name:20s} {'OK' if ok else 'MISMATCH'}")
    _emit({"type": "vectors_checked", "total": len(results),
           "mismatches": bad}, fmt,
          f"{len(results)} vectors, {bad} mismatches")
    return 0 if bad == 0 else 1


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="letterseal",
        description="Sealed-messaging protocols, attack scenarios and "
                    "benchmarks.")
    sub = parser.add_subparsers(dest="command", required=True)

    def seeded(p, iterations_default=None):
        p.add_argument("--seed", type=lambda v: int(v, 0), default=None,
                       help=f"u64 seed (default: ${_SEED_ENV} or 0)")
        if iterations_default is not None:
            p.add_argument("--iterations", type=int,
                           default=iterations_default)

    p_demo = sub.add_parser("demo", help="seeded two-party conversation")
    p_demo.add_argument("--protocol", choices=("v1", "v2", "vdr"),
                        default="vdr")
    seeded(p_demo, iterations_default=6)

    p_attack = sub.add_parser("attack", help="run one scripted adversary")
    p_attack.add_argument("name", choices=attack_names())
    seeded(p_attack)

    p_bench = sub.add_parser("bench", help="timing and op-count report")
    seeded(p_bench, iterations_default=MIN_ITERATIONS)

    p_vec = sub.add_parser("vectors", help="check KAT vectors")
    p_vec.add_argument("--check", required=True, metavar="PATH",
                       help="verify a vector file bit for bit")
    for p in sub.choices.values():
        p.add_argument("--format", choices=("text", "json-lines"),
                       default="text")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "vectors":
        return cmd_vectors(args.check, args.format)
    try:
        seed = _resolve_seed(args.seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.command == "demo":
        if args.iterations < 1:
            print("error: demo needs at least one message", file=sys.stderr)
            return 2
        return cmd_demo(args.protocol, args.iterations, seed, args.format)
    if args.command == "attack":
        return cmd_attack(args.name, seed, args.format)
    if args.command == "bench":
        if args.iterations < MIN_ITERATIONS:
            print(f"error: bench needs --iterations >= {MIN_ITERATIONS}",
                  file=sys.stderr)
            return 2
        return cmd_bench(args.iterations, seed, args.format)
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
