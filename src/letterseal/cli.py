"""Command line front end: demos, attack scenarios, benchmarks, vectors.

Four subcommands: `demo` runs a seeded two-party conversation through the
in-process directory and relay, `attack` executes one scripted adversary
and exits zero only when the outcome matches the pinned expectation,
`bench` prints the timing and operation-count report, and `vectors` checks
a known-answer file against the package's primitives.

Every line goes out through :func:`_emit`, which gets a record and its
text and prints one of them as ``--format`` says. A header or a blank
line has no record, so json-lines skips it; a bench report is the one
walk of :func:`letterseal.bench.report_lines`. A reader that closes the
pipe early ends the command quietly with exit code 1.

All output under a fixed seed is byte-stable except bench timing numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import crypto_suite as cs
from .bench import MIN_ITERATIONS, report_lines, run_bench
from .directory_server import Honest, KeyDirectory, Relay
from .endpoint import DESIGNS, design, endpoint_pair
from .kat import check_file
from .mske import EXPECTED, attack_names, run_attack
from .wire import decode_envelope, encode_envelope

_SEED_ENV = "LETTERSEAL_SEED"


def _emit(record: dict | None, fmt: str, text: str) -> None:
    """Print the record as one json line, or its text. A record of None
    (a header, a blank line) prints only as text."""
    if fmt == "text":
        print(text)
    elif record is not None:
        print(json.dumps(record, sort_keys=True))


# ---------------------------------------------------------------------------
# demo
# ---------------------------------------------------------------------------

def cmd_demo(protocol: str, messages: int, seed: int, fmt: str) -> int:
    """Two parties, one relay. A one-way design (v1, v2) streams one
    direction so the counter progression is visible; a duplex one (vdr)
    alternates sender every two messages so each turn opens a fresh epoch.
    The design's row labels each message."""
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
    row = design(protocol)
    for k in range(messages):
        alice_sends = not row.duplex or (k // 2) % 2 == 0
        sender, receiver = (alice, bob) if alice_sends else (bob, alice)
        pt = f"hello {k:02d}".encode()
        wire_bytes = relay.relay(encode_envelope(sender.seal(pt)))[0]
        received = decode_envelope(wire_bytes)
        ok = receiver.open(received) == pt
        stage, where = row.label(received, k)
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
    r = {
        "type": "attack_report",
        "name": report.name,
        "seed": seed,
        "succeeded": report.succeeded,
        "violated_freshness": report.violated_freshness,
        "expected_succeeded": expected[0],
        "expected_violated": expected[1],
        "as_expected": (report.succeeded,
                        report.violated_freshness) == expected,
        "queries": len(report.queries),  # one entry per answered oracle call
        "details": report.details,
    }

    def yn(flag: bool) -> str:
        return "yes" if flag else "no"

    _emit(r, fmt, "\n".join([
        f"attack {r['name']} (seed {seed})",
        f"  succeeded:          {yn(r['succeeded'])}"
        f"  (expected {yn(r['expected_succeeded'])})",
        f"  freshness violated: {yn(r['violated_freshness'])}"
        f"  (expected {yn(r['expected_violated'])})",
        f"  oracle queries:     {r['queries']}",
        *(f"  {key}: {r['details'][key]}" for key in sorted(r["details"])),
        f"  verdict: {'as expected' if r['as_expected'] else 'UNEXPECTED'}",
    ]))
    return 0 if r["as_expected"] else 1


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

def cmd_bench(iterations: int, seed: int, fmt: str) -> int:
    report = run_bench(iterations=iterations, seed=seed)
    for record, text in report_lines(report):
        _emit(record, fmt, text)
    _emit(None, fmt, "")
    return 0


# ---------------------------------------------------------------------------
# vectors
# ---------------------------------------------------------------------------

def cmd_vectors(path: str, fmt: str) -> int:
    """The file is outside input: one that cannot be read, parsed or
    computed is an error line."""
    try:
        results = check_file(path)
    except (OSError, ValueError) as exc:
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

def _bounded(parse, message: str, low: int, high: float = float("inf")):
    """An argparse type: the integer parse(text), refused with message
    (formatted with the value) unless low <= value < high. argparse runs a
    string default through it too, so $LETTERSEAL_SEED is checked as the
    flag is."""
    # argparse names this function when parse raises a ValueError:
    # "invalid integer value: 'abc'"
    def integer(text: str) -> int:
        value = parse(text)
        if not low <= value < high:
            raise argparse.ArgumentTypeError(message.format(value))
        return value
    return integer


def _build_parser() -> argparse.ArgumentParser:
    """Every argument is checked here, so a bad one is refused the one
    argparse way: a usage line, an error line, exit 2. A subcommand's
    namespace holds its cmd_* function as ``run`` and that function's
    keyword arguments."""
    parser = argparse.ArgumentParser(
        prog="letterseal",
        description="Sealed-messaging protocols, attack scenarios and "
                    "benchmarks.")
    sub = parser.add_subparsers(required=True)

    p_demo = sub.add_parser("demo", help="seeded two-party conversation")
    p_demo.add_argument("--protocol", choices=tuple(DESIGNS),
                        default="vdr")
    p_demo.add_argument("--iterations", dest="messages", default=6,
                        type=_bounded(int, "demo needs at least one message",
                                      1))

    p_attack = sub.add_parser("attack", help="run one scripted adversary")
    p_attack.add_argument("name", choices=attack_names())

    p_bench = sub.add_parser("bench", help="timing and op-count report")
    p_bench.add_argument("--iterations", default=MIN_ITERATIONS,
                         type=_bounded(int, "bench needs --iterations >= "
                                       f"{MIN_ITERATIONS}", MIN_ITERATIONS))

    p_vec = sub.add_parser("vectors", help="check KAT vectors")
    p_vec.add_argument("--check", dest="path", required=True,
                       metavar="PATH", help="verify a vector file bit for bit")

    seed = _bounded(lambda v: int(v, 0), "seed must fit in u64, got {}",
                    0, 2**64)
    for p in (p_demo, p_attack, p_bench):
        p.add_argument("--seed", type=seed,
                       default=os.environ.get(_SEED_ENV, "0"),
                       help=f"u64 seed (default: ${_SEED_ENV} or 0)")
    for p, run in ((p_demo, cmd_demo), (p_attack, cmd_attack),
                   (p_bench, cmd_bench), (p_vec, cmd_vectors)):
        p.set_defaults(run=run)
        p.add_argument("--format", dest="fmt", choices=("text", "json-lines"),
                       default="text")
    return parser


def main(argv: list[str] | None = None) -> int:
    kwargs = vars(_build_parser().parse_args(argv))
    try:
        code = kwargs.pop("run")(**kwargs)
        sys.stdout.flush()  # so a closed pipe raises here, not at exit
    except BrokenPipeError:  # quiet exit 1; devnull takes the exit's flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
