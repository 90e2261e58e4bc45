"""Shared builders for the test suite: keypairs, sessions, golden fixtures.

The golden builders are deliberately deterministic end to end; each frozen
file under data/ was produced by its write_* function and must never be
regenerated casually, since every byte of it is asserted against.
"""

import hashlib
import importlib.util
from pathlib import Path

from letterseal import crypto_suite as cs
from letterseal.endpoint import endpoint_pair
from letterseal.linev1 import v1_establish
from letterseal.linev2 import v2_establish
from letterseal.linevdr import (
    vdr_export_state,
    vdr_init_sender,
    vdr_lazy_init_receiver,
)
from letterseal.mske import PROTO_VDR, Game, attack_names, run_attack
from letterseal.mske.attacks import _game
from letterseal.wire import encode_envelope

DATA_DIR = Path(__file__).parent / "data"
GOLDEN_FILE = DATA_DIR / "golden_envelopes.txt"
# written by tools/reference_kat.py, shipped as package data
KAT_FILE = (Path(__file__).resolve().parents[1]
            / "src" / "letterseal" / "kat_vectors.txt")
SNAPSHOT_FILE = DATA_DIR / "golden_snapshots.txt"
ATTACK_TRACE_FILE = DATA_DIR / "golden_attack_traces.txt"

GOLDEN_SEED = 20260815
ATTACK_TRACE_SEEDS = (0, 1, 7)


def load_reference():
    """tools/reference_kat.py: plain-Python primitives and v1 envelopes
    sharing no code with the package."""
    path = Path(__file__).resolve().parents[1] / "tools" / "reference_kat.py"
    spec = importlib.util.spec_from_file_location("reference_kat", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class _Logged:
    """A cipher context that logs each input it is fed."""

    def __init__(self, ctx, log):
        self.ctx, self.log = ctx, log

    def update(self, data):
        self.log.append(bytes(data))
        return self.ctx.update(data)


def count_ciphers(monkeypatch) -> list:
    """Replace crypto_suite.Cipher, the class every AES-CBC context comes
    from; each build appends the log of the inputs fed to it."""
    builds = []
    real = cs.Cipher

    class Counting:
        def __init__(self, *args):
            self.cipher, self.log = real(*args), []
            builds.append(self.log)

        def encryptor(self):
            return _Logged(self.cipher.encryptor(), self.log)

        def decryptor(self):
            return _Logged(self.cipher.decryptor(), self.log)

    monkeypatch.setattr(cs, "Cipher", Counting)
    return builds


def count_key_objects(patch) -> list:
    """Replace crypto_suite.dh_private_key, the one place a key object is
    built; returns the scalars of the objects built from here on, in
    order."""
    built = []
    real = cs.dh_private_key
    patch.setattr(cs, "dh_private_key",
                  lambda secret: built.append(bytes(secret)) or real(secret))
    return built


def keypairs(seed: int):
    """Two long-term keypairs plus the per-party rngs that continue
    drawing after keygen, so callers replay one deterministic world."""
    root = cs.SeededRng(seed)
    a_rng = root.fork(b"alice")
    b_rng = root.fork(b"bob")
    a_sk, a_pk = cs.dh_keygen(a_rng)
    b_sk, b_pk = cs.dh_keygen(b_rng)
    return a_sk, a_pk, b_sk, b_pk, a_rng, b_rng


def v1_pair(seed: int):
    a_sk, a_pk, b_sk, b_pk, a_rng, b_rng = keypairs(seed)
    sa = v1_establish(a_sk, b_pk, kid_self=11, kid_peer=12)
    sb = v1_establish(b_sk, a_pk, kid_self=12, kid_peer=11)
    return sa, sb, a_rng, b_rng


def v2_pair(seed: int):
    a_sk, a_pk, b_sk, b_pk, a_rng, b_rng = keypairs(seed)
    sa = v2_establish(a_sk, b_pk, kid_self=11, kid_peer=12,
                      sid="alice", rid="bob")
    sb = v2_establish(b_sk, a_pk, kid_self=12, kid_peer=11,
                      sid="bob", rid="alice")
    return sa, sb, a_rng, b_rng


def vdr_pair(seed: int):
    """Initiator state plus the materials the responder needs for its
    lazy init once the opening envelope exists."""
    a_sk, a_pk, b_sk, b_pk, a_rng, b_rng = keypairs(seed)
    sta = vdr_init_sender(a_sk, b_pk, a_rng, kid_self=11, kid_peer=12)
    return sta, (b_sk, a_pk), a_rng, b_rng


def vdr_receiver(materials, first_env):
    b_sk, a_pk = materials
    return vdr_lazy_init_receiver(b_sk, a_pk, first_env,
                                  kid_self=12, kid_peer=11)


def golden_payload(name: str) -> bytes:
    family, _, index = name.partition("-")
    return f"golden {family} message {index}".encode()


# per protocol: (name, ctype, sender) flights, each delivered at once; the
# ratchet block walks epochs 0..2 so both ratchet directions are pinned
GOLDEN_SCRIPTS = {
    "v1": [("v1-0", 0, "a"), ("v1-1", 1, "a"), ("v1-2", 2, "a")],
    "v2": [("v2-0", 0, "a"), ("v2-1", 1, "a"), ("v2-2", 2, "a")],
    "vdr": [("vdr-0-0", 0, "a"), ("vdr-0-1", 1, "a"),
            ("vdr-1-0", 0, "b"), ("vdr-1-1", 1, "b"),
            ("vdr-2-0", 0, "a")],
}


def golden_envelope_lines() -> list[str]:
    """Eleven seeded envelopes spanning all three families."""
    lines = []
    for protocol, script in GOLDEN_SCRIPTS.items():
        a_sk, a_pk, b_sk, b_pk, a_rng, b_rng = keypairs(GOLDEN_SEED)
        a, b = endpoint_pair(protocol, (a_sk, a_pk), (b_sk, b_pk), a_rng,
                             b_rng, kids=(11, 12), names=("alice", "bob"))
        for name, ctype, sender in script:
            src, dst = (a, b) if sender == "a" else (b, a)
            env = src.seal(golden_payload(name), ctype)
            dst.open(env)  # not in an assert: -O builds the file too
            lines.append(f"{name} {encode_envelope(env).hex()}")
    return lines


def golden_text() -> str:
    header = "# seeded envelope bytes; regenerate only on a wire format change\n"
    return header + "\n".join(golden_envelope_lines()) + "\n"


def golden_snapshot_lines() -> list[str]:
    """Three seeded ratchet snapshots: an initiator before its first
    receive (ck_recv and peer_eph_pub unset), a responder holding two
    cached skipped keys, and the initiator after two receive epoch turns."""
    a_sk, a_pk, b_sk, b_pk, a_rng, b_rng = keypairs(GOLDEN_SEED)
    a, b = endpoint_pair("vdr", (a_sk, a_pk), (b_sk, b_pk), a_rng, b_rng,
                         kids=(11, 12), names=("alice", "bob"))
    envs = [a.seal(b"golden snapshot %d" % j) for j in range(3)]
    lines = [f"initiator-unanswered {vdr_export_state(a.session).hex()}"]
    b.open(envs[2])  # caches the keys of stages (0,0) and (0,1)
    lines.append(f"responder-skipped {vdr_export_state(b.session).hex()}")
    a.open(b.seal(b"epoch 1"))
    b.open(a.seal(b"epoch 2"))
    a.open(b.seal(b"epoch 3"))
    lines.append(f"initiator-two-turns {vdr_export_state(a.session).hex()}")
    return lines


def golden_snapshot_text() -> str:
    header = ("# seeded ratchet snapshot bytes; regenerate only on a "
              "snapshot format change\n")
    return header + "\n".join(golden_snapshot_lines()) + "\n"


def parse_golden_file(path: Path = GOLDEN_FILE) -> dict[str, bytes]:
    """name -> bytes for a golden file of ``name hex`` lines."""
    out = {}
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, hexpart = line.split()
        out[name] = bytes.fromhex(hexpart)
    return out


def write_golden_file() -> None:
    GOLDEN_FILE.write_text(golden_text())


def write_snapshot_file() -> None:
    SNAPSHOT_FILE.write_text(golden_snapshot_text())


def scripted_game() -> Game:
    """A seeded ratchet game that calls every oracle. RevRand reads the
    responder's reply stage (1,0) twice: once when only the open that drew
    its ephemeral has run, and again after the reply's seal added the
    nonce draw. The bytearray plaintext is changed after its Send."""
    g = _game(PROTO_VDR, 11)
    first = g.oracle_send(1, 1, ("encrypt", 0, b"opener"))
    buf = bytearray(b"second")
    second = g.oracle_send(1, 1, ("encrypt", 1, buf))
    buf[:] = b"changed"
    g.oracle_send(2, 1, second)  # caches the key of (0,0)
    g.oracle_rev_rand(2, 1, (1, 0))
    g.oracle_send(2, 1, first)
    reply = g.oracle_send(2, 1, ("encrypt", 2, b"reply"))
    g.oracle_rev_rand(2, 1, (1, 0))
    g.oracle_send(1, 1, reply)
    g.oracle_send(1, 1, reply)  # a replay event
    g.oracle_send(1, 1, b"\x99junk")
    g.oracle_rev_sesskey(1, 1, (0, 0))
    g.oracle_rev_state(2, 1, (1, 0))
    g.oracle_rev_ltk(2)
    g.oracle_test(1, 1, (9, 9))  # refused: never accepted
    g.oracle_test(2, 1, (0, 1))
    g.oracle_test(1, 1, (1, 0))  # refused: a Test was already asked
    return g


def _trace_line(label: str, verdicts: str, trace: str) -> str:
    digest = hashlib.sha256(trace.encode()).hexdigest()
    return f"{label} {verdicts} {len(trace.splitlines())} {digest}"


def attack_trace_lines() -> list[str]:
    """Per attack and seed: verdict pair (succeeded, violated freshness),
    trace line count and SHA-256 of the trace; then the scripted game."""
    lines = []
    for name in attack_names():
        for seed in ATTACK_TRACE_SEEDS:
            rep = run_attack(name, seed)
            verdicts = f"{rep.succeeded:d},{rep.violated_freshness:d}"
            lines.append(_trace_line(f"{name}@{seed}", verdicts, rep.trace))
    lines.append(_trace_line("scripted_game", "-", scripted_game().trace.export()))
    return lines


def attack_trace_text() -> str:
    header = ("# oracle traces of the scripted attacks and one scripted game; "
              "regenerate only when an oracle trace changes on purpose, and "
              "name each changed line in CHANGES.md\n")
    return header + "\n".join(attack_trace_lines()) + "\n"


def write_attack_trace_file() -> None:
    ATTACK_TRACE_FILE.write_text(attack_trace_text())
