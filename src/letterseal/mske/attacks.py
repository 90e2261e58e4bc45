"""Scripted adversaries against the sealing protocols, run inside the game.

Each attack is a fixed, seed-deterministic oracle sequence plus an offline
computation, reported as an AttackReport. succeeded says whether the win
condition held; violated_freshness says whether the trace tripped the
protocol's freshness predicate at the stage the attack went after. The two
axes are independent on purpose: a win on a fresh trace is a model-admitted
break, a win on a violated trace is merely excluded bookkeeping. _report
builds every report and picks the predicate from the game's protocol;
_ATTACKS lists each script with the verdict pair it is expected to give.
A report holds the game's QueryTrace, not its text: the lines and their
digests are rendered when report.trace is read, so a reader of the
verdicts alone, such as the benchmark, never renders them.

A script keeps no record of its own: it reads envelope bytes, plaintexts
and true keys from the game's records, and learns secrets only from
oracle answers. Every key it seals or tests with comes from an oracle
answer or from g.closure(), the game's KeyClosure: every key the reveals
so far expose, closed over the envelopes of the stages the sessions
accepted, under the design's rule. It seals through the protocols and
derives nothing by hand. A script feeds the closure nothing.
The ratchet scripts check the closure's keys byte for byte against the
keys the honest parties recorded, so "excluded" means the true key is
absent, not merely that a search gave up.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .. import crypto_suite as cs
from ..endpoint import PROTO_V2, PROTO_VDR
from ..errors import LettersealError, UnknownAttack
from ..linev2 import SessionV2, v2_decrypt, v2_encrypt
from ..linevdr import (
    ROLE_INITIATOR,
    ROLE_RESPONDER,
    vdr_decrypt,
    vdr_import_state,
    vdr_open,
)
from ..wire import decode_envelope, encode_envelope
from .freshness import fresh_v2, fresh_vdr
from .game import ACCEPT, Game, QueryTrace

A, B = 1, 2


@dataclass
class AttackReport:
    """One attack's verdicts and details, and the game's oracle log.

    ``queries`` is the game's QueryTrace, one entry per oracle call that
    answered (none for one refused with an exception); it is neither shown
    nor compared. ``trace`` renders it as text, digests
    included, on every read and keeps no copy: a caller that reads only
    the verdicts pays nothing for it.
    """

    name: str
    succeeded: bool
    violated_freshness: bool
    queries: QueryTrace = field(repr=False, compare=False)
    details: dict = field(default_factory=dict)

    @property
    def trace(self) -> str:
        return self.queries.export()


def _adv_rng(seed: int, label: bytes) -> cs.SeededRng:
    # sibling fork of the game's b"protocol"/b"game" streams
    return cs.SeededRng(seed).fork(b"adversary-" + label)


def _game(protocol: str, seed: int, plan=()) -> Game:
    """A two-party game with session 1 of A activated as initiator and
    session 1 of B as responder, then driven through plan (see _flights)."""
    g = Game(protocol, 2, seed)
    g.oracle_send(A, 1, (B, ROLE_INITIATOR))
    g.oracle_send(B, 1, (A, ROLE_RESPONDER))
    _flights(g, plan)
    return g


def _flights(g: Game, plan: list[tuple[int, bytes]]) -> None:
    """Drive sender->peer flights per plan [(sender, plaintext)], delivering
    each envelope immediately."""
    for sender, pt in plan:
        raw = g.oracle_send(sender, 1, ("encrypt", 0, pt))
        g.oracle_send(B if sender == A else A, 1, raw)


def _test(g: Game, u: int, s, k_adv: bytes) -> dict:
    """Ask Test at stage s of (u, 1) and guess real iff it returns k_adv."""
    k_t = g.oracle_test(u, 1, s)
    guess = 0 if (k_t is not None and bytes(k_t) == bytes(k_adv)) else 1
    return {"challenge_bit": g.b, "guess": guess}


def _report(name: str, g: Game, succeeded: bool, tested: tuple,
            details: dict) -> AttackReport:
    """The report of one attack; tested = (party, stage) is the stage the
    attack went after, judged by its protocol's freshness predicate."""
    fresh = fresh_vdr if g.design.duplex else fresh_v2
    u, s = tested
    return AttackReport(name, succeeded, not fresh(g, (u, 1, s)), g.trace,
                        details)


# ---------------------------------------------------------------------------
# Salted-hash protocol attacks
# ---------------------------------------------------------------------------

def attack_kci_v2(seed: int) -> AttackReport:
    """Reveal the victim's long-term secret, then impersonate the peer to
    the victim and distinguish the forged stage's key with certainty."""
    g = _game(PROTO_V2, seed, [(A, b"hello from the real sender")])
    honest = decode_envelope(g.sessions[(B, 1)].transcript[1])

    g.oracle_rev_ltk(B)
    # the peer's session: the pms the victim's own secret recreates
    as_peer = SessionV2(pms=g.closure().pms, kid_self=honest.kid_sender,
                        kid_peer=honest.kid_receiver, sid=honest.sid,
                        rid=honest.rid)
    forged_pt = b"wire the funds to account 42"
    forged = v2_encrypt(as_peer, honest.ctype, forged_pt,
                        _adv_rng(seed, b"kci"))
    g.oracle_send(B, 1, encode_envelope(forged))

    rec = g.sessions[(B, 1)]
    stage = 2
    accepted = rec.status.get(stage) == ACCEPT
    impersonated = rec.plaintexts.get(stage) == forged_pt
    # B accepted the forgery, so the closure holds its key
    test = _test(g, B, stage, g.closure().key_for(forged))
    succeeded = accepted and impersonated and test["guess"] == g.b
    return _report("kci_v2", g, succeeded, (B, stage), {
        "forged_stage_accepted": accepted,
        "forged_plaintext_decrypted": impersonated,
        **test,
    })


def attack_replay_v2(seed: int) -> AttackReport:
    """Deliver the same envelope twice; the stateless receiver accepts both.
    A cross-stage key reveal then wins the distinguishing game on a trace
    the freshness predicate still calls fresh (replays are admissible)."""
    pt = b"pay invoice 7031 now"
    g = _game(PROTO_V2, seed, [(A, pt)])
    rec = g.sessions[(B, 1)]
    g.oracle_send(B, 1, rec.transcript[1])  # byte-identical duplicate

    dup_accepted = (rec.status.get(1) == ACCEPT and rec.status.get(2) == ACCEPT
                    and rec.plaintexts.get(1) == pt
                    and rec.plaintexts.get(2) == pt)

    # same salt, same pms: stage 1's key IS stage 2's key
    test = _test(g, B, 2, g.oracle_rev_sesskey(B, 1, 1))
    succeeded = dup_accepted and test["guess"] == g.b
    return _report("replay_v2", g, succeeded, (B, 2), {
        "duplicate_accepted": dup_accepted,
        **test,
        "replay_events": len(rec.replay_events),
    })


def attack_fs_v2(seed: int) -> AttackReport:
    """Record fifty ciphertexts, then reveal the receiver's state once.
    The pre-master secret inside decrypts every recorded message."""
    total = 50
    g = _game(PROTO_V2, seed,
              [(A, b"minute %03d of the meeting" % n) for n in range(total)])
    rec = g.sessions[(B, 1)]
    g.oracle_rev_state(B, 1, total)
    closure = g.closure()
    # the receiver's session rebuilt from the leaked pms and a recorded header
    honest = decode_envelope(rec.transcript[1])
    stolen = SessionV2(pms=closure.pms, kid_self=honest.kid_receiver,
                       kid_peer=honest.kid_sender, sid=honest.rid,
                       rid=honest.sid)

    opened = 0
    for stage, raw in rec.transcript.items():
        try:
            out = v2_decrypt(stolen, decode_envelope(raw))
        except LettersealError:
            continue
        if out == rec.plaintexts[stage]:
            opened += 1

    tested = total // 2
    env_t = decode_envelope(rec.transcript[tested])
    test = _test(g, B, tested, closure.key_for(env_t))
    succeeded = opened == total and test["guess"] == g.b
    return _report("fs_v2", g, succeeded, (B, tested), {
        "recorded": total,
        "decrypted_post_hoc": opened,
        **test,
    })


# ---------------------------------------------------------------------------
# Ratchet protocol attacks
# ---------------------------------------------------------------------------

def attack_replay_vdr(seed: int) -> AttackReport:
    """Duplicate deliveries are refused as already consumed, both
    immediately and after the conversation has moved on: the stage sits
    behind the live receive chain and no cached key is left for it."""
    pt = b"first flight"
    g = _game(PROTO_VDR, seed, [(A, pt)])
    rec = g.sessions[(B, 1)]
    g.oracle_send(B, 1, rec.transcript[(0, 0)])  # immediate duplicate
    _flights(g, [(A, b"second flight")])
    g.oracle_send(B, 1, rec.transcript[(0, 0)])  # late duplicate

    rejections = [r for r in rec.replay_events if r[1] == "ReplayRejected"]
    accepted_once = (rec.status.get((0, 0)) == ACCEPT
                     and rec.plaintexts.get((0, 0)) == pt)
    return _report("replay_vdr", g, len(rejections) != 2, (B, (0, 0)), {
        "duplicate_rejections": len(rejections),
        "first_delivery_accepted": bool(accepted_once),
    })


def attack_kci_vdr_postratchet(seed: int) -> AttackReport:
    """Reveal the responder's long-term secret after the ratchet has turned.
    The closure reaches every epoch-0 key (the initial derivation leans on
    that secret) but nothing at epoch 1 or later."""
    g = _game(PROTO_VDR, seed, [
        (A, b"m 0,0"), (A, b"m 0,1"),
        (B, b"r 1,0"),
        (A, b"m 2,0"),
    ])
    g.oracle_rev_ltk(B)  # the revealed ltk, nothing else
    closure = g.closure()

    truth = g.sessions[(A, 1)].key  # one session records both directions
    epoch0_true = all(closure.message_key(s) == bytes(truth[s])
                      for s in [(0, 0), (0, 1)])
    post_stages = [s for s in closure.stages() if s[0] >= 1]
    post_true_keys_leaked = any(closure.holds_value(truth[s])
                                for s in [(1, 0), (2, 0)])
    rec_b = g.sessions[(B, 1)]
    mk00 = closure.message_key((0, 0))
    epoch0_opens = (mk00 is not None
                    and vdr_open(cs.SymmetricKey(mk00),
                                 decode_envelope(rec_b.transcript[(0, 0)]))
                    == rec_b.plaintexts[(0, 0)])

    succeeded = bool(post_stages) or post_true_keys_leaked
    return _report("kci_vdr_postratchet", g, succeeded, (B, (2, 0)), {
        "closure_stages": [list(s) for s in closure.stages()],
        "epoch0_keys_match_truth": epoch0_true,
        "epoch0_ciphertext_opens": epoch0_opens,
        "post_ratchet_stage_reached": bool(post_stages),
        "post_ratchet_true_key_leaked": post_true_keys_leaked,
    })


def attack_fs_vdr(seed: int) -> AttackReport:
    """Snapshot both parties after everything is consumed, then try to
    decrypt the recorded traffic by driving imported copies of the states.
    Consumed indices are refused and the chains have moved past; the
    snapshots also no longer contain any spent message key. Each snapshot
    is imported once, and again only after an open moves the copy: a
    refused decrypt leaves the state as it was, so every attempt starts
    from the snapshot as revealed."""
    g = _game(PROTO_VDR, seed, [
        (A, b"m 0,0"), (A, b"m 0,1"), (A, b"m 0,2"),
        (B, b"r 1,0"), (B, b"r 1,1"),
        (A, b"m 2,0"),
    ])
    rec_a, rec_b = g.sessions[(A, 1)], g.sessions[(B, 1)]
    opened_by = {**rec_a.plaintexts, **rec_b.plaintexts}  # stage -> plaintext
    snap_b = g.oracle_rev_state(B, 1, (2, 0))  # after consuming all of A's sends
    snap_a = g.oracle_rev_state(A, 1, (2, 0))  # after consuming all of B's sends

    adv = _adv_rng(seed, b"fs-vdr")
    attempts = 0
    opened = 0
    for snap in (snap_b, snap_a):
        st = vdr_import_state(snap)
        for stage, raw in rec_a.transcript.items():
            env = decode_envelope(raw)
            attempts += 1
            try:
                out = vdr_decrypt(st, env, adv.fork(b"%d-%d" % stage))
            except LettersealError:
                continue  # refused: st is still the snapshot's state
            st = vdr_import_state(snap)  # opened: the next try starts over
            if out == opened_by[stage]:
                opened += 1

    erased = all(
        bytes(rec_b.key[s]) not in snap_b
        for s in [(0, 0), (0, 1), (0, 2), (2, 0)]
    ) and all(
        bytes(rec_a.key[s]) not in snap_a
        for s in [(1, 0), (1, 1)]
    )
    return _report("fs_vdr", g, opened > 0, (B, (0, 1)), {
        "decrypt_attempts": attempts,
        "decrypted": opened,
        "consumed_keys_absent_from_snapshots": erased,
    })


def attack_pcs_vdr(seed: int) -> AttackReport:
    """Full-state compromise of the responder at its send epoch x=1, then
    passive observation. The closure falls through epoch x+1 (the victim's
    stored rk and ephemeral carry that far) and heals at x+2, where a
    post-compromise ephemeral enters the root."""
    g = _game(PROTO_VDR, seed, [(A, b"m 0,0"), (A, b"m 0,1")])
    g.oracle_rev_state(B, 1, (0, 1))  # compromise: B's send epoch is 1
    _flights(g, [
        (A, b"m 0,2"),   # epoch-0 remainder
        (B, b"r 1,0"),   # epoch-x remainder
        (B, b"r 1,1"),
        (A, b"m 2,0"),   # x+1: still falls
        (B, b"r 3,0"),   # x+2: heals
        (A, b"m 4,0"),
    ])
    closure = g.closure()

    rec_a, rec_b = g.sessions[(A, 1)], g.sessions[(B, 1)]
    opened_by = {**rec_a.plaintexts, **rec_b.plaintexts}  # stage -> plaintext
    fallen = {}
    for stage in [(0, 2), (1, 0), (1, 1), (2, 0)]:
        mk = closure.message_key(stage)
        ok = mk is not None and mk == bytes(rec_a.key[stage])
        if ok:
            ok = (vdr_open(cs.SymmetricKey(mk),
                           decode_envelope(rec_a.transcript[stage]))
                  == opened_by[stage])
        fallen[stage] = ok
    healed = {}
    for stage in [(3, 0), (4, 0)]:
        healed[stage] = (closure.message_key(stage) is None
                         and not closure.holds_value(rec_a.key[stage]))

    # a win would be reaching x+2
    return _report("pcs_vdr", g, not all(healed.values()), (A, (3, 0)), {
        "compromise_epoch": 1,
        "fallen_stages_decrypted": {f"{s[0]},{s[1]}": v
                                    for s, v in fallen.items()},
        "healed_stages_excluded": {f"{s[0]},{s[1]}": v
                                   for s, v in healed.items()},
        "closure_stages": [list(s) for s in closure.stages()],
    })


# ---------------------------------------------------------------------------

# name -> (script, the (succeeded, violated) it is expected to report)
_ATTACKS = {
    "kci_v2": (attack_kci_v2, (True, True)),
    "replay_v2": (attack_replay_v2, (True, False)),
    "replay_vdr": (attack_replay_vdr, (False, False)),
    "kci_vdr_postratchet": (attack_kci_vdr_postratchet, (False, False)),
    "fs_v2": (attack_fs_v2, (True, True)),
    "fs_vdr": (attack_fs_vdr, (False, False)),
    "pcs_vdr": (attack_pcs_vdr, (False, False)),
}

EXPECTED: dict[str, tuple[bool, bool]] = {
    name: expected for name, (_, expected) in _ATTACKS.items()}


def attack_names() -> list[str]:
    return sorted(_ATTACKS)


def run_attack(name: str, seed: int = 0) -> AttackReport:
    try:
        fn, _ = _ATTACKS[name]
    except KeyError:
        raise UnknownAttack(
            f"unknown attack {name!r}; known: {', '.join(sorted(_ATTACKS))}"
        ) from None
    return fn(seed)
