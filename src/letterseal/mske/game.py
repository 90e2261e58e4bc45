"""Multi-stage key-indistinguishability game over the sealing protocols.

The challenger owns all parties and sessions; the adversary drives them
through six oracles (Send, RevSessKey, RevLongTermKey, RevRand, RevState,
Test) and wins by guessing the challenge bit. Freshness predicates are
evaluated post hoc over the recorded flags, never enforced inline, so a
script may deliberately violate them and the report says so afterwards.

Sessions. Each session is an Endpoint, the same party object the demo,
the bench and the golden fixtures use, so the game sets up, seals and opens
exactly as they do: a ratchet initiator draws its epoch-0 ephemeral at its
first send, not at activation, and a ratchet responder sets up from the
first envelope it opens, and an envelope of another protocol's family is
refused with ParseError like any malformed delivery. What the game adds per
protocol is one row of _PROTOCOLS: the stage of an envelope and the state
snapshot. The game derives no stage key and reads no rng history: each seal
and open runs in a ``with crypto_suite.Recorder()`` block, which receives
the key the protocol used and the bytes the party's rng drew.

Stage mapping. The salted-hash protocol treats every encrypted message as
one stage with session key k_e; stages are 1-indexed integers and a session
is unidirectional (the initiator's stages are its sends, the responder's
its receives). The ratchet protocol uses (epoch, index) pairs, ordered
lexicographically, and one session covers both directions. A ratchet
delivery with no header (junk, or another family's envelope) takes stage
(2**32, n), n counting such deliveries: no u32 header carries that epoch,
so a forged header never lands on a junk delivery's stage.

Determinism. A game seeded with s derives one stream per party
(fork b"party-<u>" of fork b"protocol") plus a challenger stream
(fork b"game") for the bit b and the b=1 random key, so every oracle
response is a pure function of (seed, query sequence).

Trace. Every oracle call appends one entry to the game's QueryTrace: a line
template and the values it names, bytes included. Lines and their digests
are rendered only when the trace is read, since a long game is seldom read,
and an attack's report holds the trace and renders it only when its text
is read. Counting the calls renders nothing.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from .. import crypto_suite as cs
from ..directory_server import KeyDirectory
from ..endpoint import Endpoint
from ..errors import (
    LettersealError,
    ParseError,
    StageNotAccepted,
    StageUnknown,
)
from ..linev2 import SessionV2
from ..linevdr import ROLE_INITIATOR, ROLE_RESPONDER, vdr_export_state
from ..wire import EnvelopeVDR, _Run, decode_envelope, encode_envelope

PROTO_V2 = "v2"
PROTO_VDR = "vdr"

ACCEPT = "accept"
REJECT = "reject"


@dataclass
class SessionRecord:
    owner: int
    index: int
    role: str
    pid: int
    ep: Endpoint
    status: dict = field(default_factory=dict)       # stage -> ACCEPT|REJECT
    key: dict = field(default_factory=dict)          # stage -> SymmetricKey
    rand_log: dict = field(default_factory=dict)     # stage -> bytes drawn
    state_snap: dict = field(default_factory=dict)   # stage -> snapshot bytes
    transcript: dict = field(default_factory=dict)   # stage -> envelope bytes
    plaintexts: dict = field(default_factory=dict)   # stage -> decrypted bytes
    reject_reason: dict = field(default_factory=dict)  # stage -> why REJECT
    rev_sesskey: dict = field(default_factory=dict)  # stage -> bool
    rev_rand: dict = field(default_factory=dict)
    rev_state: dict = field(default_factory=dict)
    replay_events: list = field(default_factory=list)
    headerless: int = 0  # headerless deliveries so far; see _vdr_stage

    def next_stage_v2(self) -> int:
        return len(self.status) + 1


_V2_STATE = _Run(("pms", "32s"), ("ctr", "I"))


def _v2_snapshot(sess: SessionV2) -> bytes:
    """Everything the party stores: the pre-master secret and the counter."""
    return _V2_STATE.pack(sess.pms, sess.ctr)


def v2_snapshot_pms(snapshot: bytes) -> cs.SharedSecret:
    return cs.SharedSecret(_V2_STATE.read(snapshot, 0)[0])


_NO_HEADER = 1 << 32  # the epoch of a headerless stage: no u32 header has it


def _vdr_stage(rec: SessionRecord, env) -> tuple[int, int]:
    """An envelope's stage; a headerless one is numbered by the headerless
    deliveries so far. Every stage asked for here enters rec.status next."""
    if isinstance(env, EnvelopeVDR):
        return (env.i_index, env.j_index)
    rec.headerless += 1
    return (_NO_HEADER, rec.headerless - 1)


class _Protocol(NamedTuple):
    stage: Callable                     # (record, envelope or None) -> stage
    snapshot: Callable                  # session state -> RevState bytes


_PROTOCOLS = {
    PROTO_V2: _Protocol(lambda rec, env: rec.next_stage_v2(), _v2_snapshot),
    PROTO_VDR: _Protocol(_vdr_stage, vdr_export_state),
}


# line templates of the trace, one per oracle outcome
_ACTIVATE = "Send u={} i={} activate pid={} role={} -> ok"
_ENCRYPT = "Send u={} i={} encrypt ctype={} pt#{} -> env#{}"
_DELIVER = "Send u={} i={} deliver env#{} -> stage={} {}"
_REV_SESSKEY = "RevSessKey u={} i={} s={} -> key#{}"
_REV_LTK = "RevLongTermKey u={} -> sk#{}"
_REV_RAND = "RevRand u={} i={} s={} -> rand#{}"
_REV_STATE = "RevState u={} i={} s={} -> snap#{}"
_TEST = "Test u={} i={} s={} -> key#{}"
_TEST_REFUSED = "Test u={} i={} s={} -> refused"


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _fmt_stage(s) -> str:
    return f"{s[0]},{s[1]}" if isinstance(s, tuple) else str(s)


def _show(value) -> str:
    """A recorded value as its line shows it: bytes by digest, a stage
    pair as "epoch,index", anything else by str()."""
    return _digest(value) if isinstance(value, bytes) else _fmt_stage(value)


def _render(entry: tuple) -> str:
    template, *values = entry
    return template.format(*map(_show, values))


class QueryTrace:
    """Replayable line log of every oracle invocation and its response.

    An entry is a tuple: a line template and the values it names, as
    recorded (ints, stages, strings and immutable bytes; never a reference
    into a session record, which may change later). Entries become lines,
    digests included, on each read (``lines``, ``export()``, ``in``);
    ``len()`` counts the entries without rendering them.
    """

    def __init__(self):
        self._log: list = []

    def add(self, *entry) -> None:
        """Record (template, *values); bytes values must not change later."""
        self._log.append(entry)

    @property
    def lines(self) -> list[str]:
        return [_render(entry) for entry in self._log]

    def export(self) -> str:
        lines = self.lines
        return "\n".join(lines) + ("\n" if lines else "")

    def __len__(self) -> int:
        """The number of entries, one per oracle call; renders nothing."""
        return len(self._log)

    def __contains__(self, needle: str) -> bool:
        return any(needle in line for line in self.lines)


class Game:
    """One seeded experiment instance; single-threaded by contract."""

    def __init__(self, protocol: str, n_parties: int = 2, seed: int = 0):
        if protocol not in _PROTOCOLS:
            raise ValueError(f"unknown protocol {protocol!r}")
        self.protocol = protocol
        self._proto = _PROTOCOLS[protocol]
        self.n_parties = n_parties
        root = cs.SeededRng(seed)
        proto_rng = root.fork(b"protocol")
        self.game_rng = root.fork(b"game")
        self.b = self.game_rng.token(1)[0] & 1
        self.tested: tuple | None = None
        self.trace = QueryTrace()
        self.directory = KeyDirectory()
        self.party_rng: dict[int, cs.SeededRng] = {}
        self.parties: dict[int, tuple[cs.GroupScalar, cs.GroupElement]] = {}
        self.kids: dict[int, int] = {}
        self.rev_ltk: dict[int, bool] = {}
        self.sessions: dict[tuple[int, int], SessionRecord] = {}
        for u in range(1, n_parties + 1):
            rng_u = proto_rng.fork(b"party-%d" % u)
            sk, pk = cs.dh_keygen(rng_u)
            self.party_rng[u] = rng_u
            self.parties[u] = (sk, pk)
            self.kids[u] = self.directory.register(pk, f"party-{u}")
            self.rev_ltk[u] = False

    # -- Send ---------------------------------------------------------------

    def oracle_send(self, u: int, i: int, m):
        key = (u, i)
        if key not in self.sessions:
            if (isinstance(m, tuple) and len(m) == 2
                    and m[1] in (ROLE_INITIATOR, ROLE_RESPONDER)):
                self._activate(u, i, pid=m[0], role=m[1])
                self.trace.add(_ACTIVATE, u, i, m[0], m[1])
                return None
            raise StageUnknown(f"no session ({u},{i}); first Send must activate")
        rec = self.sessions[key]
        if isinstance(m, tuple) and m and m[0] == "encrypt":
            _, ctype, pt = m
            out = self._send_encrypt(rec, ctype, pt)
            self.trace.add(_ENCRYPT, u, i, ctype, bytes(pt), out)
            return out
        if isinstance(m, (bytes, bytearray)):
            raw = bytes(m)
            stage, verdict = self._send_deliver(rec, raw)
            self.trace.add(_DELIVER, u, i, raw, stage, verdict)
            return None
        raise ValueError(f"unrecognized Send payload: {type(m).__name__}")

    def _activate(self, u: int, i: int, pid: int, role: str) -> None:
        self._party(u)
        self._party(pid)
        ep = Endpoint(self.protocol, self.parties[u][0],
                      self.directory.lookup(self.kids[pid]), self.party_rng[u],
                      self.kids[u], self.kids[pid], f"party-{u}", f"party-{pid}",
                      initiator=role == ROLE_INITIATOR)
        self.sessions[(u, i)] = SessionRecord(owner=u, index=i, role=role,
                                              pid=pid, ep=ep)

    def _send_encrypt(self, rec: SessionRecord, ctype: int, pt: bytes) -> bytes:
        with cs.Recorder() as seen:
            env = rec.ep.seal(pt, ctype)
        raw = encode_envelope(env)
        stage = self._proto.stage(rec, env)
        # a ratchet reply stage already holds the ephemeral its open drew
        rec.rand_log[stage] = rec.rand_log.get(stage, b"") + b"".join(seen.draws)
        self._accept(rec, stage, seen.keys, raw)
        return raw

    def _send_deliver(self, rec: SessionRecord, raw: bytes):
        try:
            env = decode_envelope(raw)
        except ParseError as exc:
            return self._reject(rec, self._proto.stage(rec, None), raw,
                                f"parse: {exc}")
        stage = self._proto.stage(rec, env)
        try:
            with cs.Recorder() as seen:
                pt = rec.ep.open(env)
        except LettersealError as exc:
            return self._reject(rec, stage, raw, type(exc).__name__)
        self._accept(rec, stage, seen.keys, raw)
        rec.plaintexts[stage] = pt
        # only a ratchet open that starts a reply epoch draws: its
        # ephemeral, the first draw of that new send stage
        if seen.draws:
            rec.rand_log[(rec.ep.session.i_s, 0)] = b"".join(seen.draws)
        return stage, ACCEPT

    def _accept(self, rec: SessionRecord, stage, keys: list,
                raw: bytes) -> None:
        rec.status[stage] = ACCEPT
        (rec.key[stage],) = keys  # one message key per seal or open
        rec.transcript[stage] = raw
        rec.state_snap[stage] = self._proto.snapshot(rec.ep.session)

    @staticmethod
    def _reject(rec: SessionRecord, stage, raw: bytes, reason: str):
        if stage in rec.status:
            rec.replay_events.append((stage, reason))
        else:
            rec.status[stage] = REJECT
            rec.transcript[stage] = raw
            rec.reject_reason[stage] = reason
        return stage, REJECT

    # -- Reveal oracles -----------------------------------------------------

    def _party(self, u: int) -> None:
        if u not in self.parties:
            raise StageUnknown(f"no party {u}; the parties are "
                               f"1..{self.n_parties}")

    def _session(self, u: int, i: int) -> SessionRecord:
        try:
            return self.sessions[(u, i)]
        except KeyError:
            raise StageUnknown(f"no session ({u},{i})") from None

    def oracle_rev_sesskey(self, u: int, i: int, s) -> cs.SymmetricKey:
        rec = self._session(u, i)
        if rec.status.get(s) != ACCEPT:
            raise StageNotAccepted(f"stage {_fmt_stage(s)} of ({u},{i}) not accepted")
        rec.rev_sesskey[s] = True
        self.trace.add(_REV_SESSKEY, u, i, s, rec.key[s])
        return rec.key[s]

    def oracle_rev_ltk(self, u: int) -> cs.GroupScalar:
        self._party(u)
        self.rev_ltk[u] = True
        sk, _ = self.parties[u]
        self.trace.add(_REV_LTK, u, sk)
        return sk

    def oracle_rev_rand(self, u: int, i: int, s) -> bytes:
        rec = self._session(u, i)
        if s not in rec.rand_log:
            raise StageUnknown(f"no randomness at stage {_fmt_stage(s)} of ({u},{i})")
        rec.rev_rand[s] = True
        self.trace.add(_REV_RAND, u, i, s, rec.rand_log[s])
        return rec.rand_log[s]

    def oracle_rev_state(self, u: int, i: int, s) -> bytes:
        rec = self._session(u, i)
        if s not in rec.state_snap:
            raise StageUnknown(f"no snapshot at stage {_fmt_stage(s)} of ({u},{i})")
        rec.rev_state[s] = True
        self.trace.add(_REV_STATE, u, i, s, rec.state_snap[s])
        return rec.state_snap[s]

    # -- Test ---------------------------------------------------------------

    def oracle_test(self, u: int, i: int, s) -> cs.SymmetricKey | None:
        if self.tested is not None:
            self.trace.add(_TEST_REFUSED, u, i, s)
            return None
        rec = self._session(u, i)
        if rec.status.get(s) != ACCEPT:
            self.trace.add(_TEST_REFUSED, u, i, s)
            return None
        self.tested = (u, i, s)
        k0 = rec.key[s]
        k1 = cs.SymmetricKey(self.game_rng.token(32))
        k = k0 if self.b == 0 else k1
        self.trace.add(_TEST, u, i, s, k)
        return k
