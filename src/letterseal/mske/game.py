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
refused with ParseError like any malformed delivery. The game reads its
design's row: ``snapshot`` for RevState, ``duplex`` for the stage mapping,
``static_keys`` for the key closure.
The game derives no recorded key and reads no rng history: each seal and open
runs in a ``with crypto_suite.Recorder()`` block, which receives the key
the protocol used and the bytes the party's rng drew.

Key objects. ``parties`` holds each party's (scalar, public) as its
keygen returned them, so the scalar holds the party's long-term key
object and every session of the party sets up from it; the key closure
holds the pair of each scalar it learns (a revealed snapshot's as its
import built it), by crypto_suite's ownership rule. RevLongTermKey alone
reveals the scalar: no session state holds a long-term key, so RevState
does not.

Stage mapping. A one-way design (v1, v2) treats every encrypted message
as one stage with session key k_e; stages are 1-indexed integers (the
initiator's stages are its sends, the responder's its receives). A duplex
design (the ratchet) takes the header's (epoch, index), ordered
lexicographically, and one session covers both directions. A duplex
delivery with no header (junk, or another family's envelope) takes stage
(2**32, n), n counting such deliveries: no u32 header carries that epoch,
so a forged header never lands on a junk delivery's stage.

Knowledge. The game records every reveal as a flag beside the value it
returned, and closure() reads the adversary's knowledge off those records:
each distinct envelope of a stage some session accepted (so every envelope
a session sent, delivered or not, and none that every receiver refused),
the scalar of each revealed long-term key, the ephemeral secret of each
revealed draw (its first 32 bytes; a draw without an epoch turn is a
4-byte nonce and exposes no scalar), each revealed snapshot and each
revealed stage key, all closed under KeyClosure's rules. The rules are
the design's: a static design's row names how a revealed state gives the
pair's pms and how the pms and an envelope give its stage key; the
ratchet's are the closure's own. The initiator and responder are read
off the sessions' roles, whichever party opened. Nothing is fed or kept
while the oracles run; each call builds the closure afresh, and held()
asks one for a stage's true key, whatever the design.

Determinism. A game seeded with s derives one stream per party
(fork b"party-<u>" of fork b"protocol") plus a challenger stream
(fork b"game") for the bit b and the b=1 random key, so every oracle
response is a pure function of (seed, query sequence).

Trace. Every oracle call that answers appends one entry to the game's
QueryTrace: a line template and the values it names, bytes included. A call
refused with an exception appends nothing: a Send to an unknown session, a
seal the protocol refuses, a reveal at a stage the session lacks. A refused
Test answers None and appends its refused entry. Lines and their digests
are rendered only when the trace is read, since a long game is seldom read,
and an attack's report holds the trace and renders it only when its text
is read. Counting the calls renders nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .. import crypto_suite as cs
from ..directory_server import KeyDirectory
from ..endpoint import Endpoint, StaticKeys, design
from ..errors import (
    LettersealError,
    ParseError,
    StageNotAccepted,
    StageUnknown,
)
from ..linevdr import ROLE_INITIATOR, ROLE_RESPONDER, vdr_import_state
from ..wire import EnvelopeVDR, decode_envelope, encode_envelope

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
    # (stage, why) of each refusal that is not its stage's recorded outcome
    replay_events: list = field(default_factory=list)
    headerless: int = 0  # headerless deliveries so far; see _header_stage


def _count_stage(rec: SessionRecord, env) -> int:
    """A one-way session's next stage: one past the stages it holds."""
    return len(rec.status) + 1


_NO_HEADER = 1 << 32  # the epoch of a headerless stage: no u32 header has it


def _header_stage(rec: SessionRecord, env) -> tuple[int, int]:
    """A duplex stage; a headerless one is numbered by the headerless
    deliveries so far. Every stage asked for here enters rec.status next."""
    if isinstance(env, EnvelopeVDR):
        return (env.i_index, env.j_index)
    rec.headerless += 1
    return (_NO_HEADER, rec.headerless - 1)


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
    return cs.hash(data).hex()[:16]


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
    """Replayable line log of every answered oracle call and its response.

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
        """The number of entries, one per answered call; renders nothing."""
        return len(self._log)

    def __contains__(self, needle: str) -> bool:
        return any(needle in line for line in self.lines)


class KeyClosure:
    """Key material derivable from leaks plus the public transcript.

    Rules, over the long-term publics x (initiator) and y (responder) and
    the envelopes given (the game gives those some session accepted). A
    static design (v1, v2) passes its row's StaticKeys as ``static_keys``:
      pms         the (x, y) exchange, answered from whichever secret is
                  held, unless a revealed state gave it
      stage key   static_keys.stage_key(pms, env) for each envelope, held
                  under the envelope's salt
    The ratchet (``static_keys`` None), over each epoch e's ephemeral
    eph_e, read off the envelopes:
      root        rk_e, ck_e = kdf_root(dh outputs of e's exchanges, salt):
                    epoch 0   salt zero; (eph_0, y), then (x, y)
                    epoch e   salt rk_{e-1}; (eph_e, eph_{e-1})
                  each exchange answered from whichever secret is held
      extension   walk a known chain key forward, one message key per
                  index, bounded by the highest index among the envelopes
    A revealed stage key is held as its value, under its envelope's
    label(): a static stage's salt, a ratchet stage's (epoch, index). So
    every stage that holds the same envelope holds that key.

    run() applies the rules in one ordered pass, which reaches their
    fixpoint. A static pms feeds every stage key and nothing feeds it.
    Ratchet roots only move forward: epoch e needs no root past rk_{e-1},
    so one walk up the epochs of the envelopes meets every root after the
    root it needs. A root that a revealed snapshot gave does not stop its
    epoch's exchanges: kdf_root outputs rk_e and ck_e as siblings, so a
    known rk_e says nothing of ck_e. Chain keys feed no root, so one
    extension pass after the walk gives every message key. The game
    builds a closure, learns its leaks and runs it once.
    """

    def __init__(self, initiator_pub: bytes, responder_pub: bytes,
                 envelopes: list, static_keys: StaticKeys | None = None):
        self.initiator_pub = bytes(initiator_pub)
        self.responder_pub = bytes(responder_pub)
        self.envelopes = envelopes
        self.static_keys = static_keys
        self.pms: cs.SharedSecret | None = None  # a static design's, once held
        # public -> the key object of its secret, one pair per scalar
        self.scalars: dict[bytes, cs.X25519PrivateKey] = {}
        self.root: dict[int, bytes] = {}                # epoch -> rk
        self.chain: dict[int, tuple[int, bytes]] = {}   # epoch -> (j, ck)
        self.mk: dict = {}                              # label -> key

    # -- leak intake ------------------------------------------------------

    def learn_scalar(self, raw: bytes) -> None:
        self._learn(cs.key_pair(cs.clamp_scalar(bytes(raw))))

    def _learn(self, pair: cs.KeyPair) -> None:
        self.scalars[pair.public] = pair.key

    def learn_chain(self, epoch: int, j: int, ck: bytes) -> None:
        have = self.chain.get(epoch)
        if have is None or j < have[0]:
            self.chain[epoch] = (j, bytes(ck))

    def learn_snapshot(self, snapshot: bytes) -> None:
        if self.static_keys is not None:
            self.pms = self.static_keys.pms(snapshot)
            return
        st = vdr_import_state(snapshot)  # builds the ephemeral's pair
        if st.self_eph is not None:
            self._learn(st.self_eph)
        self.root[st.i_s] = bytes(st.rk)  # exported rk belongs to the send epoch
        if st.ck_send is not None:
            self.learn_chain(st.i_s, st.j_s, st.ck_send)
        if st.ck_recv is not None:
            self.learn_chain(st.i_r, st.j_r, st.ck_recv)
        for stage, mk in st.skipped.items():
            self.mk[stage] = bytes(mk)

    # -- closure ----------------------------------------------------------

    def _held(self, pub: bytes, peer: bytes) -> tuple | None:
        """(secret, public) answering the exchange of pub with peer from
        whichever side's secret the closure holds; None if neither."""
        if pub in self.scalars:
            return self.scalars[pub], peer
        if peer in self.scalars:
            return self.scalars[peer], pub
        return None

    def _static(self) -> "KeyClosure":
        if self.pms is None:
            held = self._held(self.initiator_pub, self.responder_pub)
            if held is None:
                return self
            key, pub = held
            self.pms = cs.dh(key, cs.GroupElement(pub))
        for env in self.envelopes:
            self.mk.setdefault(self.label(env), bytes(
                self.static_keys.stage_key(self.pms, env)))
        return self

    def run(self) -> "KeyClosure":
        if self.static_keys is not None:
            return self._static()
        epoch_eph_pub: dict[int, bytes] = {}
        max_j: dict[int, int] = {}
        for env in self.envelopes:
            epoch = env.i_index  # decoded from nonce_material on each read
            epoch_eph_pub.setdefault(epoch, bytes(env.eph_pub))
            max_j[epoch] = max(max_j.get(epoch, -1), env.j_index)
        for epoch, eph in sorted(epoch_eph_pub.items()):
            prev = epoch_eph_pub.get(epoch - 1)
            if epoch == 0:
                salt, exchanges = cs.ZERO_SALT, (
                    (eph, self.responder_pub),
                    (self.initiator_pub, self.responder_pub))
            elif prev is not None and epoch - 1 in self.root:
                salt = cs.SymmetricKey(self.root[epoch - 1])
                exchanges = ((eph, prev),)
            else:
                continue
            held = [self._held(*pair) for pair in exchanges]
            if None in held:  # every exchange matched before any runs
                continue
            rk, ck = cs.kdf_root(b"".join(
                cs.dh(key, cs.GroupElement(pub)) for key, pub in held), salt)
            self.root.setdefault(epoch, bytes(rk))
            self.learn_chain(epoch, 0, ck)
        for epoch, (j, ck) in self.chain.items():
            limit = max_j.get(epoch, -1)
            cur = cs.SymmetricKey(ck)
            while j <= limit:
                mk, cur = cs.kdf_chain(cur)
                self.mk.setdefault((epoch, j), bytes(mk))
                j += 1
        return self

    # -- queries ----------------------------------------------------------

    def label(self, env) -> bytes | tuple[int, int]:
        """What the closure holds env's stage key under."""
        if self.static_keys is not None:
            return env.salt
        return (env.i_index, env.j_index)

    def message_key(self, stage) -> bytes | None:
        """The key held under stage, as label() names it, or None."""
        return self.mk.get(stage)

    def key_for(self, env) -> bytes | None:
        """The key held for env's stage, or None."""
        return self.mk.get(self.label(env))

    def stages(self) -> list:
        return sorted(self.mk)

    def holds_value(self, key: bytes) -> bool:
        return bytes(key) in self.mk.values()


class Game:
    """One seeded experiment instance; single-threaded by contract."""

    def __init__(self, protocol: str, n_parties: int = 2, seed: int = 0):
        if n_parties < 2:  # before any draw; a session needs a peer
            raise ValueError(
                f"a game needs at least 2 parties, got {n_parties}")
        self.protocol, self.design = protocol, design(protocol)
        self._stage = _header_stage if self.design.duplex else _count_stage
        self.n_parties = n_parties
        root = cs.SeededRng(seed)
        proto_rng = root.fork(b"protocol")
        self.game_rng = root.fork(b"game")
        self.b = self.game_rng.token(1)[0] & 1
        self.tested: tuple | None = None
        self.trace = QueryTrace()
        self.directory = KeyDirectory()
        self.party_rng: dict[int, cs.SeededRng] = {}
        # the keygen's scalar holds the key object the party's Endpoints use
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
        stage = self._stage(rec, env)
        # a ratchet reply stage already holds the ephemeral its open drew
        rec.rand_log[stage] = rec.rand_log.get(stage, b"") + b"".join(seen.draws)
        self._accept(rec, stage, seen.keys, raw)
        return raw

    def _send_deliver(self, rec: SessionRecord, raw: bytes):
        try:
            env = decode_envelope(raw)
        except ParseError as exc:
            return self._reject(rec, self._stage(rec, None), raw,
                                f"parse: {exc}")
        stage = self._stage(rec, env)
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
        if rec.status.get(stage) == REJECT:  # no longer the stage's outcome
            rec.replay_events.append((stage, rec.reject_reason.pop(stage)))
        rec.status[stage] = ACCEPT
        (rec.key[stage],) = keys  # one message key per seal or open
        rec.transcript[stage] = raw
        rec.state_snap[stage] = self.design.snapshot(rec.ep.session)

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

    # -- Knowledge ----------------------------------------------------------

    def closure(self) -> KeyClosure:
        """Every key the reveals so far expose, closed over the envelopes
        of the stages the sessions accepted under the design's rule
        (its row's static_keys, or the ratchet's). The (initiator, responder)
        pair is read off the sessions, whichever party opened; sessions
        that name two pairs raise ValueError. A game with no session
        takes party 1 as the initiator."""
        pairs = {(rec.owner, rec.pid) if rec.role == ROLE_INITIATOR
                 else (rec.pid, rec.owner) for rec in self.sessions.values()}
        if len(pairs) > 1:
            raise ValueError(f"sessions name more than one (initiator, "
                             f"responder) pair: {sorted(pairs)}")
        ini, resp = pairs.pop() if pairs else (1, 2)
        accepted = dict.fromkeys(
            rec.transcript[s] for rec in self.sessions.values()
            for s, status in rec.status.items() if status == ACCEPT)
        closure = KeyClosure(self.parties[ini][1], self.parties[resp][1],
                             [decode_envelope(raw) for raw in accepted],
                             self.design.static_keys)
        for u, revealed in self.rev_ltk.items():
            if revealed:
                closure.learn_scalar(self.parties[u][0])
        for rec in self.sessions.values():
            for s in rec.rev_rand:
                if len(rec.rand_log[s]) >= 32:  # not a nonce alone
                    closure.learn_scalar(rec.rand_log[s][:32])
            for s in rec.rev_state:
                closure.learn_snapshot(rec.state_snap[s])
            for s in rec.rev_sesskey:
                env = decode_envelope(rec.transcript[s])
                closure.mk[closure.label(env)] = bytes(rec.key[s])
        return closure.run()

    def held(self, u: int, i: int, s) -> bool:
        """Whether closure() holds the true key of accepted stage s of
        session (u, i): the key under the label of the stage's envelope."""
        rec = self._session(u, i)
        if rec.status.get(s) != ACCEPT:
            raise StageNotAccepted(f"stage {_fmt_stage(s)} of ({u},{i}) "
                                   "not accepted")
        env = decode_envelope(rec.transcript[s])
        return self.closure().key_for(env) == bytes(rec.key[s])

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
