"""Seeded workloads and the closed loop that runs them.

One caller, one thread: every call into letterseal returns before the next
is issued, as in a research script or the acceptance suite. Inputs come from
the seed alone; a round replays the same inputs from fresh sessions, so each
round does the same fixed work whatever the speed of the code under test.

  stream     long-lived pairs (vdr:v2:v1 = 2:1:1) exchanging bursts of
             mean length 32 of chat payloads with 5% 64 KiB attachments,
             through an Honest, Reorder, Drop or Replay relay per pair, one
             forged copy per pair, and ratchet snapshots after each burst
  handshake  session churn: directory lookup, establishment, a ping-pong of
             1-4 small messages where each reply turns the ratchet, drop
  game       the mske harness: the seven scripted attacks round-robin over
             seeds, interleaved with one long two-party ratchet game with
             seeded reveals, then freshness on a sample and a key closure
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from time import perf_counter_ns as clock

from letterseal import (
    AuthFailure,
    Drop,
    Honest,
    KeyDirectory,
    LettersealError,
    Relay,
    Reorder,
    Replay,
    ReplayRejected,
    SeededRng,
    SkipLimit,
    StaleEpoch,
    count_ops,
    decode_envelope,
    dh_keygen,
    encode_envelope,
    kat,
    v1_decrypt,
    v1_encrypt,
    v1_establish,
    v2_decrypt,
    v2_encrypt,
    v2_establish,
    vdr_decrypt,
    vdr_encrypt,
    vdr_export_state,
    vdr_import_state,
    vdr_init_sender,
    vdr_lazy_init_receiver,
)
from letterseal.bench import PINNED_COUNTS
from letterseal.linevdr import ROLE_INITIATOR, ROLE_RESPONDER
from letterseal.mske import (
    EXPECTED,
    PROTO_VDR,
    Game,
    KeyClosure,
    attack_names,
    fresh_vdr,
    run_attack,
)
from spans import NullTracer

WORKLOADS = ("stream", "handshake", "game")

# the fixed work of one round; a run repeats rounds for its duration
SIZES = {
    "stream": {"pairs": 16, "messages_per_pair": 320},
    # 1,000 ratchet messages a round, so a round's p99 has 10 beyond it
    "handshake": {"users": 48, "sessions": 800},
    "game": {"stages": 1000, "attack_seeds": 8, "fresh_samples": 40},
}

MEAN_STREAM_BURST = 32
MEAN_GAME_BURST = 8
CHAT_MAX = 1024
ATTACHMENT = 64 * 1024
ATTACHMENT_SHARE = 0.05
HANDSHAKE_MAX = 256
DROP_SHARE = 0.03
POOL = 512  # distinct chat payloads per input set

ENCRYPT = {"v1": "linev1.encrypt", "v2": "linev2.encrypt", "vdr": "linevdr.encrypt"}
ENCODE = {p: f"wire.encode.{p}" for p in ENCRYPT}
DECODE = {p: f"wire.decode.{p}" for p in ENCRYPT}
REJECT_REASON = {ReplayRejected: "replay", StaleEpoch: "stale",
                 SkipLimit: "skip_limit", AuthFailure: "auth"}


# ---------------------------------------------------------------------------
# Outcome checks
# ---------------------------------------------------------------------------

class Outcomes:
    """Every checked operation and every wrong outcome of a run.

    The intended v1/v2 weaknesses are correct outcomes: a duplicate envelope
    opens again. A vdr duplicate must raise ReplayRejected, and a forged
    envelope must be refused by every protocol.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []

    def expect(self, ok: bool, what) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.wrong) < 20:
                self.wrong.append(what() if callable(what) else what)
        return ok

    def delivery(self, proto: str, kind: str, sent: bytes, got) -> bool:
        """kind is "first", "duplicate" or "forged"; got is the plaintext
        or the LettersealError the receiver raised."""
        if kind == "forged":
            ok = isinstance(got, LettersealError)
        elif kind == "duplicate" and proto == "vdr":
            ok = isinstance(got, ReplayRejected)
        else:
            ok = got == sent
        return self.expect(ok, lambda: f"{proto} {kind} delivery gave "
                           f"{type(got).__name__} ({_short(got)})")

    def verdict(self, name: str, report) -> bool:
        got = (report.succeeded, report.violated_freshness)
        return self.expect(got == EXPECTED[name], lambda: (
            f"attack {name}: verdict {got}, expected {EXPECTED[name]}"))

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def _short(value) -> str:
    text = repr(value)
    return text if len(text) < 60 else text[:57] + "..."


# ---------------------------------------------------------------------------
# Endpoints: the message path through the package's public functions
# ---------------------------------------------------------------------------

class Endpoint:
    """One side of a session; proto is "v1", "v2" or "vdr"."""

    __slots__ = ("proto", "initiator", "sk", "kid", "peer_kid", "name",
                 "peer_name", "rng", "session", "peer_pub", "opened",
                 "setup_ns")

    def __init__(self, proto, initiator, sk, kid, peer_kid, rng):
        self.proto = proto
        self.initiator = initiator
        self.sk = sk
        self.kid = kid
        self.peer_kid = peer_kid
        self.name = f"user-{kid}"
        self.peer_name = f"user-{peer_kid}"
        self.rng = rng
        self.session = None
        self.peer_pub = None
        self.opened: set[int] = set()
        self.setup_ns = 0

    def connect(self, tr, directory: KeyDirectory) -> None:
        """Look the peer up and establish; a vdr responder waits for the
        first envelope (vdr_lazy_init_receiver inside open)."""
        t0 = clock()
        s = tr.begin("directory_server.lookup")
        self.peer_pub = directory.lookup(self.peer_kid)
        tr.end(s)
        proto = self.proto
        if proto == "v1":
            s = tr.begin("linev1.establish")
            self.session = v1_establish(self.sk, self.peer_pub, self.kid,
                                        self.peer_kid, self.name, self.peer_name)
            tr.end(s)
        elif proto == "v2":
            s = tr.begin("linev2.establish")
            self.session = v2_establish(self.sk, self.peer_pub, self.kid,
                                        self.peer_kid, self.name, self.peer_name)
            tr.end(s)
        elif self.initiator:
            s = tr.begin("linevdr.init")
            self.session = vdr_init_sender(self.sk, self.peer_pub, self.rng,
                                           self.kid, self.peer_kid)
            tr.end(s)
        self.setup_ns += clock() - t0

    def seal(self, tr, pt: bytes) -> bytes:
        proto = self.proto
        s = tr.begin(ENCRYPT[proto])
        if proto == "vdr":
            env = vdr_encrypt(self.session, 0, pt, self.rng)
        elif proto == "v2":
            env = v2_encrypt(self.session, 0, pt, self.rng)
        else:
            env = v1_encrypt(self.session, 0, pt, self.rng)
        tr.end(s)
        s = tr.begin(ENCODE[proto])
        raw = encode_envelope(env)
        tr.end(s)
        return raw

    def open(self, tr, raw: bytes, stats) -> tuple[bytes, int]:
        """Decode and decrypt; returns the plaintext and the ns spent on
        lazy ratchet set-up, which belongs to session set-up, not to the
        message. Raises LettersealError with the session unchanged."""
        proto = self.proto
        s = tr.begin(DECODE[proto])
        try:
            env = decode_envelope(raw)
        finally:
            tr.end(s)
        if proto == "v2":
            s = tr.begin("linev2.decrypt")
            try:
                return v2_decrypt(self.session, env), 0
            finally:
                tr.end(s)
        if proto == "v1":
            s = tr.begin("linev1.decrypt")
            try:
                return v1_decrypt(self.session, env), 0
            finally:
                tr.end(s)
        lazy_ns = 0
        st = self.session
        if st is None:
            t0 = clock()
            s = tr.begin("linevdr.lazy_init")
            try:
                st = vdr_lazy_init_receiver(self.sk, self.peer_pub, env,
                                            self.kid, self.peer_kid)
            finally:
                tr.end(s)
            lazy_ns = clock() - t0
            self.setup_ns += lazy_ns
        stage = (env.i_index, env.j_index)
        cached = stage in st.skipped
        turn = env.i_index > st.i_r
        s = tr.begin("linevdr.decrypt_cached" if cached else
                     "linevdr.decrypt_turn" if turn else "linevdr.decrypt_sym")
        if stats is None:
            try:
                pt = vdr_decrypt(st, env, self.rng)
            finally:
                tr.end(s)
        else:
            before, j_r = len(st.skipped), st.j_r
            try:
                pt = vdr_decrypt(st, env, self.rng)
            except LettersealError as exc:
                stats["linevdr.reject." + REJECT_REASON.get(type(exc), "other")] += 1
                raise
            finally:
                tr.end(s)
            inserts = 0 if cached else env.j_index - (0 if turn else j_r)
            stats["linevdr.skip_inserts"] += inserts
            stats["linevdr.skip_hits"] += cached
            stats["linevdr.skip_evictions"] += (before + inserts - cached
                                                - len(st.skipped))
        self.session = st  # a failed lazy set-up is discarded
        return pt, lazy_ns


@dataclass
class RoundResult:
    """What one round measured. work_ns is the time msgs_per_s and goodput
    divide by: the whole round, except on game, where it is the long game."""

    wall_ns: int = 0
    work_ns: int = 0
    scale: float = 1.0  # reference speed / machine speed, set by the caller
    messages: int = 0
    payload_bytes: int = 0
    # per protocol: each verified message's own time, and each session's
    # time from directory lookup to its first verified plaintext
    msg_ns: dict[str, list[int]] = field(
        default_factory=lambda: {p: [] for p in ENCRYPT})
    first_ns: dict[str, list[int]] = field(
        default_factory=lambda: {p: [] for p in ENCRYPT})


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

@dataclass
class Inputs:
    """Everything a workload feeds the package, made from the seed alone."""

    workload: str
    seed: int
    sizes: dict
    plan: tuple
    payloads: list[bytes] = field(default_factory=list)
    users: list[tuple] = field(default_factory=list)  # (secret, public, kid)
    directory: KeyDirectory | None = None

    def key(self) -> tuple:
        """Comparable form of the generated inputs."""
        return (self.plan, tuple(self.payloads),
                tuple((bytes(sk), bytes(pk), kid) for sk, pk, kid in self.users))


def _rand(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench:{workload}:{seed}")


def _split(rnd: random.Random, total: int, mean: float) -> list[int]:
    """A random composition of total into round(total / mean) positive
    lengths; each length is close to geometric with the given mean, and
    their number is fixed, so every seed does the same amount of work."""
    parts = max(1, min(total, round(total / mean)))
    cuts = sorted(rnd.sample(range(1, total), parts - 1))
    return [b - a for a, b in zip([0, *cuts], [*cuts, total])]


def _chat_payloads(rnd: random.Random, max_len: int) -> list[bytes]:
    """POOL random payloads with lengths spread evenly over 0..max_len."""
    return [rnd.randbytes(k * (max_len + 1) // POOL) for k in range(POOL)]


def _chat_ids(rnd: random.Random):
    """Endless walk over a seeded permutation of the chat pool: every POOL
    messages carry each payload length once, so the payload bytes of a
    round barely move with the seed."""
    return itertools.cycle(rnd.sample(range(POOL), POOL))


def _users(tr, seed: int, label: bytes, n: int, directory: KeyDirectory) -> list:
    rng = SeededRng(seed).fork(label)
    users = []
    for u in range(n):
        s = tr.begin("crypto_suite.dh_keygen")
        sk, pk = dh_keygen(rng)
        tr.end(s)
        s = tr.begin("directory_server.register")
        kid = directory.register(pk, f"user-{u}")
        tr.end(s)
        users.append((sk, pk, kid))
    return users


def _protocols(n: int) -> list[str]:
    """vdr:v2:v1 in the ratio 2:1:1."""
    n_vdr, n_v2 = n // 2, n // 4
    return ["vdr"] * n_vdr + ["v2"] * n_v2 + ["v1"] * (n - n_vdr - n_v2)


def _stream_plan(rnd: random.Random, pairs: int, per_pair: int) -> tuple:
    plan = []
    behaviour_at: dict[str, int] = {}
    start = rnd.randrange(4)
    protos = _protocols(pairs)
    chat = _chat_ids(rnd)
    resuming = set(rnd.sample(range(protos.count("vdr")), protos.count("vdr") // 2))
    for p, proto in enumerate(protos):
        attachments = set(rnd.sample(range(per_pair), round(per_pair * ATTACHMENT_SHARE)))
        pids = [POOL + rnd.randrange(8) if o in attachments else next(chat)
                for o in range(per_pair)]
        bursts, last_of_burst, ordinal = [], set(), 0
        for n in _split(rnd, per_pair, MEAN_STREAM_BURST):
            bursts.append(tuple(pids[ordinal:ordinal + n]))
            ordinal += n
            last_of_burst.add(ordinal - 1)
        # each protocol gets every relay behaviour in turn
        k = behaviour_at.get(proto, start)
        behaviour_at[proto] = k + 1
        kind = ("honest", "reorder", "drop", "replay")[k % 4]
        if kind == "reorder":
            relay = ("reorder", rnd.randint(2, 16))
        elif kind == "drop":
            # never the last of a burst, so every burst still turns the epoch
            droppable = [o for o in range(per_pair) if o not in last_of_burst]
            relay = ("drop", tuple(sorted(rnd.sample(
                droppable, min(len(droppable), max(1, round(per_pair * DROP_SHARE)))))))
        elif kind == "replay":
            relay = ("replay", rnd.randrange(per_pair), rnd.randint(1, 2))
        else:
            relay = ("honest",)
        spoiled = set(relay[1]) if kind == "drop" else (
            {relay[1]} if kind == "replay" else set())
        forged = rnd.choice([o for o in range(per_pair) if o not in spoiled])
        plan.append((proto, 2 * p, 2 * p + 1, relay, tuple(bursts), forged,
                     proto == "vdr" and p in resuming))
    return tuple(plan)


def _handshake_plan(rnd: random.Random, users: int, sessions: int) -> tuple:
    # exact protocol shares and 1-4 message exchanges in equal numbers
    shape = [(proto, 1 + k % 4) for proto in ("vdr", "v2", "v1")
             for k in range(_protocols(sessions).count(proto))]
    rnd.shuffle(shape)
    chat = _chat_ids(rnd)
    plan = []
    for proto, count in shape:
        a, b = rnd.sample(range(users), 2)
        plan.append((proto, a, b, tuple(next(chat) for _ in range(count))))
    return tuple(plan)


def _game_plan(rnd: random.Random, stages: int, attack_seeds: int,
               fresh_samples: int) -> tuple:
    chat = _chat_ids(rnd)
    bursts = [tuple(next(chat) for _ in range(n))
              for n in _split(rnd, stages, MEAN_GAME_BURST)]
    # stage of message j in burst b is (b, j): delivery is honest and
    # immediate, so each burst opens the next epoch; party 1 sends even ones
    messages = [(b, j) for b, burst in enumerate(bursts) for j in range(len(burst))]
    firsts = [k for k, (_b, j) in enumerate(messages) if j == 0]
    reveals = []  # (after message k, oracle, party, stage)
    for k in rnd.sample(range(len(messages)), max(1, stages // 50)):
        reveals.append((k, "sesskey", rnd.choice((1, 2)), messages[k]))
    for k in rnd.sample(firsts, max(1, len(firsts) // 10)):
        b = messages[k][0]
        reveals.append((k, "rand", 1 if b % 2 == 0 else 2, (b, 0)))
    for k in rnd.sample(range(len(messages)), max(1, stages // 250)):
        reveals.append((k, "state", rnd.choice((1, 2)), messages[k]))
    reveals.append((int(len(messages) * 0.9), "ltk", rnd.choice((1, 2)), None))
    revealed = [(party, stage) for _, oracle, party, stage in reveals
                if oracle == "sesskey"]
    others = [(rnd.choice((1, 2)), messages[rnd.randrange(len(messages))])
              for _ in range(max(0, fresh_samples - len(revealed)))]
    seeds = [rnd.randrange(2**32) for _ in range(attack_seeds)]
    attacks = tuple((name, s) for s in seeds for name in attack_names())
    return (tuple(bursts), tuple(reveals), tuple(revealed + others),
            rnd.randrange(2**32), attacks)


def make_inputs(workload: str, seed: int, tr) -> Inputs:
    """Key generation, directory registration and input generation."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    sizes = dict(SIZES[workload])
    rnd = _rand(workload, seed)
    if workload == "game":
        plan = _game_plan(rnd, sizes["stages"], sizes["attack_seeds"],
                          sizes["fresh_samples"])
        return Inputs(workload, seed, sizes, plan,
                      _chat_payloads(rnd, HANDSHAKE_MAX))
    directory = KeyDirectory()
    if workload == "stream":
        plan = _stream_plan(rnd, sizes["pairs"], sizes["messages_per_pair"])
        payloads = _chat_payloads(rnd, CHAT_MAX)
        payloads += [rnd.randbytes(ATTACHMENT) for _ in range(8)]
        users = _users(tr, seed, b"perfbench-stream", 2 * sizes["pairs"], directory)
    else:
        plan = _handshake_plan(rnd, sizes["users"], sizes["sessions"])
        payloads = _chat_payloads(rnd, HANDSHAKE_MAX)
        users = _users(tr, seed, b"perfbench-handshake", sizes["users"], directory)
    return Inputs(workload, seed, sizes, plan, payloads, users, directory)


# ---------------------------------------------------------------------------
# Set-up gates
# ---------------------------------------------------------------------------

def kat_gate(tr) -> None:
    s = tr.begin("kat.check")
    results = kat.check_vectors(kat.canonical_vectors())
    tr.end(s)
    bad = [name for name, ok in results if not ok]
    if bad:
        raise RuntimeError(f"known-answer vectors disagree: {', '.join(bad)}")


def pinned_flow_counts(seed: int) -> dict[str, dict[str, int]]:
    """The five single-step flows, run through this benchmark's own
    message path under count_ops; the same flows letterseal.bench pins."""
    tr = NullTracer()
    directory = KeyDirectory()
    users = _users(tr, seed, b"perfbench-pins", 2, directory)
    (ska, _, kida), (skb, _, kidb) = users
    out = {}

    def counted(name, fn):
        with count_ops() as c:
            value = fn()
        out[name] = {"DH": c.dh, "KDF": c.kdf, "AEAD": c.aead}
        return value

    def pair(proto):
        rng = SeededRng(seed).fork(b"perfbench-pins-" + proto.encode())
        return (Endpoint(proto, True, ska, kida, kidb, rng.fork(b"a")),
                Endpoint(proto, False, skb, kidb, kida, rng.fork(b"b")))

    def exchange(sender, receiver):
        receiver.open(tr, sender.seal(tr, b"\xa5" * 64), None)

    def first(sender, receiver):
        sender.connect(tr, directory)
        raw = sender.seal(tr, b"\xa5" * 64)
        receiver.connect(tr, directory)
        receiver.open(tr, raw, None)

    a, b = pair("v2")
    counted("v2-first", lambda: first(a, b))
    counted("v2-ith", lambda: exchange(a, b))
    a, b = pair("vdr")
    # the pinned vdr-init row is the opener's path only
    raw = counted("vdr-init", lambda: (a.connect(tr, directory),
                                       a.seal(tr, b"\xa5" * 64))[1])
    b.connect(tr, directory)
    b.open(tr, raw, None)
    counted("vdr-asym", lambda: exchange(b, a))
    counted("vdr-sym", lambda: exchange(b, a))
    return out


def check_pinned_counts(seed: int) -> dict:
    got = pinned_flow_counts(seed)
    drift = {k: (got[k], PINNED_COUNTS[k]) for k in PINNED_COUNTS
             if got.get(k) != PINNED_COUNTS[k]}
    if drift:
        raise RuntimeError(
            "op counts drifted from letterseal.bench.PINNED_COUNTS: "
            + "; ".join(f"{k} got {g} pinned {p}" for k, (g, p) in drift.items()))
    return got


# ---------------------------------------------------------------------------
# Rounds
# ---------------------------------------------------------------------------

def _relay_for(spec: tuple) -> Relay:
    kind = spec[0]
    if kind == "reorder":
        return Relay(Reorder(spec[1]))
    if kind == "drop":
        return Relay(Drop(spec[1]))
    if kind == "replay":
        return Relay(Replay(spec[1], spec[2]))
    return Relay(Honest())


class _Pair:
    __slots__ = ("proto", "a", "b", "relay", "kind", "bursts", "forged",
                 "resumes", "sent", "plaintexts", "send_ns", "depth",
                 "first_done")

    def __init__(self, spec, inputs: Inputs, round_rng: SeededRng, index: int):
        proto, ua, ub, relay, bursts, forged, resumes = spec
        ska, _, kida = inputs.users[ua]
        skb, _, kidb = inputs.users[ub]
        rng = round_rng.fork(b"pair-%d" % index)
        self.proto = proto
        self.a = Endpoint(proto, True, ska, kida, kidb, rng.fork(b"a"))
        self.b = Endpoint(proto, False, skb, kidb, kida, rng.fork(b"b"))
        self.relay = _relay_for(relay)
        self.kind = relay[0]
        self.bursts = bursts
        self.forged = forged
        self.resumes = resumes
        self.sent: dict[bytes, int] = {}
        self.plaintexts: list[bytes] = []
        self.send_ns: list[int] = []
        self.depth = 0
        self.first_done = False


def _deliver(tr, pair: _Pair, receiver: Endpoint, raw: bytes, ordinal: int,
             kind: str, outcomes: Outcomes, res: RoundResult, stats) -> None:
    if kind == "first" and ordinal in receiver.opened:
        kind = "duplicate"
    t0 = clock()
    try:
        got, lazy_ns = receiver.open(tr, raw, stats)
    except LettersealError as exc:
        got, lazy_ns = exc, 0
    recv_ns = clock() - t0 - lazy_ns
    sent = pair.plaintexts[ordinal]
    if outcomes.delivery(pair.proto, kind, sent, got) and kind == "first":
        receiver.opened.add(ordinal)
        res.messages += 1
        res.payload_bytes += len(sent)
        own = pair.send_ns[ordinal] + recv_ns
        res.msg_ns[pair.proto].append(own)
        if not pair.first_done:
            pair.first_done = True
            res.first_ns[pair.proto].append(pair.a.setup_ns + pair.b.setup_ns + own)


def _stream_burst(tr, pair: _Pair, b: int, payloads, outcomes, res, stats):
    sender, receiver = (pair.a, pair.b) if b % 2 == 0 else (pair.b, pair.a)
    relay, kind = pair.relay, pair.kind
    for pid in pair.bursts[b]:
        ordinal = len(pair.plaintexts)
        pt = payloads[pid]
        pair.plaintexts.append(pt)
        tr.group = ordinal
        t0 = clock()
        raw = sender.seal(tr, pt)
        s = tr.begin("directory_server.relay")
        out = relay.relay(raw)
        tr.end(s)
        pair.send_ns.append(clock() - t0)
        pair.sent[raw] = ordinal
        if stats is not None:
            _relay_stats(stats, pair, kind, len(out))
            proto = pair.proto
            stats["wire.envelopes." + proto] += 1
            stats["wire.overhead_total." + proto] += len(raw) - len(pt)
        for d in out:
            _deliver(tr, pair, receiver, d, pair.sent[d], "first", outcomes, res, stats)
        if ordinal == pair.forged:
            forged = raw[:-1] + bytes([raw[-1] ^ 0x01])
            _deliver(tr, pair, receiver, forged, ordinal, "forged", outcomes, res, stats)
    out = relay.flush()
    if stats is not None and out:
        _relay_stats(stats, pair, "flush", len(out))
    for d in out:
        _deliver(tr, pair, receiver, d, pair.sent[d], "first", outcomes, res, stats)
    if pair.proto == "vdr" and receiver.session is not None:
        # the receiver persists after each burst, as a client going idle
        s = tr.begin("linevdr.export")
        snapshot = vdr_export_state(receiver.session)
        tr.end(s)
        if stats is not None:
            stats["linevdr.exports"] += 1
            stats["linevdr.state_bytes_total"] += len(snapshot)
            stats["linevdr.state_bytes_max"] = max(
                stats["linevdr.state_bytes_max"], len(snapshot))
        if pair.resumes:
            s = tr.begin("linevdr.import")
            receiver.session = vdr_import_state(snapshot)
            tr.end(s)


def _relay_stats(stats, pair: _Pair, kind: str, delivered: int) -> None:
    stats["directory_server.relay.delivered"] += delivered
    if kind == "drop" and not delivered:
        stats["directory_server.relay.dropped"] += 1
    elif kind == "replay":
        stats["directory_server.relay.duplicated"] += delivered - 1
    elif kind == "reorder":
        pair.depth += 1 - delivered
        stats["directory_server.relay.queue_max"] = max(
            stats["directory_server.relay.queue_max"], pair.depth)
    elif kind == "flush":
        pair.depth -= delivered


def run_stream(inputs: Inputs, tr, outcomes: Outcomes, stats=None) -> RoundResult:
    res = RoundResult()
    t_round = clock()
    round_rng = SeededRng(inputs.seed).fork(b"perfbench-stream-round")
    pairs = [_Pair(spec, inputs, round_rng, i) for i, spec in enumerate(inputs.plan)]
    for pair in pairs:
        pair.a.connect(tr, inputs.directory)
        pair.b.connect(tr, inputs.directory)
    # bursts of all pairs interleave, as many chats share one client
    for b in range(max(len(p.bursts) for p in pairs)):
        for pair in pairs:
            if b < len(pair.bursts):
                _stream_burst(tr, pair, b, inputs.payloads, outcomes, res, stats)
    for pair in pairs:
        outcomes.expect(len(pair.a.opened) + len(pair.b.opened)
                        == len(pair.plaintexts) - _dropped(pair),
                        lambda: f"{pair.proto} pair lost messages")
    res.wall_ns = res.work_ns = clock() - t_round
    return res


def _dropped(pair: _Pair) -> int:
    return len(pair.relay.behavior.ordinals) if pair.kind == "drop" else 0


def run_handshake(inputs: Inputs, tr, outcomes: Outcomes, stats=None) -> RoundResult:
    res = RoundResult()
    t_round = clock()
    round_rng = SeededRng(inputs.seed).fork(b"perfbench-handshake-round")
    payloads, directory = inputs.payloads, inputs.directory
    for index, (proto, ua, ub, pids) in enumerate(inputs.plan):
        tr.group = index
        ska, _, kida = inputs.users[ua]
        skb, _, kidb = inputs.users[ub]
        rng = round_rng.fork(b"session-%d" % index)
        a = Endpoint(proto, True, ska, kida, kidb, rng.fork(b"a"))
        b = Endpoint(proto, False, skb, kidb, kida, rng.fork(b"b"))
        relay = Relay(Honest())
        t_start = clock()
        span = tr.begin("bench.session")
        a.connect(tr, directory)
        sender, receiver = a, b
        for k, pid in enumerate(pids):
            pt = payloads[pid]
            t0 = clock()
            raw = sender.seal(tr, pt)
            s = tr.begin("directory_server.relay")
            out = relay.relay(raw)
            tr.end(s)
            send_ns = clock() - t0
            if k == 0:
                b.connect(tr, directory)
            if stats is not None:
                stats["directory_server.relay.delivered"] += len(out)
                stats["wire.envelopes." + proto] += 1
                stats["wire.overhead_total." + proto] += len(raw) - len(pt)
            for d in out:
                t0 = clock()
                try:
                    got, lazy_ns = receiver.open(tr, d, stats)
                except LettersealError as exc:
                    got, lazy_ns = exc, 0
                t1 = clock()
                if outcomes.delivery(proto, "first", pt, got):
                    res.messages += 1
                    res.payload_bytes += len(pt)
                    res.msg_ns[proto].append(send_ns + t1 - t0 - lazy_ns)
                    if k == 0:
                        res.first_ns[proto].append(t1 - t_start)
            sender, receiver = receiver, sender
        tr.end(span)
    res.wall_ns = res.work_ns = clock() - t_round
    return res


def run_game(inputs: Inputs, tr, outcomes: Outcomes, stats=None) -> RoundResult:
    res = RoundResult()
    t_round = clock()
    bursts, reveals, samples, game_seed, attacks = inputs.plan
    payloads = inputs.payloads
    half = len(attacks) // 2
    _attacks(tr, attacks[:half], outcomes)

    t0 = clock()
    tr.group = -1
    span = tr.begin("mske.game")
    g = Game(PROTO_VDR, 2, game_seed)
    t_start = clock()
    s = tr.begin("mske.send")
    g.oracle_send(1, 1, (2, ROLE_INITIATOR))
    g.oracle_send(2, 1, (1, ROLE_RESPONDER))
    tr.end(s)
    queries = 2
    sent: dict[tuple[int, int], bytes] = {}
    reveal_at: dict[int, list] = {}
    for k, oracle, party, stage in reveals:
        reveal_at.setdefault(k, []).append((oracle, party, stage))
    leaks = []
    k = 0
    mid = len(bursts) // 2
    for b, burst in enumerate(bursts):
        if b == mid:
            # the scripted attacks run between the two halves of the game
            tr.end(span)
            res.work_ns += clock() - t0
            _attacks(tr, attacks[half:], outcomes)
            t0 = clock()
            tr.group = -1
            span = tr.begin("mske.game")
        sender = 1 if b % 2 == 0 else 2
        for j, pid in enumerate(burst):
            pt = payloads[pid]
            tm = clock()
            s = tr.begin("mske.send")
            raw = g.oracle_send(sender, 1, ("encrypt", 0, pt))
            tr.end(s)
            s = tr.begin("mske.send")
            g.oracle_send(3 - sender, 1, raw)
            tr.end(s)
            res.msg_ns["vdr"].append(clock() - tm)
            if k == 0:
                res.first_ns["vdr"].append(clock() - t_start)
            queries += 2
            sent[(b, j)] = pt
            for oracle, party, stage in reveal_at.get(k, ()):
                s = tr.begin("mske.reveal")
                leaks.append((oracle, party, stage, _reveal(g, oracle, party, stage)))
                tr.end(s)
                queries += 1
            k += 1
    queries += _analyse(tr, g, sent, leaks, samples, outcomes, stats)
    tr.end(span)
    res.work_ns += clock() - t0
    res.messages = len(sent)
    res.payload_bytes = sum(len(pt) for pt in sent.values())
    if stats is not None:
        stats["mske.queries_per_game"] += queries
        stats["mske.snapshot_bytes"] += sum(
            len(snap) for rec in g.sessions.values()
            for snap in rec.state_snap.values())
        stats["linevdr.state_bytes_max"] = max(
            stats["linevdr.state_bytes_max"],
            max(len(snap) for rec in g.sessions.values()
                for snap in rec.state_snap.values()))
    res.wall_ns = clock() - t_round
    return res


def _attacks(tr, attacks, outcomes: Outcomes) -> None:
    for index, (name, seed) in enumerate(attacks):
        tr.group = index
        s = tr.begin("mske.attack." + name)
        report = run_attack(name, seed)
        tr.end(s)
        outcomes.verdict(name, report)


def _reveal(g: Game, oracle: str, party: int, stage):
    if oracle == "sesskey":
        return g.oracle_rev_sesskey(party, 1, stage)
    if oracle == "rand":
        return g.oracle_rev_rand(party, 1, stage)
    if oracle == "state":
        return g.oracle_rev_state(party, 1, stage)
    return g.oracle_rev_ltk(party)


def _analyse(tr, g: Game, sent: dict, leaks: list, samples: tuple,
             outcomes: Outcomes, stats) -> int:
    """Long-game checks; returns the number of oracle queries made."""
    recs = {1: g.sessions[(1, 1)], 2: g.sessions[(2, 1)]}
    for (b, j), pt in sent.items():
        receiver = recs[2 if b % 2 == 0 else 1]
        outcomes.expect(receiver.plaintexts.get((b, j)) == pt,
                        lambda: f"game stage {(b, j)} opened to another plaintext")

    s = tr.begin("mske.closure")
    envs = []
    for raw in {raw: None for rec in recs.values()
                for raw in rec.transcript.values()}:
        d = tr.begin("wire.decode.vdr")
        envs.append(decode_envelope(raw))
        tr.end(d)
    closure = KeyClosure(g.parties[1][1], g.parties[2][1], envs)
    for oracle, _party, stage, value in leaks:
        if oracle == "sesskey":
            closure.mk[stage] = bytes(value)
        elif oracle == "rand":
            closure.learn_scalar(value[:32])
        elif oracle == "state":
            closure.learn_snapshot(value)
        else:
            closure.learn_scalar(value)
    closure.run()
    tr.end(s)
    for stage in closure.stages():
        truth = recs[1 if stage[0] % 2 == 0 else 2].key.get(stage)
        outcomes.expect(truth is not None and closure.message_key(stage) == bytes(truth),
                        lambda: f"closure key for {stage} differs from the recorded key")
    if stats is not None:
        stats["mske.closure_keys"] += len(closure.stages())

    tested = None
    for party, stage in samples:
        s = tr.begin("mske.fresh_vdr")
        fresh = fresh_vdr(g, (party, 1, stage))
        tr.end(s)
        revealed = any(r.rev_sesskey.get(stage) for r in recs.values())
        outcomes.expect(not (revealed and fresh),
                        lambda: f"fresh_vdr True for revealed stage {stage}")
        if fresh and tested is None:
            tested = (party, stage)
    if tested is None:
        return 0
    party, stage = tested
    s = tr.begin("mske.test")
    key = g.oracle_test(party, 1, stage)
    tr.end(s)
    truth = bytes(recs[party].key[stage])
    outcomes.expect((bytes(key) == truth) == (g.b == 0),
                    lambda: f"Test answer does not follow the challenge bit at {stage}")
    return 1


RUNNERS = {"stream": run_stream, "handshake": run_handshake, "game": run_game}
