"""Double-ratchet sealing: combined ephemeral-static initial secret,
per-message symmetric ratchet, alternating asymmetric ratchet, bounded
catch-up cache, and a replay defense read off the chain position.

Index conventions. i counts asymmetric epochs, j messages within a chain.
The initiator owns even epochs, the responder odd ones. The receiver
ratchets its receiving chain when an envelope opens a new epoch.

Reply epochs. The send epoch i_s is read off the receive position and
never stored: i_r + 1 once a receive chain is set, 0 (the initiator's
opening epoch) before it. The first successful decrypt of a new epoch (or
a responder's first open) starts that reply epoch: it draws the reply
ephemeral's scalar and holds it as a pending reply, ``reply_secret``. The
first vdr_encrypt or vdr_export_state after it builds the reply chain in
one commit: the ephemeral's key pair, its exchange with the peer's
ephemeral, and the root step that gives the sending chain. A session that
ends on a receive never pays for a chain it does not use. The scalar is
drawn at the open, so every rng stream, envelope and snapshot is byte for
byte what building at the open gives. A turn to epoch 0xFFFFFFFF is
refused with StaleEpoch before the scalar is drawn, and no state holds a
receive chain at i_r = 0xFFFFFFFF (the state's rules, below): its reply
epoch would not fit a u32. Likewise an envelope at index 0xFFFFFFFF,
which no seal writes, is refused with CounterExhausted: the receive
position past it would not fit.

Decryption is transactional: state mutates only after the AEAD tag
verifies, in one commit, so forged envelopes cannot desynchronize a
session or poison the skipped-key cache. A turn that arrives while a
reply is pending builds that reply in locals, and the root it gives
enters the state only with the turn's commit. Encryption is
transactional too: a refused seal neither builds a pending reply, steps
the chain nor draws a nonce.

Replay defense. A stage opens only from the skipped-key cache or by
moving the live receive chain forward, and both delete the key they use,
so no stage opens twice. A stage of the live epoch i_r that lies behind
j_r with no cached key left (opened, or evicted by the MAX_SKIP bound)
raises ReplayRejected. Every other stage with no derivable key raises
StaleEpoch, an uncached stage of an earlier epoch included, opened or
not: the header carries no previous-chain length, so an earlier chain
cannot tell a stage it opened from one it abandoned. The state keeps no
record of what it received; besides the chain positions it holds the
cache alone, so its size is bounded by MAX_SKIP.

Ephemeral key pair. The state holds its built ephemeral as one
``self_eph``, a crypto_suite.KeyPair: a seal reads its public, the next
epoch turn exchanges with its key object, and a snapshot stores its
scalar alone. Import builds the pair, so a resumed state turns as a live
one does.

Long-term keys. Set-up (vdr_init_sender, vdr_lazy_init_receiver) uses
both the party's secret and the peer's public key, and the state stores
neither: it holds only what vdr_encrypt and vdr_decrypt read, so a
snapshot reveals no long-term key. Set-up takes the secret as a scalar or
its key object. A party that opens many sessions (the game's) passes the
scalar its keygen returned, which holds its object, so set-up builds
none; a scalar rebuilt from stored bytes builds the object at set-up.

The state's rules. Every rule about what a state may hold is checked in
one place, when the state is built (``__post_init__``), so set-up,
import, ``dataclasses.replace`` and direct construction obey the same
rules. Every 32-byte field that is set, and every cached key, has 32
bytes, so a snapshot never pads or cuts one. The kids, j_s, i_r and j_r
fit a u32, and the cache holds at most MAX_SKIP keys, each at a u32 stage
below the receive position (i_r, j_r): a snapshot writes every field,
and no cached stage can open twice. A chain's key is set with its
ephemeral or neither is, and a pending reply needs a receive chain and no
sending chain. An unset chain sits at position 0: with no receive chain
i_r = j_r = 0 and the cache is empty, with no sending chain j_s = 0. A
receive chain lies below epoch 0xFFFFFFFF, and its peer ephemeral is not
a low-order point, so a pending reply's exchange cannot fail. Every state
the ratchet writes meets these rules. Import only parses: it checks the
byte format and passes a rule's refusal on as a ParseError with the same
message. Once a state is built, only this module writes its fields (the
state_writes row of tests/test_imports.py), and every write keeps the
rules.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import crypto_suite as cs
from .errors import (
    CounterExhausted,
    NotInitialized,
    ParseError,
    ReplayRejected,
    SkipLimit,
    StaleEpoch,
)
from .wire import (
    _NONCE_MATERIAL,
    VERS_VDR,
    EnvelopeVDR,
    _check_u8,
    _check_u32,
    _Run,
)

MAX_SKIP = 256
_J_MAX = 2**32 - 1  # no index reaches it, as v2's counter stops at _CTR_MAX
_AD = _Run(("kid_sender", "I"), ("kid_receiver", "I"), ("vers", "B"),
           ("ctype", "B"), ("eph_pub", "32s"), ("j_index", "I"))

ROLE_INITIATOR = "initiator"
ROLE_RESPONDER = "responder"


# the 32-byte fields, checked once when a state is built
_KEY_FIELDS = ("rk", "ck_send", "ck_recv", "peer_eph_pub", "reply_secret")
# the fields a snapshot writes as a u32
_U32_FIELDS = ("kid_self", "kid_peer", "j_s", "i_r", "j_r")
# libsodium's small-order X25519 encodings, little-endian, bit 255 dropped
# as X25519 drops it: 0, 1, two of order 8, and p - 1, p, p + 1
_LOW_ORDER = frozenset((
    0, 1, 2**255 - 20, 2**255 - 19, 2**255 - 18,
    0xb8495f16056286fdb1329ceb8d09da6ac49ff1fae35616aeb8413b7c7aebe0,
    0x57119fd0dd4e22d8868e1c58c45c44045bef839c55b1d0b1248c50a3bc959c5f))


def _low_order(point: bytes) -> bool:
    """Whether every X25519 exchange with point gives the all-zero output."""
    return int.from_bytes(point, "little") % 2**255 in _LOW_ORDER


@dataclass(slots=True)
class RatchetState:
    rk: cs.SymmetricKey
    kid_self: int
    kid_peer: int
    ck_send: cs.SymmetricKey | None = None
    ck_recv: cs.SymmetricKey | None = None
    j_s: int = 0
    i_r: int = 0
    j_r: int = 0
    self_eph: cs.KeyPair | None = None
    peer_eph_pub: cs.GroupElement | None = None
    reply_secret: cs.GroupScalar | None = None  # drawn, chain not yet built
    skipped: dict[tuple[int, int], cs.SymmetricKey] = field(default_factory=dict)

    def __post_init__(self):
        """The state's rules (module docstring), each refused with a
        ValueError. The state takes a cache of its own: a copy built by
        ``dataclasses.replace`` would otherwise share the original's."""
        self.skipped = dict(self.skipped)
        for name in _KEY_FIELDS:
            value = getattr(self, name)
            if value is not None and len(value) != 32:
                raise ValueError(
                    f"RatchetState.{name} must be 32 bytes, got {len(value)}")
        for name in _U32_FIELDS:
            _check_u32(getattr(self, name), name)
        if ((self.ck_send is None) != (self.self_eph is None)
                or (self.ck_recv is None) != (self.peer_eph_pub is None)):
            raise ValueError("RatchetState sets a chain key without its "
                             "ephemeral, or an ephemeral without its chain")
        if self.reply_secret is not None and (
                self.ck_send is not None or self.ck_recv is None):
            raise ValueError("RatchetState sets a pending reply beside a "
                             "sending chain, or without a receive chain")
        if self.ck_send is None and self.j_s:
            raise ValueError("RatchetState has no sending chain, yet its "
                             f"send index is {self.j_s}")
        if self.ck_recv is None:
            if self.i_r or self.j_r or self.skipped:
                raise ValueError(
                    "RatchetState has no receive chain, yet sits at "
                    f"({self.i_r}, {self.j_r}) with {len(self.skipped)} "
                    "cached keys")
        elif self.i_r == 0xFFFFFFFF:
            raise ValueError(
                f"receive epoch {self.i_r} leaves no u32 reply epoch")
        elif _low_order(self.peer_eph_pub):
            raise ValueError("RatchetState.peer_eph_pub is a low-order point")
        if len(self.skipped) > MAX_SKIP:
            raise ValueError(f"{len(self.skipped)} skipped keys exceed "
                             f"MAX_SKIP={MAX_SKIP}")
        position = (self.i_r, self.j_r)
        for (i, j), key in self.skipped.items():
            if len(key) != 32:
                raise ValueError(f"skipped key ({i}, {j}) must be 32 bytes, "
                                 f"got {len(key)}")
            if (i, j) >= position:
                raise ValueError(f"RatchetState caches stage ({i}, {j}), not "
                                 f"behind the receive chain at {position}")
            if i < 0 or not 0 <= j <= 0xFFFFFFFF:  # i <= i_r, a u32
                raise ValueError(
                    f"RatchetState caches stage ({i}, {j}), out of u32 range")

    @property
    def i_s(self) -> int:
        """The send epoch, never stored (module docstring)."""
        return 0 if self.ck_recv is None else self.i_r + 1


def build_ad_vdr(kid_sender: int, kid_receiver: int, vers: int, ctype: int,
                 eph_pub: bytes, j_index: int) -> bytes:
    """Associated data: kids, vers, ctype, sender ephemeral, symmetric index.

    No sender/receiver identity strings here; the ephemeral takes over the
    binding role they played in the salted-hash design.
    """
    return _AD.pack(kid_sender, kid_receiver, vers, ctype, eph_pub, j_index)


def vdr_init_sender(self_ltk: cs.GroupScalar | cs.X25519PrivateKey,
                    peer_ltk_pub: cs.GroupElement,
                    rng: cs.SeededRng, kid_self: int, kid_peer: int) -> RatchetState:
    """Initiator setup: root and first sending chain from
    KDF(dh(ephemeral, peer) || dh(static, peer)). self_ltk is a scalar or
    its key object (module docstring)."""
    eph = cs.dh_keygen_with_key(rng)
    ikm = cs.dh(eph.key, peer_ltk_pub) + cs.dh(self_ltk, peer_ltk_pub)
    rk, ck_send = cs.kdf_root(ikm, cs.ZERO_SALT)
    return RatchetState(rk=rk, ck_send=ck_send, kid_self=kid_self,
                        kid_peer=kid_peer, self_eph=eph)


def vdr_lazy_init_receiver(self_ltk: cs.GroupScalar | cs.X25519PrivateKey,
                           peer_ltk_pub: cs.GroupElement,
                           env: EnvelopeVDR,
                           kid_self: int, kid_peer: int) -> RatchetState:
    """Responder setup from the first incoming envelope; mirrors the
    initiator derivation through DH symmetry. Does not decrypt: call
    vdr_decrypt next and discard this state if that fails, since a tampered
    ephemeral yields garbage keys that only the AEAD tag can expose.
    self_ltk is a scalar or its key object (module docstring)."""
    if env.i_index != 0:
        raise StaleEpoch(
            f"lazy receiver init needs an epoch-0 envelope, got epoch {env.i_index}")
    peer_eph = cs.GroupElement(env.eph_pub)
    ltk_key = cs.dh_key(self_ltk)  # two exchanges, one object
    ikm = cs.dh(ltk_key, peer_eph) + cs.dh(ltk_key, peer_ltk_pub)
    rk, ck_recv = cs.kdf_root(ikm, cs.ZERO_SALT)
    return RatchetState(
        rk=rk, ck_recv=ck_recv,
        kid_self=kid_self, kid_peer=kid_peer,
        peer_eph_pub=peer_eph,  # reply epoch 1; its open draws the scalar
    )


def _reply_chain(st: RatchetState) -> tuple[cs.KeyPair, cs.SymmetricKey,
                                            cs.SymmetricKey]:
    """A pending reply's ephemeral pair, root and sending chain: its key
    generation, its exchange with the peer's ephemeral and the root step.
    The state's rules refuse a low-order peer ephemeral, so the exchange
    cannot fail (module docstring)."""
    eph = cs.dh_keygen_from(st.reply_secret)
    rk, ck_send = cs.kdf_root(cs.dh(eph.key, st.peer_eph_pub), st.rk)
    return eph, rk, ck_send


def _build_reply(st: RatchetState) -> None:
    """Build a pending reply's chain and commit it; no pending reply, no
    change."""
    if st.reply_secret is not None:
        eph, rk, ck_send = _reply_chain(st)
        st.self_eph, st.rk, st.ck_send, st.reply_secret = eph, rk, ck_send, None


def vdr_encrypt(st: RatchetState, ctype: int, m: bytes,
                rng: cs.SeededRng) -> EnvelopeVDR:
    """Seal one message; a pending reply's chain is built first."""
    _check_u8(ctype, "ctype")  # before the reply build, chain step and draw
    if st.ck_send is None and st.reply_secret is None:
        raise NotInitialized("no sending chain; decrypt the peer's flight first")
    if st.j_s >= _J_MAX:
        raise CounterExhausted(f"send index at {st.j_s}")
    _build_reply(st)
    mk, ck_send = cs.kdf_chain(st.ck_send)
    nonce_material = _NONCE_MATERIAL.pack(st.i_s, rng.token(4))
    nonce = cs.AeadNonce.unchecked(nonce_material + b"\x00" * 4)
    eph_pub = st.self_eph.public
    ad = build_ad_vdr(st.kid_self, st.kid_peer, VERS_VDR, ctype,
                      eph_pub, st.j_s)
    env = EnvelopeVDR(ctype=ctype, ciphertext=cs.aead_seal(mk, nonce, m, ad),
                      nonce_material=nonce_material,
                      kid_sender=st.kid_self, kid_receiver=st.kid_peer,
                      eph_pub=eph_pub, j_index=st.j_s)
    st.ck_send, st.j_s = ck_send, st.j_s + 1
    cs.emit_message_key(mk)
    return env


def vdr_open(mk: cs.SymmetricKey, env: EnvelopeVDR) -> bytes:
    """AEAD open of one envelope under its message key; no state involved."""
    nonce = cs.AeadNonce(env.nonce_material + b"\x00" * 4)
    ad = build_ad_vdr(env.kid_sender, env.kid_receiver, env.vers, env.ctype,
                      env.eph_pub, env.j_index)
    return cs.aead_open(mk, nonce, env.ciphertext, ad)


def vdr_decrypt(st: RatchetState, env: EnvelopeVDR,
                rng: cs.SeededRng) -> bytes:
    """Catch-up decryption with replay defense; see module docstring for the
    step order. rng feeds the reply ephemeral's scalar, drawn at the first
    successful decrypt of a new epoch and held as a pending reply until a
    seal or an export builds its chain. Every failure leaves the state as
    it was and draws nothing."""
    i_index = env.i_index  # a property that decodes nonce_material
    stage = (i_index, env.j_index)
    mk = st.skipped.get(stage)
    if mk is not None:  # opens under its cached key, and nothing else moves
        plaintext = vdr_open(mk, env)  # AuthFailure keeps the key cached
        del st.skipped[stage]
        cs.emit_message_key(mk)
        return plaintext

    if env.j_index >= _J_MAX:  # j_r could not move past it
        raise CounterExhausted(f"receive index at {env.j_index}")
    if i_index > st.i_r:
        if st.reply_secret is not None:  # built in locals: the turn's
            eph, rk, _ = _reply_chain(st)  # commit keeps only its root
        elif st.self_eph is None:
            raise StaleEpoch("no local ephemeral to ratchet against")
        else:
            eph, rk = st.self_eph, st.rk
        peer_eph = cs.GroupElement(env.eph_pub)
        rk, ck = cs.kdf_root(cs.dh(eph.key, peer_eph), rk)
        i_r, j = i_index, 0
    elif i_index == st.i_r and st.ck_recv is not None:
        if env.j_index < st.j_r:
            raise ReplayRejected(
                f"no key left for {stage} in the live receive chain")
        peer_eph, rk, ck = st.peer_eph_pub, st.rk, st.ck_recv
        i_r, j = st.i_r, st.j_r
    else:
        raise StaleEpoch(
            f"epoch {i_index} has no live chain (current {st.i_r}), "
            "no cached key")
    if env.j_index - j > MAX_SKIP:
        raise SkipLimit(f"gap {env.j_index - j} exceeds MAX_SKIP={MAX_SKIP}")
    skipped = {}
    for k in range(j, env.j_index):
        skipped[(i_r, k)], ck = cs.kdf_chain(ck)
    mk, ck = cs.kdf_chain(ck)

    plaintext = vdr_open(mk, env)  # AuthFailure leaves all state untouched

    # a turn, or the first open
    if i_r != st.i_r or (st.ck_send is None and st.reply_secret is None):
        if i_r == 0xFFFFFFFF:
            raise StaleEpoch(f"epoch {i_r} leaves no u32 reply epoch")
        reply = cs.dh_draw_secret(rng)
        # the one commit: nothing above changed the state
        st.reply_secret, st.self_eph, st.ck_send = reply, None, None
        st.j_s = 0
    st.rk, st.ck_recv, st.i_r, st.j_r = rk, ck, i_r, env.j_index + 1
    st.peer_eph_pub = peer_eph
    st.skipped.update(skipped)
    while len(st.skipped) > MAX_SKIP:
        del st.skipped[next(iter(st.skipped))]
    cs.emit_message_key(mk)
    return plaintext


# ---------------------------------------------------------------------------
# Snapshot codec (the RevState compromise surface)
#
# A snapshot is the head run, then each chain its flag bit marks (bit 0
# sending: ck_send, self_eph's secret; bit 1 receiving: ck_recv,
# peer_eph_pub), then the tail run and one skipped run per cached key.
# Export and import both follow these declarations, so they cannot
# disagree on the order; tests/data/golden_snapshots.txt pins the bytes
# themselves. Export packs the head, the chains and the tail with one run
# per flag value; import reads them apart, so it checks the flags first.
# The tail holds no send epoch: i_s is read off (flags, i_r). Import only
# parses: it checks the magic, the flag bits, the cache count against
# MAX_SKIP (before it reads the entries), a repeated stage, truncation and
# trailing bytes. Every rule on what the fields may hold is the state's
# (module docstring), and import passes its refusal on as a ParseError.
# ---------------------------------------------------------------------------

_SNAPSHOT_MAGIC = b"VDR6"
_SNAPSHOT_HEAD = _Run(("magic", "4s"), ("flags", "B"), ("rk", "32s"))
_SENDING, _RECEIVING = 1, 2  # the flag bits
_SNAPSHOT_SENDING = _Run(("ck_send", "32s"), ("self_eph secret", "32s"))
_SNAPSHOT_RECEIVING = _Run(("ck_recv", "32s"), ("peer_eph_pub", "32s"))
_SNAPSHOT_TAIL = _Run(("j_s", "I"), ("i_r", "I"), ("j_r", "I"),
                      ("kid_self", "I"), ("kid_peer", "I"),
                      ("skipped count", "H"))
_SNAPSHOT_SKIPPED = _Run(("skipped i", "I"), ("skipped j", "I"),
                         ("skipped key", "32s"))
# flags -> one run of the head, the chains they mark and the tail
_SNAPSHOT_LAYOUTS = (
    _SNAPSHOT_HEAD + _SNAPSHOT_TAIL,
    _SNAPSHOT_HEAD + _SNAPSHOT_SENDING + _SNAPSHOT_TAIL,
    _SNAPSHOT_HEAD + _SNAPSHOT_RECEIVING + _SNAPSHOT_TAIL,
    _SNAPSHOT_HEAD + _SNAPSHOT_SENDING + _SNAPSHOT_RECEIVING + _SNAPSHOT_TAIL)
def vdr_export_state(st: RatchetState) -> bytes:
    """Complete, lossless snapshot of the session state; the long-term keys
    are not part of it (module docstring), and consumed message keys are
    not here because the state never retains them. A pending reply's chain
    is built and committed first, so a snapshot reads the same whenever it
    is taken, and the format has no pending field. There is no replay
    record, so the size depends on the skipped-key cache alone: 187 bytes
    with both chains set, plus 40 per cached key, at most MAX_SKIP of
    them."""
    _build_reply(st)
    flags, chains = 0, []
    if st.ck_send is not None:
        flags, chains = _SENDING, [st.ck_send, st.self_eph.secret]
    if st.ck_recv is not None:
        flags |= _RECEIVING
        chains += (st.ck_recv, st.peer_eph_pub)
    snapshot = _SNAPSHOT_LAYOUTS[flags].pack(
        _SNAPSHOT_MAGIC, flags, st.rk, *chains,
        st.j_s, st.i_r, st.j_r, st.kid_self, st.kid_peer,
        len(st.skipped))
    if not st.skipped:
        return snapshot
    return b"".join((snapshot, *[_SNAPSHOT_SKIPPED.pack(i, j, key)
                                 for (i, j), key in st.skipped.items()]))


def vdr_import_state(snapshot: bytes) -> RatchetState:
    magic, flags, rk = _SNAPSHOT_HEAD.read(snapshot, 0)
    pos = _SNAPSHOT_HEAD.size
    if magic != _SNAPSHOT_MAGIC:
        raise ParseError("not a ratchet snapshot (bad magic)")
    if flags & ~(_SENDING | _RECEIVING):
        raise ParseError(f"snapshot flags 0x{flags:02x} set an unknown bit")
    chains = {}  # an unset chain keeps its None defaults
    if flags & _SENDING:
        ck, secret = _SNAPSHOT_SENDING.read(snapshot, pos)
        pos += _SNAPSHOT_SENDING.size
        chains.update(ck_send=cs.SymmetricKey(ck),
                      self_eph=cs.key_pair(cs.GroupScalar(secret)))
    if flags & _RECEIVING:
        ck, peer_eph = _SNAPSHOT_RECEIVING.read(snapshot, pos)
        pos += _SNAPSHOT_RECEIVING.size
        chains.update(ck_recv=cs.SymmetricKey(ck),
                      peer_eph_pub=cs.GroupElement(peer_eph))
    j_s, i_r, j_r, kid_self, kid_peer, n_skipped = _SNAPSHOT_TAIL.read(
        snapshot, pos)
    pos += _SNAPSHOT_TAIL.size
    if n_skipped > MAX_SKIP:  # the state's rule, before reading them
        raise ParseError(f"{n_skipped} skipped keys exceed MAX_SKIP={MAX_SKIP}")
    skipped: dict[tuple[int, int], cs.SymmetricKey] = {}
    for _ in range(n_skipped):
        i, j, key = _SNAPSHOT_SKIPPED.read(snapshot, pos)
        pos += _SNAPSHOT_SKIPPED.size
        if (i, j) in skipped:
            raise ParseError(f"snapshot caches stage ({i}, {j}) twice")
        skipped[(i, j)] = cs.SymmetricKey(key)
    if pos != len(snapshot):
        raise ParseError(f"{len(snapshot) - pos} trailing bytes after snapshot")
    try:
        return RatchetState(
            rk=cs.SymmetricKey(rk), j_s=j_s, i_r=i_r, j_r=j_r,
            kid_self=kid_self, kid_peer=kid_peer, skipped=skipped, **chains,
        )
    except ValueError as exc:  # a state rule
        raise ParseError(str(exc)) from exc
