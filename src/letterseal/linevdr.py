"""Double-ratchet sealing: combined ephemeral-static initial secret,
per-message symmetric ratchet, alternating asymmetric ratchet, bounded
catch-up cache, and a replay defense read off the chain position.

Index conventions. i counts asymmetric epochs, j messages within a chain.
The initiator owns even epochs, the responder odd ones. The receiver
ratchets its receiving chain when an envelope opens a new epoch, and builds
the reply chain (fresh ephemeral, i_s = i_r + 1) right after the first
successful decrypt of that epoch. A turn to epoch 0xFFFFFFFF is refused
there with StaleEpoch, before the ephemeral is drawn: its reply epoch
would not fit a u32. Decryption is transactional: state mutates only
after the AEAD tag verifies, so forged envelopes cannot desynchronize a
session or poison the skipped-key cache. So is encryption: a refused seal
neither steps the chain nor draws a nonce.

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

Ephemeral key object. Besides the scalar ``self_eph_secret``, the state
holds ``self_eph_key``, the OpenSSL key object built from it, so the next
epoch turn exchanges without deriving the public key again. The state owns
it, and it is set wherever the ephemeral is generated: in vdr_init_sender
and in the reply set-up of vdr_decrypt. The turn that replaces the scalar
replaces the object with it; a failed decrypt leaves both in place. It is a
cache of ``self_eph_secret`` and nothing more: snapshots never carry it, so
vdr_import_state returns it as None and the first turn after an import
builds the object from the scalar bytes. Long-term scalars get no held
object: a session exchanges with them only during set-up.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter

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
    _Run,
    _take,
)

MAX_SKIP = 256
_J_MAX = 2**32 - 1  # sending stops here, as v2's counter does at _CTR_MAX
_AD = _Run(("kid_sender", "I"), ("kid_receiver", "I"), ("vers", "B"),
           ("ctype", "B"), ("eph_pub", "32s"), ("j_index", "I"))

ROLE_INITIATOR = "initiator"
ROLE_RESPONDER = "responder"


@dataclass(slots=True)
class RatchetState:
    role: str
    rk: cs.SymmetricKey
    self_ltk: cs.GroupScalar
    peer_ltk_pub: cs.GroupElement
    kid_self: int
    kid_peer: int
    ck_send: cs.SymmetricKey | None = None
    ck_recv: cs.SymmetricKey | None = None
    i_s: int = 0
    j_s: int = 0
    i_r: int = 0
    j_r: int = 0
    self_eph_secret: cs.GroupScalar | None = None
    self_eph_pub: cs.GroupElement | None = None
    peer_eph_pub: cs.GroupElement | None = None
    skipped: dict[tuple[int, int], cs.SymmetricKey] = field(default_factory=dict)
    # key object of self_eph_secret (module docstring); never serialized
    self_eph_key: cs.X25519PrivateKey | None = field(
        default=None, repr=False, compare=False)


def build_ad_vdr(kid_sender: int, kid_receiver: int, vers: int, ctype: int,
                 eph_pub: bytes, j_index: int) -> bytes:
    """Associated data: kids, vers, ctype, sender ephemeral, symmetric index.

    No sender/receiver identity strings here; the ephemeral takes over the
    binding role they played in the salted-hash design.
    """
    return _AD.pack(kid_sender, kid_receiver, vers, ctype, eph_pub, j_index)


def vdr_init_sender(self_ltk: cs.GroupScalar, peer_ltk_pub: cs.GroupElement,
                    rng: cs.SeededRng, kid_self: int, kid_peer: int) -> RatchetState:
    """Initiator setup: root and first sending chain from
    KDF(dh(ephemeral, peer) || dh(static, peer))."""
    eph_secret, eph_pub, eph_key = cs.dh_keygen_with_key(rng)
    ikm = cs.dh(eph_key, peer_ltk_pub) + cs.dh(self_ltk, peer_ltk_pub)
    rk, ck_send = cs.kdf_root(ikm, cs.ZERO_SALT)
    return RatchetState(
        role=ROLE_INITIATOR, rk=rk, ck_send=ck_send,
        self_ltk=self_ltk, peer_ltk_pub=peer_ltk_pub,
        kid_self=kid_self, kid_peer=kid_peer,
        self_eph_secret=eph_secret, self_eph_pub=eph_pub,
        self_eph_key=eph_key,
    )


def vdr_lazy_init_receiver(self_ltk: cs.GroupScalar,
                           peer_ltk_pub: cs.GroupElement,
                           env: EnvelopeVDR,
                           kid_self: int, kid_peer: int) -> RatchetState:
    """Responder setup from the first incoming envelope; mirrors the
    initiator derivation through DH symmetry. Does not decrypt: call
    vdr_decrypt next and discard this state if that fails, since a tampered
    ephemeral yields garbage keys that only the AEAD tag can expose."""
    if env.i_index != 0:
        raise StaleEpoch(
            f"lazy receiver init needs an epoch-0 envelope, got epoch {env.i_index}")
    peer_eph = cs.GroupElement(env.eph_pub)
    ltk_key = cs.dh_private_key(self_ltk)
    ikm = cs.dh(ltk_key, peer_eph) + cs.dh(ltk_key, peer_ltk_pub)
    rk, ck_recv = cs.kdf_root(ikm, cs.ZERO_SALT)
    return RatchetState(
        role=ROLE_RESPONDER, rk=rk, ck_recv=ck_recv,
        self_ltk=self_ltk, peer_ltk_pub=peer_ltk_pub,
        kid_self=kid_self, kid_peer=kid_peer,
        peer_eph_pub=peer_eph,
        i_s=1,  # reply epoch; chain material arrives with the first decrypt
    )


def vdr_encrypt(st: RatchetState, ctype: int, m: bytes,
                rng: cs.SeededRng) -> EnvelopeVDR:
    _check_u8(ctype, "ctype")  # before the chain step and the nonce draw
    if st.ck_send is None:
        raise NotInitialized("no sending chain; decrypt the peer's flight first")
    if st.j_s >= _J_MAX:
        raise CounterExhausted(f"send index at {st.j_s}")
    mk, ck_send = cs.kdf_chain(st.ck_send)
    nonce_material = _NONCE_MATERIAL.pack(st.i_s, rng.token(4))
    nonce = cs.AeadNonce.unchecked(nonce_material + b"\x00" * 4)
    ad = build_ad_vdr(st.kid_self, st.kid_peer, VERS_VDR, ctype,
                      st.self_eph_pub, st.j_s)
    env = EnvelopeVDR(ctype=ctype, ciphertext=cs.aead_seal(mk, nonce, m, ad),
                      nonce_material=nonce_material,
                      kid_sender=st.kid_self, kid_receiver=st.kid_peer,
                      eph_pub=st.self_eph_pub, j_index=st.j_s)
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
    step order. rng feeds the reply-chain ephemeral generated after the
    first successful decrypt of a new epoch."""
    i_index = env.i_index  # a property that decodes nonce_material
    stage = (i_index, env.j_index)
    mk = st.skipped.get(stage)
    if mk is not None:  # opens under its cached key, and nothing else moves
        plaintext = vdr_open(mk, env)  # AuthFailure keeps the key cached
        del st.skipped[stage]
        cs.emit_message_key(mk)
        return plaintext

    if i_index > st.i_r:
        if st.self_eph_secret is None:
            raise StaleEpoch("no local ephemeral to ratchet against")
        peer_eph = cs.GroupElement(env.eph_pub)
        shared = cs.dh(st.self_eph_key or st.self_eph_secret, peer_eph)
        rk, ck = cs.kdf_root(shared, st.rk)
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

    if i_r != st.i_r or st.ck_send is None:  # a turn, or the first open
        if i_r == 0xFFFFFFFF:
            raise StaleEpoch(f"epoch {i_r} leaves no u32 reply epoch")
        st.self_eph_secret, st.self_eph_pub, st.self_eph_key = \
            cs.dh_keygen_with_key(rng)
        rk, ck_send = cs.kdf_root(cs.dh(st.self_eph_key, peer_eph), rk)
        st.ck_send, st.i_s, st.j_s = ck_send, i_r + 1, 0
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
# A snapshot is the head run, then each optional field its flag bit marks,
# then the tail run and one skipped run per cached key. Export and import
# both follow these declarations, so they cannot disagree on the order;
# tests/data/golden_snapshots.txt pins the bytes themselves. Export packs
# the head, the set optional fields and the tail with one run per flag
# value, built here from the three declarations; import reads them apart,
# at explicit positions, so it can check the flags before the fields.
# ---------------------------------------------------------------------------

_SNAPSHOT_MAGIC = b"VDR3"
_ROLES = (ROLE_INITIATOR, ROLE_RESPONDER)  # the role byte indexes this
_SNAPSHOT_HEAD = _Run(("magic", "4s"), ("role", "B"), ("flags", "B"),
                      ("rk", "32s"))
# flag bit k marks _SNAPSHOT_OPTIONAL[k]; each field is 32 bytes when set
_SNAPSHOT_OPTIONAL = (
    ("ck_send", cs.SymmetricKey),
    ("ck_recv", cs.SymmetricKey),
    ("self_eph_secret", cs.GroupScalar),
    ("self_eph_pub", cs.GroupElement),
    ("peer_eph_pub", cs.GroupElement),
)
_SNAPSHOT_FLAGS = (1 << len(_SNAPSHOT_OPTIONAL)) - 1
# each chain's fields are set together or not at all
_SNAPSHOT_PAIRED = (("ck_send", "self_eph_secret", "self_eph_pub"),
                    ("ck_recv", "peer_eph_pub"))
_SNAPSHOT_TAIL = _Run(("i_s", "I"), ("j_s", "I"), ("i_r", "I"), ("j_r", "I"),
                      ("self_ltk", "32s"), ("peer_ltk_pub", "32s"),
                      ("kid_self", "I"), ("kid_peer", "I"),
                      ("skipped count", "H"))
_SNAPSHOT_SKIPPED = _Run(("skipped i", "I"), ("skipped j", "I"),
                         ("skipped key", "32s"))
_SNAPSHOT_VALUES = attrgetter(*[name for name, _ in _SNAPSHOT_OPTIONAL])
# flags -> one run of the head, the optional fields they mark and the tail
_SNAPSHOT_LAYOUTS = tuple(
    _SNAPSHOT_HEAD
    + _Run(*[(name, "32s") for k, (name, _) in enumerate(_SNAPSHOT_OPTIONAL)
             if flags >> k & 1])
    + _SNAPSHOT_TAIL
    for flags in range(_SNAPSHOT_FLAGS + 1))


def vdr_export_state(st: RatchetState) -> bytes:
    """Complete, lossless snapshot. Holds everything the party holds,
    long-term secret included; consumed message keys are simply not here
    because the state never retains them. There is no replay record (module
    docstring), so the size depends on the skipped-key cache alone: 288
    bytes with every optional field set, plus 40 per cached key, at most
    MAX_SKIP of them."""
    flags, optional = 0, []
    for k, value in enumerate(_SNAPSHOT_VALUES(st)):
        if value is not None:
            flags |= 1 << k
            optional.append(value)
    snapshot = _SNAPSHOT_LAYOUTS[flags].pack(
        _SNAPSHOT_MAGIC, _ROLES.index(st.role), flags, st.rk, *optional,
        st.i_s, st.j_s, st.i_r, st.j_r, st.self_ltk, st.peer_ltk_pub,
        st.kid_self, st.kid_peer, len(st.skipped))
    if not st.skipped:
        return snapshot
    return b"".join((snapshot, *[_SNAPSHOT_SKIPPED.pack(i, j, key)
                                 for (i, j), key in st.skipped.items()]))


def vdr_import_state(snapshot: bytes) -> RatchetState:
    magic, role, flags, rk = _SNAPSHOT_HEAD.read(snapshot, 0)
    pos = _SNAPSHOT_HEAD.size
    if magic != _SNAPSHOT_MAGIC:
        raise ParseError("not a ratchet snapshot (bad magic)")
    if role > 1:
        raise ParseError(f"snapshot role byte {role} is neither 0 nor 1")
    if flags & ~_SNAPSHOT_FLAGS:
        raise ParseError(f"snapshot flags 0x{flags:02x} set an unknown bit")
    optional = {}  # an unset field keeps its None default
    for k, (name, ctor) in enumerate(_SNAPSHOT_OPTIONAL):
        if flags >> k & 1:
            optional[name] = ctor(_take(snapshot, pos, 32, name))
            pos += 32
    for group in _SNAPSHOT_PAIRED:
        if len({name in optional for name in group}) > 1:
            raise ParseError(f"snapshot sets only part of {', '.join(group)}")
    (i_s, j_s, i_r, j_r, self_ltk, peer_ltk_pub, kid_self, kid_peer,
     n_skipped) = _SNAPSHOT_TAIL.read(snapshot, pos)
    pos += _SNAPSHOT_TAIL.size
    if n_skipped > MAX_SKIP:
        raise ParseError(f"{n_skipped} skipped keys exceed MAX_SKIP={MAX_SKIP}")
    skipped: dict[tuple[int, int], cs.SymmetricKey] = {}
    for _ in range(n_skipped):
        i, j, key = _SNAPSHOT_SKIPPED.read(snapshot, pos)
        pos += _SNAPSHOT_SKIPPED.size
        skipped[(i, j)] = cs.SymmetricKey(key)
    if pos != len(snapshot):
        raise ParseError(f"{len(snapshot) - pos} trailing bytes after snapshot")
    return RatchetState(
        role=_ROLES[role], rk=cs.SymmetricKey(rk),
        i_s=i_s, j_s=j_s, i_r=i_r, j_r=j_r,
        self_ltk=cs.GroupScalar(self_ltk),
        peer_ltk_pub=cs.GroupElement(peer_ltk_pub),
        kid_self=kid_self, kid_peer=kid_peer, skipped=skipped, **optional,
    )
