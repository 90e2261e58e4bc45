"""Second-generation sealing: static-static DH, salted SHA-256 key
derivation, AES-GCM with a counter-prefixed nonce and AD-bound metadata.

Deliberately preserved properties: decryption is stateless, so replays of a
valid envelope are accepted, and revealing the pre-master secret
retroactively opens every recorded message (no forward secrecy). Counters
run per direction, both starting at zero, so cross-direction nonce
collisions are possible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

from . import crypto_suite as cs
from .errors import CounterExhausted, KidMismatch
from .wire import (
    _NONCE_MATERIAL,
    VERS_V2,
    EnvelopeV2,
    _check_length,
    _check_u8,
    _Run,
)

_CTR_MAX = 2**32 - 1
# the associated data: rid and sid, each behind its length, then the rest
_AD_LENGTH = _Run(("length", "H"))
_AD_TAIL = _Run(("kid_sender", "I"), ("kid_receiver", "I"), ("vers", "B"),
                ("ctype", "B"))
_STATE = _Run(("pms", "32s"), ("ctr", "I"))


@dataclass
class SessionV2:
    """Mutable sending/receiving context; one owner per instance."""

    pms: cs.SharedSecret
    kid_self: int
    kid_peer: int
    sid: str
    rid: str
    ctr: int = 0
    vers: ClassVar[int] = VERS_V2
    # associated data is constant per (session, ctype); built once
    ad_cache: dict = field(default_factory=dict, repr=False, compare=False)


def v2_establish(self_secret: cs.GroupScalar, peer_public: cs.GroupElement,
                 kid_self: int, kid_peer: int, sid: str, rid: str) -> SessionV2:
    """The session of one party; each identity string must fit its u16
    length prefix in the AD, checked before the exchange."""
    _check_length(sid, "identity string sid")
    _check_length(rid, "identity string rid")
    return SessionV2(pms=cs.dh(self_secret, peer_public),
                     kid_self=kid_self, kid_peer=kid_peer, sid=sid, rid=rid)


def v2_export_state(s: SessionV2) -> bytes:
    """Everything the party stores: the pre-master secret and the counter."""
    return _STATE.pack(s.pms, s.ctr)


def v2_snapshot_pms(snapshot: bytes) -> cs.SharedSecret:
    return cs.SharedSecret(_STATE.read(snapshot, 0)[0])


def v2_derive_key(pms: cs.SharedSecret, salt: bytes) -> cs.SymmetricKey:
    if len(salt) != 16:
        raise ValueError(f"v2 salt must be 16 bytes, got {len(salt)}")
    return cs.SymmetricKey.unchecked(cs._digest_kdf_raw(pms, salt, b"Key"))


def v2_build_nonce(ctr: int, rand32: bytes) -> tuple[cs.AeadNonce, bytes]:
    """8 bytes of material (counter ++ random), zero-padded to 96 bits."""
    if len(rand32) != 4:
        raise ValueError("rand32 must be 4 bytes (32 bits)")
    material = _NONCE_MATERIAL.pack(ctr, rand32)
    return cs.AeadNonce.unchecked(material + b"\x00" * 4), material


def build_ad_v2(rid: str, sid: str, kid_sender: int, kid_receiver: int,
                vers: int, ctype: int) -> bytes:
    """Associated data: rid, sid, both kids, vers, ctype, pinned layout."""
    rid_b = rid.encode()
    sid_b = sid.encode()
    return b"".join((
        _AD_LENGTH.pack(len(rid_b)), rid_b,
        _AD_LENGTH.pack(len(sid_b)), sid_b,
        _AD_TAIL.pack(kid_sender, kid_receiver, vers, ctype),
    ))


def v2_encrypt(s: SessionV2, ctype: int, m: bytes, rng: cs.SeededRng) -> EnvelopeV2:
    _check_u8(ctype, "ctype")  # before the draw and the AD cache
    if s.ctr >= _CTR_MAX:
        raise CounterExhausted(f"send counter at {s.ctr}")
    draw = rng.token(20)  # 16-byte salt and the 32-bit nonce half, one draw
    salt = draw[:16]
    k_e = v2_derive_key(s.pms, salt)
    nonce, material = v2_build_nonce(s.ctr, draw[16:])
    ad = s.ad_cache.get(ctype)
    if ad is None:
        ad = build_ad_v2(s.rid, s.sid, s.kid_self, s.kid_peer, s.vers, ctype)
        s.ad_cache[ctype] = ad
    ciphertext = cs.aead_seal(k_e, nonce, m, ad)
    s.ctr += 1
    cs.emit_message_key(k_e)
    return EnvelopeV2(ctype=ctype, salt=salt, ciphertext=ciphertext,
                      nonce_material=material, kid_sender=s.kid_self,
                      kid_receiver=s.kid_peer, sid=s.sid, rid=s.rid)


def v2_decrypt(s: SessionV2, e: EnvelopeV2) -> bytes:
    """Stateless open: rederives the key from the envelope, keeps no record
    of seen nonces, so the identical envelope decrypts any number of times."""
    if e.kid_receiver != s.kid_self:
        raise KidMismatch(
            f"envelope for kid {e.kid_receiver}, this session holds {s.kid_self}")
    k_e = v2_derive_key(s.pms, e.salt)
    nonce = cs.AeadNonce(e.nonce_material + b"\x00" * 4)
    # memo over every AD input (vers is the envelope class constant 2),
    # stored only once the tag verifies, so a forged header leaves the
    # cache as it was; the bound holds against a peer that varies sid
    memo = (e.rid, e.sid, e.kid_sender, e.kid_receiver, e.ctype)
    cached = s.ad_cache.get(memo)
    ad = cached or build_ad_v2(e.rid, e.sid, e.kid_sender, e.kid_receiver,
                               e.vers, e.ctype)
    pt = cs.aead_open(k_e, nonce, e.ciphertext, ad)
    if cached is None:
        if len(s.ad_cache) > 64:
            s.ad_cache.clear()
        s.ad_cache[memo] = ad
    cs.emit_message_key(k_e)
    return pt
