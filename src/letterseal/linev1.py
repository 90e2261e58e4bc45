"""First-generation sealing: SHA-256 derived key/IV, AES-CBC, AES-ECB MAC.

Kept as a faithful baseline, weaknesses included: the MAC covers the
ciphertext only (no key ids, version or content type are bound), there is
no replay defense, and one static DH secret drives every message.
"""

from __future__ import annotations

from dataclasses import dataclass
from hmac import compare_digest

from . import crypto_suite as cs
from .errors import MacFailure
from .wire import VERS_V1, EnvelopeV1


@dataclass(frozen=True)
class SessionV1:
    """Static session context; v1 keeps no per-message state at all."""

    pms: cs.SharedSecret
    kid_self: int
    kid_peer: int
    sid: str = ""
    rid: str = ""


def _xor16(a: bytes, b: bytes) -> bytes:
    return bytes(x ^ y for x, y in zip(a, b))


def v1_derive(pms: cs.SharedSecret, salt: bytes) -> tuple[cs.SymmetricKey, bytes]:
    """Per-message key and IV. IV folds the 32-byte digest into one block."""
    if len(salt) != 8:
        raise ValueError(f"v1 salt must be 8 bytes, got {len(salt)}")
    k_e = cs.digest_kdf(pms, salt, b"Key")
    iv_full = cs.digest_kdf(pms, salt, b"IV")
    return cs.SymmetricKey(k_e), _xor16(iv_full[:16], iv_full[16:])


def v1_mac(k_e: cs.SymmetricKey, ciphertext: bytes) -> bytes:
    h = cs.hash(ciphertext)
    return cs.ecb_encrypt_block(k_e, _xor16(h[:16], h[16:]))


def v1_establish(self_secret: cs.GroupScalar, peer_public: cs.GroupElement,
                 kid_self: int, kid_peer: int,
                 sid: str = "", rid: str = "") -> SessionV1:
    return SessionV1(pms=cs.dh(self_secret, peer_public),
                     kid_self=kid_self, kid_peer=kid_peer, sid=sid, rid=rid)


def v1_encrypt(s: SessionV1, ctype: int, m: bytes,
               rng: cs.SeededRng) -> EnvelopeV1:
    salt = rng.token(8)
    k_e, iv = v1_derive(s.pms, salt)
    ciphertext = cs.cbc_encrypt(k_e, iv, m)
    tag = v1_mac(k_e, ciphertext)
    return EnvelopeV1(vers=VERS_V1, ctype=ctype, salt=salt,
                      ciphertext=ciphertext, tag=tag,
                      kid_sender=s.kid_self, kid_receiver=s.kid_peer)


def v1_decrypt(s: SessionV1, e: EnvelopeV1) -> bytes:
    """MAC is checked before any decryption work; order matters here."""
    k_e, iv = v1_derive(s.pms, e.salt)
    if not compare_digest(v1_mac(k_e, e.ciphertext), e.tag):
        raise MacFailure("v1 tag mismatch")
    return cs.cbc_decrypt(k_e, iv, e.ciphertext)
