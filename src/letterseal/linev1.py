"""First-generation sealing: SHA-256 derived key/IV, AES-CBC, AES-ECB MAC.

Kept as a faithful baseline, weaknesses included: the MAC covers the
ciphertext only (no key ids, version or content type are bound), there is
no replay defense, and one static DH secret drives every message.

The tag is ``AES_k(h)`` with ``h = fold(SHA-256(C))``, under the same key
``k`` that encrypts, where ``fold`` XORs the two digest halves into one
block. Each message therefore takes one AES-256-CBC context from
:func:`letterseal.crypto_suite.aes_cbc` and drives both layers from it;
the PKCS#7 pad and SHA-256 come from the same module, and this one imports
no crypto library. Sealing pads ``m`` and runs the tag block through the
context that produced ``C``: CBC XORs each input with the previous
ciphertext block, so feeding ``h XOR last block of C`` yields exactly
``AES_k(h)``. Opening builds one CBC decryptor with IV ``h`` and feeds it
the tag first. Its output, ``AES_k^-1(tag) XOR h``, is the zero block
exactly when the tag is ``AES_k(h)``, so the tag is checked before any
ciphertext block goes in. ``C`` follows; its first plaintext block came
out chained on the tag in place of the real IV, so it is XORed with
``tag XOR IV``.
"""

from __future__ import annotations

from dataclasses import dataclass
from hmac import compare_digest

from . import crypto_suite as cs
from .errors import MacFailure, PaddingError
from .wire import EnvelopeV1, _check_u8

_ZERO_BLOCK = bytes(16)


@dataclass(frozen=True)
class SessionV1:
    """Static session context; v1 keeps no per-message state at all."""

    pms: cs.SharedSecret
    kid_self: int
    kid_peer: int


def _fold(digest: bytes) -> int:
    """XOR of a 32-byte digest's halves, as a 128-bit big-endian integer."""
    return (int.from_bytes(digest[:16], "big")
            ^ int.from_bytes(digest[16:], "big"))


def v1_derive(pms: cs.SharedSecret, salt: bytes) -> tuple[cs.SymmetricKey, bytes]:
    """Per-message key and IV. IV folds the 32-byte digest into one block."""
    if len(salt) != 8:
        raise ValueError(f"v1 salt must be 8 bytes, got {len(salt)}")
    k_e = cs._digest_kdf_raw(pms, salt, b"Key")
    iv = _fold(cs._digest_kdf_raw(pms, salt, b"IV")).to_bytes(16, "big")
    return cs.SymmetricKey.unchecked(k_e), iv


def v1_establish(self_secret: cs.GroupScalar, peer_public: cs.GroupElement,
                 kid_self: int, kid_peer: int,
                 sid: str = "", rid: str = "") -> SessionV1:
    """The static session. sid and rid are taken as every static design's
    set-up takes them, and dropped: v1 binds neither, on the wire or in
    its tag."""
    return SessionV1(pms=cs.dh(self_secret, peer_public),
                     kid_self=kid_self, kid_peer=kid_peer)


def v1_encrypt(s: SessionV1, ctype: int, m: bytes,
               rng: cs.SeededRng) -> EnvelopeV1:
    _check_u8(ctype, "ctype")  # before the salt draw
    salt = rng.token(8)
    k_e, iv = v1_derive(s.pms, salt)
    cbc = cs.aes_cbc(k_e, iv).encryptor()
    ciphertext = cbc.update(cs.pkcs7_pad(m))
    # one more CBC block, chained on C's last block, is the ECB tag
    h = _fold(cs.hash(ciphertext))
    last = int.from_bytes(ciphertext[-16:], "big")
    tag = cbc.update((h ^ last).to_bytes(16, "big"))
    cs.emit_message_key(k_e)
    return EnvelopeV1(ctype=ctype, salt=salt,
                      ciphertext=ciphertext, tag=tag,
                      kid_sender=s.kid_self, kid_receiver=s.kid_peer)


def v1_decrypt(s: SessionV1, e: EnvelopeV1) -> bytes:
    """The tag is checked before any ciphertext block is decrypted; order
    matters here."""
    k_e, iv = v1_derive(s.pms, e.salt)
    ct = e.ciphertext
    h = _fold(cs.hash(ct)).to_bytes(16, "big")
    cbc = cs.aes_cbc(k_e, h).decryptor()
    if not compare_digest(cbc.update(e.tag), _ZERO_BLOCK):
        raise MacFailure("v1 tag mismatch")
    if not ct or len(ct) % 16:
        raise PaddingError("CBC ciphertext must be a positive block multiple")
    data = cbc.update(ct)
    # the first block was chained on the tag, not on the IV
    first = (int.from_bytes(data[:16], "big") ^ int.from_bytes(e.tag, "big")
             ^ int.from_bytes(iv, "big"))
    data = first.to_bytes(16, "big") + data[16:]
    pad = data[-1]
    if not 1 <= pad <= 16 or data[-pad:] != bytes((pad,)) * pad:
        raise PaddingError("malformed PKCS#7 padding")
    cs.emit_message_key(k_e)
    return data[:-pad]
