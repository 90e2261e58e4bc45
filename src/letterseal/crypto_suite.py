"""Primitive layer: X25519, SHA-256, HKDF/HMAC-SHA256, AES-256 GCM/CBC/ECB.

All operations are pure functions of their inputs. The only stateful object
is :class:`SeededRng`, an injectable deterministic byte source. It keeps no
history of its draws: a harness that reveals randomness collects the draws
it needs through a scope, so a long-lived rng stays a fixed size.

Instrumentation has one path, a process-wide list of open scopes (the
package starts no thread; the game and the benchmark are single-threaded).
Every scope is a ``with`` block: it pushes itself on entry and pops itself
on exit. A :func:`count_ops` scope tallies DH-class, KDF-class and AEAD
operations; a DH-class operation is one key generation or one exchange,
however many scalar multiplications it takes. A :class:`Recorder` scope
collects the message key of each successful v2 or ratchet encrypt and
decrypt, and every rng draw; only the key-indistinguishability game opens
one, around each seal and open. Counts never see a key or a draw.

X25519 secrets travel as :class:`GroupScalar` bytes. :func:`dh` takes either
such a scalar or the OpenSSL key object built from it
(:func:`dh_private_key`, or the third value of :func:`dh_keygen_with_key`).
Building the object costs a scalar multiplication of its own, so a caller
that exchanges with one secret more than once holds the object; nothing in
this module caches one.

Every HMAC is RFC 2104 written out over ``hashlib``: :func:`_hmac_key`
absorbs a key's inner and outer pads into two SHA-256 states once, and
:func:`_hmac` copies both for each message. A chain step keys once for its
two messages and the root derivation once per HKDF stage. OpenSSL 3.0's
one-shot HMAC looks the algorithm up again on every call, which cost about
a third of a chain step. :func:`cbc_encrypt` and :func:`ecb_encrypt_block`
are single-call forms for the known-answer vectors; v1 sealing drives one
cipher context per message itself (see :mod:`letterseal.linev1`), and
both import the cipher classes by name, so ``cryptography``'s
deprecated-name hook runs once, at import.

Derived values are built unchecked; outside values go through the checked
constructor. Each typed-bytes class checks its length when called, and
its ``unchecked`` constructor builds the same type without the check. Only
the protocol layer and this module call ``unchecked``, and only on a value
whose length holds by construction: a SHA-256 or HMAC output, or a nonce of
8 packed bytes and 4 zeros. Bytes from an envelope, a snapshot, the
directory, a known-answer file or a caller take the checked constructor.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import partial

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives import padding as _padding
from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
)
from cryptography.hazmat.primitives.ciphers import Cipher
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from cryptography.hazmat.primitives.ciphers.algorithms import AES
from cryptography.hazmat.primitives.ciphers.modes import CBC, ECB

from .errors import AuthFailure, DhError

ROOT_KDF_INFO = b"LINEvDR-root"
ZERO_SALT = b"\x00" * 32


class _FixedBytes(bytes):
    """Bytes of one fixed length. ``__slots__`` is empty here and in every
    subclass, so a value carries no instance ``__dict__``."""

    __slots__ = ()
    SIZE = 0

    def __init_subclass__(cls):
        super().__init_subclass__()
        # the same type without the length check (module docstring)
        cls.unchecked = partial(bytes.__new__, cls)

    def __new__(cls, data):
        self = super().__new__(cls, data)
        if len(self) != cls.SIZE:
            raise ValueError(
                f"{cls.__name__} must be {cls.SIZE} bytes, got {len(self)}")
        return self


class GroupScalar(_FixedBytes):
    """32-byte X25519 secret scalar, stored in clamped form by dh_keygen."""
    __slots__ = ()
    SIZE = 32


class GroupElement(_FixedBytes):
    """32-byte X25519 public group element."""
    __slots__ = ()
    SIZE = 32


class SharedSecret(_FixedBytes):
    """32-byte Diffie-Hellman output."""
    __slots__ = ()
    SIZE = 32


class SymmetricKey(_FixedBytes):
    """32-byte symmetric key (root, chain, message, or session key)."""
    __slots__ = ()
    SIZE = 32


class Digest(_FixedBytes):
    """32-byte SHA-256 output."""
    __slots__ = ()
    SIZE = 32


class AeadNonce(_FixedBytes):
    """12-byte AES-GCM nonce; built only by the protocol nonce builders."""
    __slots__ = ()
    SIZE = 12


# ---------------------------------------------------------------------------
# Instrumentation scopes: operation counts, message keys and draws
# ---------------------------------------------------------------------------

# open scopes, innermost last; emitters return at once while it is empty
_scopes: list = []


class _Scope:
    """A ``with`` block that keeps this scope open for the enclosed calls."""

    def __enter__(self):
        _scopes.append(self)
        return self

    def __exit__(self, *exc_info):
        _scopes.pop()


@dataclass
class OpCounts(_Scope):
    dh: int = 0
    kdf: int = 0
    aead: int = 0


class Recorder(_Scope):
    """Scope that collects each message key and rng draw, in order."""

    def __init__(self):
        self.keys: list[SymmetricKey] = []
        self.draws: list[bytes] = []


def count_ops() -> OpCounts:
    """Collect DH/KDF/AEAD operation counts for the enclosed calls."""
    return OpCounts()


def _bump(field: str) -> None:
    if not _scopes:
        return
    for scope in _scopes:
        if isinstance(scope, OpCounts):
            setattr(scope, field, getattr(scope, field) + 1)


def emit_message_key(mk: SymmetricKey) -> None:
    """Hand the key of a successful encrypt or decrypt to open recorders."""
    if not _scopes:
        return
    for scope in _scopes:
        if isinstance(scope, Recorder):
            scope.keys.append(mk)


# ---------------------------------------------------------------------------
# Seeded randomness
# ---------------------------------------------------------------------------

class SeededRng:
    """Deterministic byte source: SHA-256 in counter mode over a seed.

    The rng keeps no draws, only how many it made (:meth:`mark`). Each draw
    goes to the open :class:`Recorder` scopes, so a harness attributes
    and reveals per-stage randomness by recording around the calls.
    """

    def __init__(self, seed: int | bytes):
        if isinstance(seed, int):
            seed = seed.to_bytes(max(1, (seed.bit_length() + 7) // 8), "big")
        self._state = hashlib.sha256(b"letterseal-rng" + seed).digest()
        self._counter = 0
        self._draws = 0

    def token(self, n: int) -> bytes:
        if n <= 32:
            out = hashlib.sha256(
                self._state + self._counter.to_bytes(8, "big")).digest()[:n]
            self._counter += 1
        else:
            out = b""
            while len(out) < n:
                out += hashlib.sha256(
                    self._state + self._counter.to_bytes(8, "big")).digest()
                self._counter += 1
            out = out[:n]
        self._draws += 1
        if _scopes:
            for scope in _scopes:
                if isinstance(scope, Recorder):
                    scope.draws.append(out)
        return out

    def fork(self, label: bytes) -> "SeededRng":
        """Independent child stream, domain-separated by label."""
        return SeededRng(hashlib.sha256(self._state + b"fork" + label).digest())

    def mark(self) -> int:
        """How many draws this rng has made."""
        return self._draws


# ---------------------------------------------------------------------------
# Diffie-Hellman
# ---------------------------------------------------------------------------

def clamp_scalar(raw: bytes) -> GroupScalar:
    if len(raw) != GroupScalar.SIZE:
        raise ValueError(
            f"clamp_scalar needs {GroupScalar.SIZE} bytes, got {len(raw)}")
    b = bytearray(raw)
    b[0] &= 248
    b[31] &= 127
    b[31] |= 64
    return GroupScalar(bytes(b))


def dh_private_key(secret: GroupScalar) -> X25519PrivateKey:
    """OpenSSL key object for a scalar. Building it derives the public key,
    one scalar multiplication; callers that exchange with the same secret
    more than once build it once and pass it to :func:`dh`."""
    return X25519PrivateKey.from_private_bytes(secret)


def dh_keygen_with_key(
        rng: SeededRng) -> tuple[GroupScalar, GroupElement, X25519PrivateKey]:
    """:func:`dh_keygen` plus the key object it built for the public key."""
    _bump("dh")
    scalar = clamp_scalar(rng.token(32))
    key = dh_private_key(scalar)
    return scalar, GroupElement(key.public_key().public_bytes_raw()), key


def dh_keygen(rng: SeededRng) -> tuple[GroupScalar, GroupElement]:
    """Fresh X25519 key pair from the injected randomness source."""
    scalar, pub, _ = dh_keygen_with_key(rng)
    return scalar, pub


def dh_to_public(secret: GroupScalar) -> GroupElement:
    return GroupElement(dh_private_key(secret).public_key().public_bytes_raw())


def dh(secret: GroupScalar | X25519PrivateKey,
       peer: GroupElement) -> SharedSecret:
    """X25519 exchange; rejects the all-zero output of low-order points.

    ``secret`` is a scalar or the key object built from one; a scalar is
    turned into its key object first."""
    _bump("dh")
    try:
        if isinstance(secret, bytes):
            secret = dh_private_key(secret)
        shared = secret.exchange(X25519PublicKey.from_public_bytes(peer))
    except ValueError as exc:
        raise DhError(str(exc)) from exc
    if shared == b"\x00" * 32:
        raise DhError("all-zero shared secret (low-order peer point)")
    return SharedSecret(shared)


# ---------------------------------------------------------------------------
# Hashing and key derivation
# ---------------------------------------------------------------------------

def hash(data: bytes) -> Digest:  # noqa: A001 - module-scoped name is the contract
    return Digest(hashlib.sha256(data).digest())


def _digest_kdf_raw(secret: bytes, salt: bytes, label: bytes) -> bytes:
    # shared body so callers can wrap the output in their own key type
    # without paying for an intermediate Digest
    _bump("kdf")
    return hashlib.sha256(secret + salt + label).digest()


def digest_kdf(secret: bytes, salt: bytes, label: bytes) -> Digest:
    """Hash-based derivation SHA-256(secret || salt || label); KDF-class."""
    return Digest(_digest_kdf_raw(secret, salt, label))


# HMAC-SHA256 per RFC 2104 over SHA-256's 64-byte block; translate()
# XORs every key byte with the inner (0x36) or outer (0x5C) pad byte
_HMAC_BLOCK = 64
_IPAD = bytes(x ^ 0x36 for x in range(256))
_OPAD = bytes(x ^ 0x5C for x in range(256))


def _hmac_key(key: bytes) -> tuple:
    """A key's inner and outer pads absorbed into two SHA-256 states.

    The key is hashed first if longer than a block and zero-padded to one.
    The pair is keyed once; :func:`_hmac` copies it per message."""
    if len(key) > _HMAC_BLOCK:
        key = hashlib.sha256(key).digest()
    key = key.ljust(_HMAC_BLOCK, b"\x00")
    return (hashlib.sha256(key.translate(_IPAD)),
            hashlib.sha256(key.translate(_OPAD)))


def _hmac(keyed: tuple, msg: bytes) -> bytes:
    """HMAC-SHA256 of msg under a pair from :func:`_hmac_key`."""
    inner, outer = keyed
    inner = inner.copy()
    inner.update(msg)
    outer = outer.copy()
    outer.update(inner.digest())
    return outer.digest()


def kdf_root(ikm: bytes, salt: bytes) -> tuple[SymmetricKey, SymmetricKey]:
    """HKDF-SHA256 (extract with salt, expand 64 bytes) -> (root, chain)."""
    if not ikm:
        raise ValueError("kdf_root requires non-empty input key material")
    _bump("kdf")
    prk = _hmac(_hmac_key(salt if salt else ZERO_SALT), ikm)
    keyed = _hmac_key(prk)
    t1 = _hmac(keyed, ROOT_KDF_INFO + b"\x01")
    t2 = _hmac(keyed, t1 + ROOT_KDF_INFO + b"\x02")
    return SymmetricKey.unchecked(t1), SymmetricKey.unchecked(t2)


def kdf_chain(ck: SymmetricKey) -> tuple[SymmetricKey, SymmetricKey]:
    """One symmetric ratchet step -> (message key, next chain key)."""
    _bump("kdf")
    keyed = _hmac_key(ck)
    return (SymmetricKey.unchecked(_hmac(keyed, b"\x01")),
            SymmetricKey.unchecked(_hmac(keyed, b"\x02")))


# ---------------------------------------------------------------------------
# AEAD and block-cipher modes
# ---------------------------------------------------------------------------

def aead_seal(key: SymmetricKey, nonce: AeadNonce, plaintext: bytes,
              ad: bytes) -> bytes:
    """AES-256-GCM; returns ciphertext with the 16-byte tag appended."""
    _bump("aead")
    return AESGCM(key).encrypt(nonce, plaintext, ad)


def aead_open(key: SymmetricKey, nonce: AeadNonce, ciphertext_and_tag: bytes,
              ad: bytes) -> bytes:
    if len(ciphertext_and_tag) < 16:
        raise AuthFailure("ciphertext shorter than the GCM tag")
    _bump("aead")
    try:
        return AESGCM(key).decrypt(nonce, ciphertext_and_tag, ad)
    except InvalidTag as exc:
        raise AuthFailure("GCM tag verification failed") from exc


def cbc_encrypt(key: SymmetricKey, iv16: bytes, plaintext: bytes) -> bytes:
    if len(iv16) != 16:
        raise ValueError("CBC IV must be 16 bytes")
    padder = _padding.PKCS7(128).padder()
    data = padder.update(plaintext) + padder.finalize()
    enc = Cipher(AES(key), CBC(iv16)).encryptor()
    return enc.update(data) + enc.finalize()


def ecb_encrypt_block(key: SymmetricKey, block16: bytes) -> bytes:
    if len(block16) != 16:
        raise ValueError("ECB block must be exactly 16 bytes")
    enc = Cipher(AES(key), ECB()).encryptor()
    return enc.update(block16) + enc.finalize()
