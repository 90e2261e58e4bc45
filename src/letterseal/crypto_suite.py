"""Primitive layer: X25519, SHA-256, HKDF/HMAC-SHA256, AES-256 GCM/CBC/ECB.

All operations are pure functions of their inputs. The only stateful object
is :class:`SeededRng`, an injectable deterministic byte source. It keeps no
history of its draws: a harness that reveals randomness collects the draws
it needs through a scope, so a long-lived rng stays a fixed size.

Instrumentation has one path per kind of scope: a process-wide list of
the open scopes of that kind (the package starts no thread; the game and
the benchmark are single-threaded). Every scope is a ``with`` block: it
pushes itself on its kind's list on entry and pops itself on exit, and
each emitter walks only its own kind's list. A :func:`count_ops` scope
tallies DH-class, KDF-class and AEAD operations; a DH-class operation is
one key generation or one exchange, however many scalar multiplications
it takes. A :class:`Recorder` scope collects the message key of each
successful v1, v2 or ratchet encrypt and decrypt, and every rng draw; only
the key-indistinguishability game opens one, around each seal and open.
Counts never see a key or a draw: they sit on another list.

X25519 secrets travel as :class:`GroupScalar` bytes. :func:`dh` takes either
such a scalar or the OpenSSL key object built from it
(:func:`dh_private_key`), and :func:`dh_key` turns either form into the
object. Building the object costs a scalar multiplication of its own, so
a secret that exchanges more than once is held as a :class:`KeyPair`:
scalar, public and object, built together by :func:`key_pair`,
:func:`dh_keygen_with_key` or :func:`dh_keygen_from`. Only this module
builds a pair, so its three forms cannot disagree. A pair's scalar holds
the pair's object as well, so the scalar :func:`dh_keygen` returns
exchanges with no build wherever it is handed. A scalar rebuilt from
stored bytes (``GroupScalar(b)``, :func:`clamp_scalar`, a snapshot import,
a scalar the game's key closure learns) holds nothing, and :func:`dh_key`
builds its object. Key objects have one rule: the owner of a secret
builds its pair once, when it first needs the object, and holds it (a
ratchet state its ephemeral: at set-up, at import, or, for a reply scalar
an open drew with :func:`dh_draw_secret`, at the first seal or export of
that epoch; a party its long-term key, as the keygen's scalar; the game's
key closure each scalar it learns). Nothing caches an object by value:
the object travels only with the scalar its pair returned.

Every HMAC is RFC 2104 written out over ``hashlib``: :func:`_hmac_key`
absorbs a key's inner and outer pads into two SHA-256 states once, and
:func:`_hmac` copies both for each message. A chain step keys once for its
two messages and the root derivation once per HKDF stage. OpenSSL 3.0's
one-shot HMAC looks the algorithm up again on every call, which cost about
a third of a chain step.

No other package module imports ``cryptography`` or ``hashlib``. Every
AES-CBC context comes from :func:`aes_cbc`, one per message: v1 seals and
opens through it (see :mod:`letterseal.linev1`). :func:`cbc_encrypt` pads
with :func:`pkcs7_pad` and makes one call of it, and
:func:`ecb_encrypt_block` encrypts its one block under a zero IV, so the
known-answer vectors check the cipher path v1 runs. The cipher classes
are imported by name, so ``cryptography``'s deprecated-name hook runs
once, at import.

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
from dataclasses import dataclass, field
from functools import partial

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
)
from cryptography.hazmat.primitives.ciphers import Cipher
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from cryptography.hazmat.primitives.ciphers.algorithms import AES
from cryptography.hazmat.primitives.ciphers.modes import CBC

from .errors import AuthFailure, DhError

ROOT_KDF_INFO = b"LINEvDR-root"
ZERO_SALT = b"\x00" * 32
_ZERO_IV = bytes(16)


class _FixedBytes(bytes):
    """Bytes of one fixed length. ``__slots__`` is empty here and in every
    subclass, so a value carries no instance ``__dict__``; only a pair's
    scalar (:class:`_HeldScalar`) carries one, for its key object."""

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


class _HeldScalar(GroupScalar):
    """The scalar of a pair :func:`key_pair` built, holding that pair's key
    object as ``key``. No ``__slots__``: a bytes subclass cannot slot an
    attribute, so the object sits in the instance ``__dict__``. Its bytes,
    copied into a :class:`GroupScalar`, hold nothing."""


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

# the open scopes of each kind, innermost last; an emitter walks only its
# kind's list, so with none open it finds an empty list
_counting: list = []
_recording: list = []


class _Scope:
    """A ``with`` block that keeps this scope open for the enclosed calls,
    on the list its class names as ``_open``."""

    def __enter__(self):
        self._open.append(self)
        return self

    def __exit__(self, *exc_info):
        self._open.pop()


@dataclass
class OpCounts(_Scope):
    _open = _counting
    dh: int = 0
    kdf: int = 0
    aead: int = 0


class Recorder(_Scope):
    """Scope that collects each message key and rng draw, in order."""

    _open = _recording

    def __init__(self):
        self.keys: list[SymmetricKey] = []
        self.draws: list[bytes] = []


def count_ops() -> OpCounts:
    """Collect DH/KDF/AEAD operation counts for the enclosed calls."""
    return OpCounts()


def _bump(field: str) -> None:
    for scope in _counting:
        setattr(scope, field, getattr(scope, field) + 1)


def emit_message_key(mk: SymmetricKey) -> None:
    """Hand the key of a successful encrypt or decrypt to open recorders."""
    for scope in _recording:
        scope.keys.append(mk)


# ---------------------------------------------------------------------------
# Seeded randomness
# ---------------------------------------------------------------------------

class SeededRng:
    """Deterministic byte source: SHA-256 in counter mode over a seed.

    The rng keeps no history, only its stream position. Each draw goes to
    the open :class:`Recorder` scopes, so a harness attributes and reveals per-stage
    randomness by recording around the calls.
    """

    def __init__(self, seed: int | bytes):
        if isinstance(seed, int):
            if seed < 0:
                raise ValueError(f"seed must be non-negative, got {seed}")
            seed = seed.to_bytes(max(1, (seed.bit_length() + 7) // 8), "big")
        self._state = hashlib.sha256(b"letterseal-rng" + seed).digest()
        self._counter = 0

    def token(self, n: int) -> bytes:
        if n < 0:
            raise ValueError(f"token length must be non-negative, got {n}")
        if n <= 32:
            out = hashlib.sha256(
                self._state + self._counter.to_bytes(8, "big")).digest()[:n]
            self._counter += 1
        else:
            first = self._counter
            self._counter += -(-n // 32)  # one counter per 32-byte block
            out = b"".join(
                hashlib.sha256(self._state + k.to_bytes(8, "big")).digest()
                for k in range(first, self._counter))[:n]
        for scope in _recording:
            scope.draws.append(out)
        return out

    def fork(self, label: bytes) -> "SeededRng":
        """Independent child stream, domain-separated by label."""
        return SeededRng(hashlib.sha256(self._state + b"fork" + label).digest())


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


def dh_key(secret: GroupScalar | X25519PrivateKey) -> X25519PrivateKey:
    """The key object of either form of a secret, as :func:`dh` takes it:
    a pair's scalar gives the object it holds, any other scalar builds
    one, and an object is returned as itself."""
    if isinstance(secret, _HeldScalar):
        return secret.key
    if isinstance(secret, bytes):
        return dh_private_key(secret)
    return secret


@dataclass(frozen=True, slots=True)
class KeyPair:
    """A scalar, its public and its key object, built by :func:`key_pair`.

    The object compares by identity, so equality reads the scalar and the
    public alone."""
    secret: GroupScalar
    public: GroupElement
    key: X25519PrivateKey = field(repr=False, compare=False)


def key_pair(secret: GroupScalar) -> KeyPair:
    """The pair of a scalar: one key object, its public read off it, and
    a copy of the scalar that holds the object."""
    key = dh_private_key(secret)
    held = _HeldScalar(secret)
    held.key = key
    return KeyPair(held, GroupElement(key.public_key().public_bytes_raw()),
                   key)


def dh_draw_secret(rng: SeededRng) -> GroupScalar:
    """A fresh clamped scalar from the injected randomness source: the
    draw of a key generation whose pair :func:`dh_keygen_from` builds."""
    return clamp_scalar(rng.token(32))


def dh_keygen_from(secret: GroupScalar) -> KeyPair:
    """The pair of a drawn scalar, counted as its key generation."""
    _bump("dh")
    return key_pair(secret)


def dh_keygen_with_key(rng: SeededRng) -> KeyPair:
    """Fresh X25519 key pair from the injected randomness source."""
    return dh_keygen_from(dh_draw_secret(rng))


def dh_keygen(rng: SeededRng) -> tuple[GroupScalar, GroupElement]:
    """:func:`dh_keygen_with_key`'s (scalar, public); the scalar holds the
    pair's key object."""
    pair = dh_keygen_with_key(rng)
    return pair.secret, pair.public


def dh_to_public(secret: GroupScalar) -> GroupElement:
    return key_pair(secret).public


def dh(secret: GroupScalar | X25519PrivateKey,
       peer: GroupElement) -> SharedSecret:
    """X25519 exchange; rejects the all-zero output of low-order points.

    ``secret`` is a scalar or the key object built from one; a scalar is
    turned into its key object first."""
    _bump("dh")
    try:
        shared = dh_key(secret).exchange(
            X25519PublicKey.from_public_bytes(peer))
    except ValueError as exc:
        raise DhError(str(exc)) from exc
    if shared == b"\x00" * 32:
        raise DhError("all-zero shared secret (low-order peer point)")
    return SharedSecret(shared)


# ---------------------------------------------------------------------------
# Hashing and key derivation
# ---------------------------------------------------------------------------

def hash(data: bytes) -> Digest:  # noqa: A001 - module-scoped name is the contract
    return Digest.unchecked(hashlib.sha256(data).digest())


def _digest_kdf_raw(secret: bytes, salt: bytes, label: bytes) -> bytes:
    # shared body so callers can wrap the output in their own key type
    # without paying for an intermediate Digest
    _bump("kdf")
    return hashlib.sha256(secret + salt + label).digest()


def digest_kdf(secret: bytes, salt: bytes, label: bytes) -> Digest:
    """Hash-based derivation SHA-256(secret || salt || label); KDF-class."""
    return Digest.unchecked(_digest_kdf_raw(secret, salt, label))


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
    prk = _hmac(_hmac_key(salt), ikm)
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


def aes_cbc(key: SymmetricKey, iv: bytes) -> Cipher:
    """AES-256-CBC under key and a 16-byte IV, for one message: the one
    place a block cipher is built. Callers take its encryptor or decryptor
    and feed whole blocks. Each context counts as one aead operation."""
    _bump("aead")
    return Cipher(AES(key), CBC(iv))


def pkcs7_pad(data: bytes) -> bytes:
    """PKCS#7 to the 16-byte block: 1 to 16 bytes, each the pad length."""
    pad = 16 - len(data) % 16
    return data + bytes((pad,)) * pad


def cbc_encrypt(key: SymmetricKey, iv16: bytes, plaintext: bytes) -> bytes:
    if len(iv16) != 16:
        raise ValueError("CBC IV must be 16 bytes")
    return aes_cbc(key, iv16).encryptor().update(pkcs7_pad(plaintext))


def ecb_encrypt_block(key: SymmetricKey, block16: bytes) -> bytes:
    if len(block16) != 16:
        raise ValueError("ECB block must be exactly 16 bytes")
    # one block under a zero IV is the ECB block
    return aes_cbc(key, _ZERO_IV).encryptor().update(block16)
