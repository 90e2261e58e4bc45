"""Bit-exact codec for protocol envelopes.

The field *lists* come from the protocols; the byte layout here is pinned by
this library so golden fixtures are reproducible: all integers big-endian,
variable fields length-prefixed (u16 for identity strings, u32 for
ciphertexts), fixed fields raw. Envelope version bytes are 1, 2 and 3.

Each layout is declared once. A ``_Run`` names a run of fixed-width fields
and packs or reads it with one precompiled struct; a format is its runs,
split at its variable-length fields, and its encoder and decoder use the
same runs. That holds for both byte formats: envelopes and the ratchet
snapshot (``linevdr``), and for the bytes the protocols and the game pack
besides them: associated data, nonce material and v2's RevState. Runs
added with ``+`` make one run of their fields in order; the snapshot's
exporter packs its head, set optional fields and tail with one such run
per flag value. Only this module imports ``struct``. ``_Run.read`` is
the only place that unpacks bytes, and ``_take`` the only place that
slices a variable field, so every truncation is reported the same way,
by the field it cuts. Both decoders, ``decode_envelope`` and the
snapshot's ``vdr_import_state``, keep explicit positions and call the two
directly.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import ClassVar

from .errors import ParseError

VERS_V1 = 1
VERS_V2 = 2
VERS_VDR = 3


# ---------------------------------------------------------------------------
# Envelope types
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class EnvelopeV1:
    """CBC+MAC envelope: vers, ctype, salt, C, tag, key ids."""

    ctype: int
    salt: bytes
    ciphertext: bytes
    tag: bytes
    kid_sender: int
    kid_receiver: int
    vers: ClassVar[int] = VERS_V1

    def __post_init__(self):
        if len(self.salt) != 8:
            raise ValueError("EnvelopeV1 salt must be 8 bytes")
        if len(self.tag) != 16:
            raise ValueError("EnvelopeV1 tag must be 16 bytes")
        if not self.ciphertext or len(self.ciphertext) % 16:
            raise ValueError("EnvelopeV1 ciphertext must be a positive multiple of 16")
        _check_u8(self.ctype, "ctype")
        _check_u32(self.kid_sender, "kid_sender")
        _check_u32(self.kid_receiver, "kid_receiver")


@dataclass(slots=True)
class EnvelopeV2:
    """AES-GCM envelope with identity strings and an 8-byte nonce seed."""

    ctype: int
    salt: bytes
    ciphertext: bytes
    nonce_material: bytes
    kid_sender: int
    kid_receiver: int
    sid: str
    rid: str
    vers: ClassVar[int] = VERS_V2

    def __post_init__(self):
        if len(self.salt) != 16:
            raise ValueError("EnvelopeV2 salt must be 16 bytes")
        if len(self.nonce_material) != 8:
            raise ValueError("EnvelopeV2 nonce_material must be 8 bytes")
        if len(self.ciphertext) < 16:
            raise ValueError("EnvelopeV2 ciphertext must include the 16-byte tag")
        _check_u8(self.ctype, "ctype")
        _check_u32(self.kid_sender, "kid_sender")
        _check_u32(self.kid_receiver, "kid_receiver")
        _check_length(self.sid, "identity string sid")
        _check_length(self.rid, "identity string rid")

    @property
    def counter(self) -> int:
        return int.from_bytes(self.nonce_material[:4], "big")


@dataclass(slots=True)
class EnvelopeVDR:
    """Ratchet envelope: carries the sender ephemeral and both chain indices.

    The asymmetric index i rides in the first four bytes of nonce_material
    (the counter slot); only j gets a dedicated field.
    """

    ctype: int
    ciphertext: bytes
    nonce_material: bytes
    kid_sender: int
    kid_receiver: int
    eph_pub: bytes
    j_index: int
    vers: ClassVar[int] = VERS_VDR

    def __post_init__(self):
        if len(self.eph_pub) != 32:
            raise ValueError("EnvelopeVDR eph_pub must be 32 bytes")
        if len(self.nonce_material) != 8:
            raise ValueError("EnvelopeVDR nonce_material must be 8 bytes")
        if len(self.ciphertext) < 16:
            raise ValueError("EnvelopeVDR ciphertext must include the 16-byte tag")
        _check_u8(self.ctype, "ctype")
        _check_u32(self.kid_sender, "kid_sender")
        _check_u32(self.kid_receiver, "kid_receiver")
        _check_u32(self.j_index, "j_index")

    @property
    def i_index(self) -> int:
        return int.from_bytes(self.nonce_material[:4], "big")


Envelope = EnvelopeV1 | EnvelopeV2 | EnvelopeVDR


def _check_u8(value: int, name: str) -> None:
    if not 0 <= value <= 0xFF:
        raise ValueError(f"{name} out of u8 range: {value}")


def _check_u32(value: int, name: str) -> None:
    if not 0 <= value <= 0xFFFFFFFF:
        raise ValueError(f"{name} out of u32 range: {value}")


def _check_length(value: str, name: str) -> None:
    """An identity string fits its u16 length prefix. It must encode, and
    counts its UTF-8 bytes: at most 4 per character, and one for ASCII, so
    a short ASCII string, the common case, is never encoded."""
    n = len(value)
    if n > 0xFFFF // 4 or not value.isascii():
        try:
            n = len(value.encode())
        except UnicodeEncodeError as exc:
            raise ValueError(f"{name} does not encode as UTF-8: {exc.reason} "
                             f"at index {exc.start}") from None
    if n > 0xFFFF:
        raise ValueError(f"{name} is {n} bytes, over its length prefix "
                         "limit of 65535")


# ---------------------------------------------------------------------------
# Layouts: fixed-width runs and the checked slice for variable fields
# ---------------------------------------------------------------------------

class _Run:
    """A run of fixed-width fields, read or written with one precompiled
    struct. A buffer too short for the run is reported by the field it cuts.
    """

    def __init__(self, *fields: tuple[str, str]):
        self.declared = fields
        self.struct = struct.Struct(">" + "".join(code for _, code in fields))
        self.size = self.struct.size
        self.pack = self.struct.pack
        self.fields = tuple((name, struct.calcsize(">" + code))
                            for name, code in fields)

    def __add__(self, other: _Run) -> _Run:
        """One run of this run's fields followed by other's."""
        return _Run(*self.declared, *other.declared)

    def read(self, data: bytes, pos: int) -> tuple:
        try:
            return self.struct.unpack_from(data, pos)
        except struct.error:
            raise _cut(data, pos, self.fields) from None


def _cut(data: bytes, pos: int, fields) -> ParseError:
    """The error for a buffer that ends inside ``fields``, read from pos."""
    for name, n in fields:
        if pos + n > len(data):
            break
        pos += n
    return ParseError(f"truncated while reading {name}: "
                      f"need {n} bytes at offset {pos}, have {len(data) - pos}")


def _take(data: bytes, pos: int, n: int, fieldname: str) -> bytes:
    chunk = data[pos:pos + n]
    if len(chunk) != n:
        raise _cut(data, pos, ((fieldname, n),))
    return chunk


def _utf8(raw: bytes, fieldname: str) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{fieldname} is not valid UTF-8") from exc


# ---------------------------------------------------------------------------
# Envelope codec
# ---------------------------------------------------------------------------

# each family's layout, split at its variable-length fields
_V1_HEAD = _Run(("vers", "B"), ("ctype", "B"), ("salt", "8s"),
                ("kid_sender", "I"), ("kid_receiver", "I"),
                ("ciphertext length", "I"))
_V2_HEAD = _Run(("vers", "B"), ("ctype", "B"), ("salt", "16s"),
                ("sid length", "H"))
_V2_RID = _Run(("rid length", "H"))
_V2_TAIL = _Run(("kid_sender", "I"), ("kid_receiver", "I"),
                ("nonce_material", "8s"), ("ciphertext length", "I"))
_VDR_HEAD = _Run(("vers", "B"), ("ctype", "B"), ("kid_sender", "I"),
                 ("kid_receiver", "I"), ("eph_pub", "32s"), ("j_index", "I"),
                 ("nonce_material", "8s"), ("ciphertext length", "I"))
# the 8-byte nonce_material of v2 and ratchet envelopes: a u32 (v2's send
# counter, the ratchet's epoch i) and four random bytes
_NONCE_MATERIAL = _Run(("counter", "I"), ("random", "4s"))


def encode_envelope(env: Envelope) -> bytes:
    if isinstance(env, EnvelopeV1):
        return b"".join((
            _V1_HEAD.pack(env.vers, env.ctype, env.salt, env.kid_sender,
                          env.kid_receiver, len(env.ciphertext)),
            env.ciphertext, env.tag))
    if isinstance(env, EnvelopeV2):
        sid = env.sid.encode()
        rid = env.rid.encode()
        return b"".join((
            _V2_HEAD.pack(env.vers, env.ctype, env.salt, len(sid)), sid,
            _V2_RID.pack(len(rid)), rid,
            _V2_TAIL.pack(env.kid_sender, env.kid_receiver,
                          env.nonce_material, len(env.ciphertext)),
            env.ciphertext))
    if isinstance(env, EnvelopeVDR):
        return b"".join((
            _VDR_HEAD.pack(env.vers, env.ctype, env.kid_sender,
                           env.kid_receiver, env.eph_pub, env.j_index,
                           env.nonce_material, len(env.ciphertext)),
            env.ciphertext))
    raise TypeError(f"not an envelope: {type(env).__name__}")


def decode_envelope(data: bytes) -> Envelope:
    if not data:
        raise _cut(data, 0, (("vers", 1),))
    vers = data[0]
    try:
        if vers == VERS_V1:
            _, ctype, salt, kid_sender, kid_receiver, n = _V1_HEAD.read(data, 0)
            pos = _V1_HEAD.size + n
            env = EnvelopeV1(
                ctype=ctype, salt=salt, kid_sender=kid_sender,
                kid_receiver=kid_receiver,
                ciphertext=_take(data, _V1_HEAD.size, n, "ciphertext"),
                tag=_take(data, pos, 16, "tag"))
            pos += 16
        elif vers == VERS_V2:
            _, ctype, salt, n = _V2_HEAD.read(data, 0)
            pos = _V2_HEAD.size
            sid = _utf8(_take(data, pos, n, "sid"), "sid")
            pos += n
            (n,) = _V2_RID.read(data, pos)
            pos += _V2_RID.size
            rid = _utf8(_take(data, pos, n, "rid"), "rid")
            pos += n
            kid_sender, kid_receiver, nonce, n = _V2_TAIL.read(data, pos)
            pos += _V2_TAIL.size
            env = EnvelopeV2(
                ctype=ctype, salt=salt, sid=sid, rid=rid,
                kid_sender=kid_sender, kid_receiver=kid_receiver,
                nonce_material=nonce,
                ciphertext=_take(data, pos, n, "ciphertext"))
            pos += n
        elif vers == VERS_VDR:
            (_, ctype, kid_sender, kid_receiver, eph_pub, j_index, nonce,
             n) = _VDR_HEAD.read(data, 0)
            pos = _VDR_HEAD.size
            env = EnvelopeVDR(
                ctype=ctype, kid_sender=kid_sender, kid_receiver=kid_receiver,
                eph_pub=eph_pub, j_index=j_index, nonce_material=nonce,
                ciphertext=_take(data, pos, n, "ciphertext"))
            pos += n
        else:
            raise ParseError(f"unknown version byte {vers}")
    except ValueError as exc:
        raise ParseError(f"invariant violated while decoding: {exc}") from exc
    if pos != len(data):
        raise ParseError(
            f"{len(data) - pos} trailing bytes after envelope v{vers}")
    return env
