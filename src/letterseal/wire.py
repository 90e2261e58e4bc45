"""Bit-exact codecs for protocol envelopes and observed packet shapes.

The field *lists* come from the protocols; the byte layout here is pinned by
this library so golden fixtures are reproducible: all integers big-endian,
variable fields length-prefixed (u16 for short identity strings, u32 for
ciphertexts), fixed fields raw. Envelope version bytes are 1, 2 and 3;
packets start with a distinct magic byte (0xA0 user, 0xA1 bot) so the two
families cannot be confused.

Each layout is declared once. A ``_Run`` names a run of fixed-width fields
and packs or reads it with one precompiled struct; a format is its runs,
split at its variable-length fields, and its encoder and decoder use the
same runs. That holds for all three byte formats: envelopes, packets and
the ratchet snapshot (``linevdr``), and for the bytes the protocols and the
game pack besides them: associated data, nonce material and v2's RevState.
Only this module imports ``struct``. ``_Run.read`` is the only place that
unpacks bytes, and ``_take`` the only place that slices a variable field,
so every truncation is reported the same way, by the field it cuts.

Packets and snapshots read through ``_Reader``, a cursor over those two.
``decode_envelope`` does not: it runs once per message, so it keeps
explicit positions and calls ``_Run.read`` and ``_take`` directly. A cursor
object there measured about 20% slower per ratchet envelope decode (2.75
against 3.29 us median, interleaved micro-timing on 2 shared vCPUs).
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, field, fields
from typing import ClassVar

from .errors import Ambiguous, ChunkCountError, ParseError

VERS_V1 = 1
VERS_V2 = 2
VERS_VDR = 3

MAGIC_USER_PACKET = 0xA0
MAGIC_BOT_PACKET = 0xA1


class PacketClass(enum.Enum):
    UserE2EE = "user-e2ee"
    BotPlaintext = "bot-plaintext"


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
        _check_length(self.sid, 0xFFFF, "identity string sid")
        _check_length(self.rid, 0xFFFF, "identity string rid")

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


def _check_length(value: bytes | str, limit: int, name: str) -> None:
    """A variable field fits its length prefix. A string must encode, and
    counts its UTF-8 bytes: at most 4 per character, and one for ASCII, so
    a short ASCII string, the common case, is never encoded."""
    n = len(value)
    if isinstance(value, str) and (n > limit // 4 or not value.isascii()):
        try:
            n = len(value.encode())
        except UnicodeEncodeError as exc:
            raise ValueError(f"{name} does not encode as UTF-8: {exc.reason} "
                             f"at index {exc.start}") from None
    if n > limit:
        raise ValueError(f"{name} is {n} bytes, over its length prefix "
                         f"limit of {limit}")


# ---------------------------------------------------------------------------
# Layouts: fixed-width runs and the checked slice for variable fields
# ---------------------------------------------------------------------------

class _Run:
    """A run of fixed-width fields, read or written with one precompiled
    struct. A buffer too short for the run is reported by the field it cuts.
    """

    def __init__(self, *fields: tuple[str, str]):
        self.struct = struct.Struct(">" + "".join(code for _, code in fields))
        self.size = self.struct.size
        self.pack = self.struct.pack
        self.names = tuple(name for name, _ in fields)
        self.fields = tuple((name, struct.calcsize(">" + code))
                            for name, code in fields)

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


class _Reader:
    """Cursor over a byte buffer for the formats with variable-length
    fields; every failure names the field being read."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int, fieldname: str) -> bytes:
        chunk = _take(self.data, self.pos, n, fieldname)
        self.pos += n
        return chunk

    def run(self, layout: _Run) -> tuple:
        values = layout.read(self.data, self.pos)
        self.pos += layout.size
        return values

    def prefixed(self, length: _Run, fieldname: str) -> bytes:
        """A variable field behind its one-field length run."""
        (n,) = self.run(length)
        return self.take(n, fieldname)

    def expect_end(self, what: str) -> None:
        if self.pos != len(self.data):
            raise ParseError(
                f"{len(self.data) - self.pos} trailing bytes after {what}")


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


# ---------------------------------------------------------------------------
# Packet types (observed transport shapes) and codec
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class _PacketHeader:
    """The metadata header every packet carries, fields in wire order."""

    from_: int
    to: int
    to_type: int
    id: int
    created_time: int
    delivered_time: int
    has_content: bool
    content_type: int
    e2ee_version: int
    seq: int
    session_id: int

    def __post_init__(self):
        for name, kind, lo, hi in _HEADER_INTS:
            value = getattr(self, name)
            if not lo <= value <= hi:
                raise ValueError(f"{name} out of {kind} range: {value}")


@dataclass(slots=True)
class PacketMeta(_PacketHeader):
    """User-conversation packet: metadata header plus opaque chunk list."""

    chunks: tuple[bytes, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if len(self.chunks) > 0xFF:
            raise ValueError("chunk count exceeds u8")
        for i, chunk in enumerate(self.chunks):
            _check_length(chunk, 0xFFFFFFFF, f"chunk[{i}]")
        _PacketHeader.__post_init__(self)


@dataclass(slots=True)
class BotPacket(_PacketHeader):
    """Bot-conversation packet: same header, plaintext body, no chunks."""

    bot_tag2: bytes = b""
    bot_origin: str = ""
    bot_check: bool = False
    bot_track: str = ""
    text: str = ""

    def __post_init__(self):
        _check_length(self.bot_tag2, 0xFFFF, "bot_tag2")
        _check_length(self.bot_origin, 0xFFFF, "bot_origin")
        _check_length(self.bot_track, 0xFFFF, "bot_track")
        _check_length(self.text, 0xFFFFFFFF, "text")
        _PacketHeader.__post_init__(self)


Packet = PacketMeta | BotPacket


# each packet's layout, split at its variable-length fields; the header
# run is named by the _PacketHeader fields, in order
_MAGIC = _Run(("packet magic", "B"))
_HEADER_FIELDS = tuple(zip((f.name for f in fields(_PacketHeader)),
                           "qqBqqq?BBqq"))
_HEADER = _Run(*_HEADER_FIELDS)
# each integer header field with the range its code packs, checked when a
# packet is built
_INT_RANGES = {"B": ("u8", 0, 0xFF), "q": ("i64", -(1 << 63), (1 << 63) - 1)}
_HEADER_INTS = tuple((name, *_INT_RANGES[code])
                     for name, code in _HEADER_FIELDS if code in _INT_RANGES)
_CHUNK_COUNT = _Run(("chunk count", "B"))
_CHUNK = _Run(("chunk length", "I"))
_BOT_TAG2 = _Run(("bot_tag2 length", "H"))
_BOT_ORIGIN = _Run(("bot_origin length", "H"))
_BOT_CHECK = _Run(("bot_check", "?"))
_BOT_TRACK = _Run(("bot_track length", "H"))
_BOT_TEXT = _Run(("text length", "I"))


def encode_packet(p: Packet) -> bytes:
    if isinstance(p, PacketMeta):
        magic = MAGIC_USER_PACKET
        body = [_CHUNK_COUNT.pack(len(p.chunks))]
        for chunk in p.chunks:
            body += (_CHUNK.pack(len(chunk)), chunk)
    elif isinstance(p, BotPacket):
        magic = MAGIC_BOT_PACKET
        origin = p.bot_origin.encode()
        track = p.bot_track.encode()
        text = p.text.encode()
        body = [_BOT_TAG2.pack(len(p.bot_tag2)), p.bot_tag2,
                _BOT_ORIGIN.pack(len(origin)), origin,
                _BOT_CHECK.pack(p.bot_check),
                _BOT_TRACK.pack(len(track)), track,
                _BOT_TEXT.pack(len(text)), text]
    else:
        raise TypeError(f"not a packet: {type(p).__name__}")
    header = _HEADER.pack(*[getattr(p, name) for name in _HEADER.names])
    return b"".join((_MAGIC.pack(magic), header, *body))


def decode_packet(data: bytes) -> Packet:
    r = _Reader(data)
    (magic,) = r.run(_MAGIC)
    if magic not in (MAGIC_USER_PACKET, MAGIC_BOT_PACKET):
        raise ParseError(f"unknown packet magic byte 0x{magic:02X}")
    header = dict(zip(_HEADER.names, r.run(_HEADER)))
    if magic == MAGIC_USER_PACKET:
        (count,) = r.run(_CHUNK_COUNT)
        p = PacketMeta(chunks=tuple(r.prefixed(_CHUNK, f"chunk[{i}]")
                                    for i in range(count)), **header)
        r.expect_end("user packet")
        return p
    p = BotPacket(
        bot_tag2=r.prefixed(_BOT_TAG2, "bot_tag2"),
        bot_origin=_utf8(r.prefixed(_BOT_ORIGIN, "bot_origin"), "bot_origin"),
        bot_check=r.run(_BOT_CHECK)[0],
        bot_track=_utf8(r.prefixed(_BOT_TRACK, "bot_track"), "bot_track"),
        text=_utf8(r.prefixed(_BOT_TEXT, "text"), "text"),
        **header,
    )
    r.expect_end("bot packet")
    return p


def parse_chunks(chunks) -> tuple[bytes, bytes, bytes, int, int]:
    """Positional chunk decomposition: salt, ciphertext, nonce seed, key ids."""
    if len(chunks) != 5:
        raise ChunkCountError(f"expected 5 chunks, got {len(chunks)}")
    salt, ciphertext, nonce_material, kid_a_raw, kid_b_raw = chunks
    if len(salt) != 16:
        raise ParseError(f"salt chunk must be 16 bytes, got {len(salt)}")
    if len(ciphertext) < 16:
        raise ParseError("ciphertext chunk shorter than the 16-byte tag")
    if len(nonce_material) != 8:
        raise ParseError(
            f"nonce_material chunk must be 8 bytes, got {len(nonce_material)}")
    if len(kid_a_raw) != 4 or len(kid_b_raw) != 4:
        raise ParseError("kid chunks must be 4 bytes each")
    return (bytes(salt), bytes(ciphertext), bytes(nonce_material),
            int.from_bytes(kid_a_raw, "big"), int.from_bytes(kid_b_raw, "big"))


def classify_packet(p: Packet) -> PacketClass:
    """Partition a decoded packet by content: chunked vs plaintext bot body."""
    if isinstance(p, PacketMeta) and p.chunks:
        return PacketClass.UserE2EE
    if isinstance(p, BotPacket) and p.text:
        return PacketClass.BotPlaintext
    raise Ambiguous("packet carries neither chunks nor a bot text body")
