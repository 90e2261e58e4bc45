import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from letterseal.errors import Ambiguous, ChunkCountError, ParseError
from letterseal.wire import (
    BotPacket,
    EnvelopeV1,
    EnvelopeV2,
    EnvelopeVDR,
    PacketClass,
    PacketMeta,
    classify_packet,
    decode_envelope,
    decode_packet,
    encode_envelope,
    encode_packet,
    parse_chunks,
)

u8 = st.integers(0, 0xFF)
u32 = st.integers(0, 0xFFFFFFFF)
i64 = st.integers(-(2**63), 2**63 - 1)
ident = st.text(max_size=24)

v1_envelopes = st.builds(
    EnvelopeV1,
    ctype=u8,
    salt=st.binary(min_size=8, max_size=8),
    ciphertext=st.integers(1, 4).flatmap(
        lambda k: st.binary(min_size=16 * k, max_size=16 * k)),
    tag=st.binary(min_size=16, max_size=16),
    kid_sender=u32,
    kid_receiver=u32,
)

v2_envelopes = st.builds(
    EnvelopeV2,
    ctype=u8,
    salt=st.binary(min_size=16, max_size=16),
    ciphertext=st.binary(min_size=16, max_size=96),
    nonce_material=st.binary(min_size=8, max_size=8),
    kid_sender=u32,
    kid_receiver=u32,
    sid=ident,
    rid=ident,
)

vdr_envelopes = st.builds(
    EnvelopeVDR,
    ctype=u8,
    ciphertext=st.binary(min_size=16, max_size=96),
    nonce_material=st.binary(min_size=8, max_size=8),
    kid_sender=u32,
    kid_receiver=u32,
    eph_pub=st.binary(min_size=32, max_size=32),
    j_index=u32,
)

any_envelope = st.one_of(v1_envelopes, v2_envelopes, vdr_envelopes)


@settings(max_examples=150)
@given(env=any_envelope)
def test_envelope_codec_is_inverse(env):
    assert decode_envelope(encode_envelope(env)) == env


def test_envelope_properties():
    env = next(iter(helpers.parse_golden_file().items()))
    v2 = decode_envelope(helpers.parse_golden_file()["v2-1"])
    assert v2.counter == 1
    assert v2.counter == int.from_bytes(v2.nonce_material[:4], "big")
    vdr = decode_envelope(helpers.parse_golden_file()["vdr-2-0"])
    assert vdr.i_index == 2 and vdr.j_index == 0
    assert env  # golden file nonempty


def test_golden_envelopes_frozen():
    assert helpers.golden_text() == helpers.GOLDEN_FILE.read_text()


def test_golden_envelopes_decode_to_expected_families():
    blobs = helpers.parse_golden_file()
    assert len(blobs) == 11
    for name, raw in blobs.items():
        env = decode_envelope(raw)
        family = {"v1": EnvelopeV1, "v2": EnvelopeV2,
                  "vdr": EnvelopeVDR}[name.split("-")[0]]
        assert isinstance(env, family)
        assert encode_envelope(env) == raw


def _refusal(kwargs):
    # vers is a class constant, not a field: passing it is a call error
    return TypeError if "vers" in kwargs else ValueError


@pytest.mark.parametrize("kwargs,msg", [
    (dict(salt=b"\x00" * 7), "salt"),
    (dict(tag=b"\x00" * 15), "tag"),
    (dict(ciphertext=b""), "ciphertext"),
    (dict(ciphertext=b"\x00" * 17), "ciphertext"),
    (dict(ctype=256), "ctype"),
    (dict(kid_sender=-1), "kid_sender"),
    (dict(kid_receiver=1 << 32), "kid_receiver"),
    (dict(vers=2), "vers"),
])
def test_envelope_v1_validation(kwargs, msg):
    base = dict(ctype=0, salt=b"\x00" * 8, ciphertext=b"\x00" * 16,
                tag=b"\x00" * 16, kid_sender=1, kid_receiver=2)
    base.update(kwargs)
    with pytest.raises(_refusal(kwargs), match=msg):
        EnvelopeV1(**base)


@pytest.mark.parametrize("kwargs,msg", [
    (dict(salt=b"\x00" * 8), "salt"),
    (dict(nonce_material=b"\x00" * 12), "nonce_material"),
    (dict(ciphertext=b"\x00" * 15), "ciphertext"),
    (dict(vers=1), "vers"),
    (dict(sid="x" * 0x10000), "identity"),
    # a lone surrogate is a str with no UTF-8 form
    (dict(sid="\ud800"), "^identity string sid does not encode"),
    (dict(rid="ok \u00e9 \udfff"), "^identity string rid does not encode"),
])
def test_envelope_v2_validation(kwargs, msg):
    base = dict(ctype=0, salt=b"\x00" * 16, ciphertext=b"\x00" * 16,
                nonce_material=b"\x00" * 8, kid_sender=1, kid_receiver=2,
                sid="a", rid="b")
    base.update(kwargs)
    with pytest.raises(_refusal(kwargs), match=msg):
        EnvelopeV2(**base)


@pytest.mark.parametrize("kwargs,msg", [
    (dict(eph_pub=b"\x00" * 31), "eph_pub"),
    (dict(nonce_material=b"\x00" * 7), "nonce_material"),
    (dict(ciphertext=b"\x00" * 15), "ciphertext"),
    (dict(j_index=-1), "j_index"),
    (dict(vers=2), "vers"),
])
def test_envelope_vdr_validation(kwargs, msg):
    base = dict(ctype=0, ciphertext=b"\x00" * 16, nonce_material=b"\x00" * 8,
                kid_sender=1, kid_receiver=2, eph_pub=b"\x00" * 32, j_index=0)
    base.update(kwargs)
    with pytest.raises(_refusal(kwargs), match=msg):
        EnvelopeVDR(**base)


# per family: a fixed field and a cut inside it
FAMILY_SAMPLES = {"v1-0": ("salt", 5), "v2-0": ("salt", 5),
                  "vdr-0-0": ("eph_pub", 20)}


def _ciphertext_length_offset(raw: bytes) -> int:
    env = decode_envelope(raw)
    after = len(env.ciphertext) + (16 if isinstance(env, EnvelopeV1) else 0)
    return len(raw) - after - 4


@pytest.mark.parametrize("name", FAMILY_SAMPLES)
def test_decode_envelope_rejects_malformed(name):
    raw = helpers.parse_golden_file()[name]
    with pytest.raises(ParseError):
        decode_envelope(raw[:-1])
    with pytest.raises(ParseError, match="trailing"):
        decode_envelope(raw + b"\x00")
    with pytest.raises(ParseError, match="vers"):
        decode_envelope(b"")
    with pytest.raises(ParseError, match="unknown version"):
        decode_envelope(b"\x09" + raw[1:])
    off = _ciphertext_length_offset(raw)
    for length in (len(raw) - off - 4 + 1, 0xFFFFFFFF):
        bad = raw[:off] + length.to_bytes(4, "big") + raw[off + 4:]
        with pytest.raises(ParseError, match="reading ciphertext:"):
            decode_envelope(bad)


@pytest.mark.parametrize("name,length", [
    ("v1-0", 17), ("v2-0", 15), ("vdr-0-0", 15)])
def test_decode_envelope_reports_a_constructor_refusal_as_a_parse_error(
        name, length):
    # a well-framed ciphertext the envelope class refuses: not a multiple
    # of the block for v1, shorter than the tag for v2 and vdr
    raw = helpers.parse_golden_file()[name]
    off = _ciphertext_length_offset(raw)
    tail = raw[-16:] if name.startswith("v1") else b""
    bad = raw[:off] + length.to_bytes(4, "big") + bytes(length) + tail
    with pytest.raises(ParseError, match="^invariant violated while decoding: "
                                         ".*ciphertext") as info:
        decode_envelope(bad)
    assert isinstance(info.value.__cause__, ValueError)


def _spoil(raw: bytes, text: str) -> bytes:
    """raw with the UTF-8 bytes of text, found once, overwritten by 0xFF."""
    needle = text.encode()
    assert raw.count(needle) == 1
    return raw.replace(needle, b"\xff" * len(needle))


@pytest.mark.parametrize("fieldname", ["sid", "rid"])
def test_decode_envelope_rejects_invalid_utf8_identity(fieldname):
    env = EnvelopeV2(ctype=0, salt=bytes(16), ciphertext=bytes(16),
                     nonce_material=bytes(8), kid_sender=1, kid_receiver=2,
                     sid="sender-id", rid="receiver-id")
    raw = _spoil(encode_envelope(env), getattr(env, fieldname))
    with pytest.raises(ParseError, match=f"^{fieldname} is not valid UTF-8"):
        decode_envelope(raw)


@pytest.mark.parametrize("name", FAMILY_SAMPLES)
def test_decode_envelope_names_the_truncated_field(name):
    raw = helpers.parse_golden_file()[name]
    field, cut = FAMILY_SAMPLES[name]
    with pytest.raises(ParseError, match=f"reading {field}:"):
        decode_envelope(raw[:cut])
    off = _ciphertext_length_offset(raw)
    for cut in (off, off + 2):
        with pytest.raises(ParseError, match="reading ciphertext length:"):
            decode_envelope(raw[:cut])
    for cut in (off + 4, off + 4 + 5):
        with pytest.raises(ParseError, match="reading ciphertext:"):
            decode_envelope(raw[:cut])


@pytest.mark.parametrize("name", FAMILY_SAMPLES)
def test_decode_envelope_truncation_at_every_point(name):
    # any strict prefix must fail loudly, never return a partial envelope
    raw = helpers.parse_golden_file()[name]
    for cut in range(len(raw)):
        with pytest.raises(ParseError, match="truncated while reading"):
            decode_envelope(raw[:cut])


# -- packets -------------------------------------------------------------------

header_kwargs = dict(
    from_=i64, to=i64, to_type=u8, id=i64, created_time=i64,
    delivered_time=i64, has_content=st.booleans(), content_type=u8,
    e2ee_version=u8, seq=i64, session_id=i64,
)

user_packets = st.builds(
    PacketMeta,
    chunks=st.lists(st.binary(max_size=40), max_size=6).map(tuple),
    **header_kwargs,
)

bot_packets = st.builds(
    BotPacket,
    bot_tag2=st.binary(max_size=8),
    bot_origin=st.text(max_size=16),
    bot_check=st.booleans(),
    bot_track=st.text(max_size=16),
    text=st.text(max_size=64),
    **header_kwargs,
)


@settings(max_examples=100)
@given(p=st.one_of(user_packets, bot_packets))
def test_packet_codec_is_inverse(p):
    assert decode_packet(encode_packet(p)) == p


def packet_fixtures() -> list[bytes]:
    return [bytes.fromhex(ln)
            for ln in helpers.PACKET_FILE.read_text().splitlines()
            if ln.strip() and not ln.startswith("#")]


def test_packet_fixture_file_decodes():
    raws = packet_fixtures()
    assert len(raws) == 2
    user, bot = map(decode_packet, raws)
    assert classify_packet(user) is PacketClass.UserE2EE
    assert classify_packet(bot) is PacketClass.BotPlaintext
    salt, ct, nonce, kid_a, kid_b = parse_chunks(user.chunks)
    assert (len(salt), len(nonce)) == (16, 8)
    assert len(ct) >= 16
    assert (kid_a, kid_b) == (11, 12)
    assert bot.text == "plaintext bot reply"
    assert bot.bot_origin == "assistant"


def test_packet_fixtures_reencode_byte_for_byte():
    for raw in packet_fixtures():
        assert encode_packet(decode_packet(raw)) == raw


@pytest.mark.parametrize("index", [0, 1], ids=["user", "bot"])
def test_decode_packet_truncation_at_every_prefix(index):
    raw = packet_fixtures()[index]
    for n in range(len(raw)):
        with pytest.raises(ParseError, match="^truncated while reading"):
            decode_packet(raw[:n])


def test_decode_packet_rejects_malformed():
    good = encode_packet(PacketMeta(
        from_=1, to=2, to_type=0, id=3, created_time=4, delivered_time=5,
        has_content=True, content_type=0, e2ee_version=2, seq=6,
        session_id=7, chunks=(b"abc",)))
    with pytest.raises(ParseError):
        decode_packet(good[:-1])
    with pytest.raises(ParseError):
        decode_packet(good + b"\x00")
    with pytest.raises(ParseError):
        decode_packet(b"\x77" + good[1:])
    with pytest.raises(ParseError):
        decode_packet(b"")


@pytest.mark.parametrize("fieldname", ["bot_origin", "bot_track", "text"])
def test_decode_packet_rejects_invalid_utf8_string(fieldname):
    p = BotPacket(from_=1, to=2, to_type=0, id=3, created_time=4,
                  delivered_time=5, has_content=True, content_type=0,
                  e2ee_version=0, seq=6, session_id=7, bot_tag2=b"tag",
                  bot_origin="origin-name", bot_track="track-name",
                  text="reply text")
    raw = _spoil(encode_packet(p), getattr(p, fieldname))
    with pytest.raises(ParseError, match=f"^{fieldname} is not valid UTF-8"):
        decode_packet(raw)


def test_parse_chunks_validation():
    ok = (b"s" * 16, b"c" * 16, b"n" * 8, b"\x00\x00\x00\x0b",
          b"\x00\x00\x00\x0c")
    assert parse_chunks(ok)[3:] == (11, 12)
    with pytest.raises(ChunkCountError):
        parse_chunks(ok[:4])
    with pytest.raises(ChunkCountError):
        parse_chunks(ok + (b"extra",))
    for idx, bad in [(0, b"s" * 15), (1, b"c" * 15), (2, b"n" * 7),
                     (3, b"\x00" * 3), (4, b"\x00" * 5)]:
        mutated = list(ok)
        mutated[idx] = bad
        with pytest.raises(ParseError):
            parse_chunks(tuple(mutated))


def test_classify_requires_exactly_one_body():
    meta = dict(from_=1, to=2, to_type=0, id=3, created_time=4,
                delivered_time=5, has_content=False, content_type=0,
                e2ee_version=0, seq=6, session_id=7)
    with pytest.raises(Ambiguous):
        classify_packet(PacketMeta(chunks=(), **meta))
    with pytest.raises(Ambiguous):
        classify_packet(BotPacket(text="", **meta))
    assert classify_packet(
        PacketMeta(chunks=(b"x",), **meta)) is PacketClass.UserE2EE
    assert classify_packet(
        BotPacket(text="hi", **meta)) is PacketClass.BotPlaintext


@pytest.mark.parametrize("encode,message", [
    (encode_envelope, "not an envelope: bytes"),
    (encode_packet, "not a packet: bytes"),
])
def test_encoding_a_foreign_object_is_refused(encode, message):
    with pytest.raises(TypeError, match=message):
        encode(b"raw bytes")


def test_chunk_count_capped():
    meta = dict(from_=1, to=2, to_type=0, id=3, created_time=4,
                delivered_time=5, has_content=True, content_type=0,
                e2ee_version=2, seq=6, session_id=7)
    PacketMeta(chunks=(b"",) * 255, **meta)
    with pytest.raises(ValueError, match="chunk count"):
        PacketMeta(chunks=(b"",) * 256, **meta)


PACKET_META = dict(from_=1, to=2, to_type=0, id=3, created_time=4,
                   delivered_time=5, has_content=True, content_type=0,
                   e2ee_version=2, seq=6, session_id=7)
I64_FIELDS = ("from_", "to", "id", "created_time", "delivered_time", "seq",
              "session_id")
U8_FIELDS = ("to_type", "content_type", "e2ee_version")
U32 = 0xFFFFFFFF


def _both_packets(**kwargs):
    meta = {**PACKET_META, **kwargs}
    return PacketMeta(chunks=(b"x",), **meta), BotPacket(text="x", **meta)


@pytest.mark.parametrize("name,lo,hi", [
    *((name, -(1 << 63), (1 << 63) - 1) for name in I64_FIELDS),
    *((name, 0, 0xFF) for name in U8_FIELDS),
])
def test_packet_header_fields_checked_at_their_limits(name, lo, hi):
    for value in (lo, hi):
        for p in _both_packets(**{name: value}):
            assert decode_packet(encode_packet(p)) == p
    for value in (lo - 1, hi + 1):
        with pytest.raises(ValueError, match=f"^{name} out of"):
            PacketMeta(chunks=(), **{**PACKET_META, name: value})
        with pytest.raises(ValueError, match=f"^{name} out of"):
            BotPacket(**{**PACKET_META, name: value})


# a string fits by its UTF-8 size: 0x8000 two-byte characters are one past
STR_FITS = ("a" * 0xFFFF, "\u00e9" * 0x7FFF + "a")
STR_OVER = ("a" * 0x10000, "\u00e9" * 0x8000)


@pytest.mark.parametrize("name,fits,over", [
    ("bot_tag2", (b"\xff" * 0xFFFF,), (b"\xff" * 0x10000,)),
    ("bot_origin", STR_FITS, STR_OVER),
    ("bot_track", STR_FITS, STR_OVER),
], ids=["bot_tag2", "bot_origin", "bot_track"])
def test_bot_u16_fields_checked_at_their_limits(name, fits, over):
    for value in fits:
        p = BotPacket(**{name: value}, **PACKET_META)
        assert decode_packet(encode_packet(p)) == p
    for value in over:
        with pytest.raises(ValueError, match=f"^{name} is 65536 bytes"):
            BotPacket(**{name: value}, **PACKET_META)


@pytest.mark.parametrize("name", ["bot_origin", "bot_track", "text"])
def test_bot_string_that_cannot_encode_is_refused(name):
    for value in ("\ud800", "ok \u00e9 \udfff"):
        with pytest.raises(ValueError, match=f"^{name} does not encode"):
            BotPacket(**{name: value}, **PACKET_META)


class _Sized:
    """Claims a length without holding the bytes, for the u32 limits."""

    def __init__(self, n):
        self.n = n

    def __len__(self):
        return self.n


class _LongText(str):
    """A str claiming a character count and a UTF-8 size."""

    def __new__(cls, chars, utf8):
        self = super().__new__(cls, "")
        self.chars, self.utf8 = chars, utf8
        return self

    def __len__(self):
        return self.chars

    def encode(self, *args):
        return _Sized(self.utf8)


def test_u32_packet_fields_checked_at_their_limits():
    PacketMeta(chunks=(b"", _Sized(U32)), **PACKET_META)
    with pytest.raises(ValueError, match=r"^chunk\[1\] is 4294967296 bytes"):
        PacketMeta(chunks=(b"", _Sized(U32 + 1)), **PACKET_META)
    BotPacket(text=_LongText(U32, U32), **PACKET_META)
    for chars in (U32 + 1, U32 // 4 + 1):
        with pytest.raises(ValueError, match="^text is 4294967296 bytes"):
            BotPacket(text=_LongText(chars, U32 + 1), **PACKET_META)


def test_mutated_envelope_reencodes_differently():
    raw = helpers.parse_golden_file()["v2-0"]
    env = decode_envelope(raw)
    other = dataclasses.replace(env, ctype=env.ctype ^ 1)
    assert encode_envelope(other) != raw
    assert decode_envelope(encode_envelope(other)) == other
