import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from letterseal.errors import ParseError
from letterseal.wire import (
    EnvelopeV1,
    EnvelopeV2,
    EnvelopeVDR,
    decode_envelope,
    encode_envelope,
)

u8 = st.integers(0, 0xFF)
u32 = st.integers(0, 0xFFFFFFFF)
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


def _range_rows(*names):
    """Each integer field at -1 and one past its maximum, with the exact
    text of its refusal, and one row with two bad fields: the first named
    is the one reported."""
    widths = {"ctype": ("u8", 0xFF)}
    rows = []
    for name in names:
        width, top = widths.get(name, ("u32", 0xFFFFFFFF))
        rows += [({name: value}, f"^{name} out of {width} range: {value}$")
                 for value in (-1, top + 1)]
    rows.append(({"ctype": -1, names[-1]: -1}, "^ctype out of u8 range"))
    return rows


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


# an identity string fits by its UTF-8 size: 0x8000 two-byte characters
# are one byte over the u16 prefix
STR_FITS = ("a" * 0xFFFF, "\u00e9" * 0x7FFF + "a")
STR_OVER = ("a" * 0x10000, "\u00e9" * 0x8000)
V2_FIELDS = dict(ctype=0, salt=b"\x00" * 16, ciphertext=b"\x00" * 16,
                 nonce_material=b"\x00" * 8, kid_sender=1, kid_receiver=2,
                 sid="a", rid="b")


@pytest.mark.parametrize("kwargs,msg", [
    (dict(salt=b"\x00" * 8), "salt"),
    (dict(nonce_material=b"\x00" * 12), "nonce_material"),
    (dict(ciphertext=b"\x00" * 15), "ciphertext"),
    (dict(vers=1), "vers"),
    (dict(sid="x" * 0x10000), "identity"),
    # a lone surrogate is a str with no UTF-8 form
    (dict(sid="\ud800"), "^identity string sid does not encode"),
    (dict(rid="ok \u00e9 \udfff"), "^identity string rid does not encode"),
    *((dict(**{name: value}), f"^identity string {name} is 65536 bytes")
      for name in ("sid", "rid") for value in STR_OVER),
    *_range_rows("ctype", "kid_sender", "kid_receiver"),
])
def test_envelope_v2_validation(kwargs, msg):
    with pytest.raises(_refusal(kwargs), match=msg):
        EnvelopeV2(**{**V2_FIELDS, **kwargs})


@pytest.mark.parametrize("name", ["sid", "rid"])
def test_identity_string_that_fits_round_trips(name):
    for value in STR_FITS:
        env = EnvelopeV2(**{**V2_FIELDS, name: value})
        assert decode_envelope(encode_envelope(env)) == env


@pytest.mark.parametrize("kwargs,msg", [
    (dict(eph_pub=b"\x00" * 31), "eph_pub"),
    (dict(nonce_material=b"\x00" * 7), "nonce_material"),
    (dict(ciphertext=b"\x00" * 15), "ciphertext"),
    (dict(j_index=-1), "j_index"),
    (dict(vers=2), "vers"),
    *_range_rows("ctype", "kid_sender", "kid_receiver", "j_index"),
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


@pytest.mark.parametrize("encode,message", [
    (encode_envelope, "not an envelope: bytes"),
])
def test_encoding_a_foreign_object_is_refused(encode, message):
    with pytest.raises(TypeError, match=message):
        encode(b"raw bytes")


def test_mutated_envelope_reencodes_differently():
    raw = helpers.parse_golden_file()["v2-0"]
    env = decode_envelope(raw)
    other = dataclasses.replace(env, ctype=env.ctype ^ 1)
    assert encode_envelope(other) != raw
    assert decode_envelope(encode_envelope(other)) == other
