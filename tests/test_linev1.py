import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from letterseal import crypto_suite as cs
from letterseal.errors import MacFailure, PaddingError
from letterseal.linev1 import v1_decrypt, v1_derive, v1_encrypt
from letterseal.wire import decode_envelope, encode_envelope

REF = helpers.load_reference()


@settings(max_examples=60)
@given(m=st.binary(max_size=300), ctype=st.integers(0, 255))
def test_roundtrip(m, ctype):
    sa, sb, a_rng, _ = helpers.v1_pair(101)
    env = v1_encrypt(sa, ctype, m, a_rng)
    assert env.kid_sender == 11 and env.kid_receiver == 12
    assert v1_decrypt(sb, env) == m


def test_sessions_share_pms():
    sa, sb, _, _ = helpers.v1_pair(102)
    assert sa.pms == sb.pms


def test_derive_shapes_and_composition():
    pms = cs.SharedSecret(bytes(range(32)))
    salt = b"\x01" * 8
    k_e, iv = v1_derive(pms, salt)
    assert len(k_e) == 32 and len(iv) == 16
    assert type(k_e) is cs.SymmetricKey and type(iv) is bytes
    assert k_e == cs.digest_kdf(pms, salt, b"Key")
    full = cs.digest_kdf(pms, salt, b"IV")
    assert iv == bytes(x ^ y for x, y in zip(full[:16], full[16:]))


def test_derive_salt_length_checked():
    with pytest.raises(ValueError):
        v1_derive(cs.SharedSecret(bytes(32)), b"\x00" * 16)


def test_mac_binds_ciphertext():
    # the readable tag definition lives in the reference oracle
    sa, _, a_rng, _ = helpers.v1_pair(109)
    env = v1_encrypt(sa, 0, b"tagged", a_rng)
    k_e, _ = v1_derive(sa.pms, env.salt)
    assert REF.v1_tag(k_e, env.ciphertext) == env.tag
    flipped = bytes([env.ciphertext[0] ^ 1]) + env.ciphertext[1:]
    assert REF.v1_tag(k_e, flipped) != env.tag


def test_tampered_ciphertext_fails_before_decryption():
    sa, sb, a_rng, _ = helpers.v1_pair(103)
    env = v1_encrypt(sa, 0, b"attested payload", a_rng)
    ct = bytearray(env.ciphertext)
    ct[-1] ^= 0x80  # would surface as PaddingError if CBC ran first
    with pytest.raises(MacFailure):
        v1_decrypt(sb, dataclasses.replace(env, ciphertext=bytes(ct)))


def test_ciphertext_off_the_block_size_fails_after_a_valid_tag():
    # the envelope constructor refuses these lengths, so they are set on a
    # sealed envelope; the tag verifies and the length check must refuse
    sa, sb, a_rng, _ = helpers.v1_pair(116)
    env = v1_encrypt(sa, 0, b"sixteen byte msg", a_rng)
    k_e, _ = v1_derive(sa.pms, env.salt)
    for size in (0, 15, 17):
        env.ciphertext = bytes(size)
        env.tag = REF.v1_tag(k_e, env.ciphertext)
        with pytest.raises(PaddingError, match="positive block multiple"):
            v1_decrypt(sb, env)


def test_tampered_tag_fails():
    sa, sb, a_rng, _ = helpers.v1_pair(104)
    env = v1_encrypt(sa, 0, b"payload", a_rng)
    tag = bytearray(env.tag)
    tag[0] ^= 1
    with pytest.raises(MacFailure):
        v1_decrypt(sb, dataclasses.replace(env, tag=bytes(tag)))


def test_every_single_bit_tag_flip_fails():
    sa, sb, a_rng, _ = helpers.v1_pair(114)
    env = v1_encrypt(sa, 0, b"payload of two blocks, at least", a_rng)
    for bit in range(128):
        tag = bytearray(env.tag)
        tag[bit // 8] ^= 0x80 >> bit % 8
        with pytest.raises(MacFailure):
            v1_decrypt(sb, dataclasses.replace(env, tag=bytes(tag)))


def test_tag_of_another_message_fails():
    sa, sb, a_rng, _ = helpers.v1_pair(115)
    env = v1_encrypt(sa, 0, b"first", a_rng)
    other = v1_encrypt(sa, 0, b"second", a_rng)
    with pytest.raises(MacFailure):
        v1_decrypt(sb, dataclasses.replace(env, tag=other.tag))
    # the other message's ciphertext and tag under this message's salt
    with pytest.raises(MacFailure):
        v1_decrypt(sb, dataclasses.replace(
            env, ciphertext=other.ciphertext, tag=other.tag))


def test_seal_and_open_build_one_cipher_each(monkeypatch):
    sa, sb, a_rng, _ = helpers.v1_pair(116)
    builds = helpers.count_ciphers(monkeypatch)
    env = v1_encrypt(sa, 0, b"x" * 40, a_rng)
    assert len(builds) == 1
    assert v1_decrypt(sb, env) == b"x" * 40
    assert len(builds) == 2
    # the tag goes in before any ciphertext block
    assert builds[1] == [env.tag, env.ciphertext]


def test_bad_tag_stops_before_any_ciphertext_goes_in(monkeypatch):
    sa, sb, a_rng, _ = helpers.v1_pair(117)
    env = v1_encrypt(sa, 0, b"x" * 40, a_rng)
    builds = helpers.count_ciphers(monkeypatch)
    with pytest.raises(MacFailure):
        v1_decrypt(sb, dataclasses.replace(env, tag=bytes(16)))
    assert builds == [[bytes(16)]]


def test_wrong_session_fails():
    sa, _, a_rng, _ = helpers.v1_pair(105)
    other_sb = helpers.v1_pair(106)[1]
    env = v1_encrypt(sa, 0, b"payload", a_rng)
    with pytest.raises(MacFailure):
        v1_decrypt(other_sb, env)


def test_fresh_salt_per_message():
    sa, sb, a_rng, _ = helpers.v1_pair(107)
    envs = [v1_encrypt(sa, 0, b"same plaintext", a_rng) for _ in range(4)]
    assert len({e.salt for e in envs}) == 4
    assert len({e.ciphertext for e in envs}) == 4
    for e in envs:
        assert v1_decrypt(sb, e) == b"same plaintext"


def test_empty_plaintext_pads_to_one_block():
    sa, sb, a_rng, _ = helpers.v1_pair(108)
    env = v1_encrypt(sa, 0, b"", a_rng)
    assert len(env.ciphertext) == 16
    assert v1_decrypt(sb, env) == b""


@pytest.mark.parametrize("seed", [110, 111, 112])
def test_envelope_matches_reference_oracle(seed):
    sa, sb, a_rng, _ = helpers.v1_pair(seed)
    for n in (0, 1, 15, 16, 17, 31, 32, 33, 100, 255):
        m = bytes((seed + i) % 256 for i in range(n))
        env = v1_encrypt(sa, n % 256, m, a_rng)
        expected = REF.v1_seal(sa.pms, env.salt, n % 256, m, 11, 12)
        assert encode_envelope(env) == expected, n
        assert v1_decrypt(sb, decode_envelope(expected)) == m


def test_reference_oracle_reproduces_golden_v1_lines():
    # keys, salts and envelopes all from the oracle; only the script and
    # the payload text come from the golden builder
    root = REF.SeededStream(helpers.GOLDEN_SEED)
    a_rng, b_rng = root.fork(b"alice"), root.fork(b"bob")
    a_sk, b_sk = a_rng.token(32), b_rng.token(32)
    pms = REF.x25519(a_sk, REF.x25519_public(b_sk))
    golden = helpers.parse_golden_file()
    script = helpers.GOLDEN_SCRIPTS["v1"]
    for name, ctype, sender in script:
        assert sender == "a"
        sealed = REF.v1_seal(pms, a_rng.token(8), ctype,
                             helpers.golden_payload(name), 11, 12)
        assert sealed == golden[name], name
    assert len(script) == sum(name.startswith("v1-") for name in golden)


@pytest.mark.parametrize("blocks", [
    b"\x11" * 16 + b"payload!" + b"\x00" * 8,  # pad byte 0
    b"payload!" + b"\x11" * 24,               # a run of 17 > block size
    b"payload!payl" + b"\x01\x02\x03\x04",     # pad bytes disagree
    b"payload!" + b"\x07" * 7 + b"\x08",       # one pad byte short
    b"\x0f" + b"\x10" * 15,                   # full-block pad, first byte off
], ids=["zero", "over-block", "inconsistent", "short-run", "full-block"])
def test_valid_tag_over_bad_padding_raises_padding_error(blocks):
    sa, sb, _, _ = helpers.v1_pair(113)
    raw = REF.v1_seal_blocks(sa.pms, b"\x42" * 8, 0, blocks, 11, 12)
    with pytest.raises(PaddingError):
        v1_decrypt(sb, decode_envelope(raw))
