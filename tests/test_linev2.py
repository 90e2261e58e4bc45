import dataclasses
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from letterseal import crypto_suite as cs
from letterseal.errors import AuthFailure, CounterExhausted, KidMismatch
from letterseal.linev2 import (
    build_ad_v2,
    v2_build_nonce,
    v2_decrypt,
    v2_derive_key,
    v2_encrypt,
)

REF = helpers.load_reference()


@settings(max_examples=60)
@given(m=st.binary(max_size=300), ctype=st.integers(0, 255))
def test_roundtrip(m, ctype):
    sa, sb, a_rng, _ = helpers.v2_pair(201)
    env = v2_encrypt(sa, ctype, m, a_rng)
    assert v2_decrypt(sb, env) == m


def test_counter_progression_and_nonce_layout():
    sa, sb, a_rng, _ = helpers.v2_pair(202)
    for expected_ctr in range(5):
        env = v2_encrypt(sa, 0, b"m", a_rng)
        assert env.counter == expected_ctr
        assert env.nonce_material[:4] == struct.pack(">I", expected_ctr)
        assert len(env.nonce_material) == 8
        assert v2_decrypt(sb, env) == b"m"
    assert sa.ctr == 5
    assert sb.ctr == 0  # decryption is stateless, nothing advances


def test_build_nonce_zero_pads_to_96_bits():
    nonce, material = v2_build_nonce(7, b"\xde\xad\xbe\xef")
    assert material == b"\x00\x00\x00\x07\xde\xad\xbe\xef"
    assert bytes(nonce) == material + b"\x00" * 4
    assert type(nonce) is cs.AeadNonce and len(nonce) == 12
    with pytest.raises(ValueError):
        v2_build_nonce(7, b"\x00" * 3)


def test_derive_key_matches_digest_kdf():
    pms = cs.SharedSecret(bytes(range(32)))
    salt = b"\x5a" * 16
    k_e = v2_derive_key(pms, salt)
    assert k_e == cs.digest_kdf(pms, salt, b"Key")
    assert type(k_e) is cs.SymmetricKey and len(k_e) == 32
    with pytest.raises(ValueError):
        v2_derive_key(pms, b"\x5a" * 8)


def test_replay_is_accepted_statelessly():
    # deliberately no replay defense: the identical envelope opens forever
    sa, sb, a_rng, _ = helpers.v2_pair(203)
    env = v2_encrypt(sa, 0, b"replayable", a_rng)
    for _ in range(3):
        assert v2_decrypt(sb, env) == b"replayable"


def test_ad_binds_every_header_field():
    sa, sb, a_rng, _ = helpers.v2_pair(204)
    env = v2_encrypt(sa, 1, b"bound", a_rng)
    assert v2_decrypt(sb, env) == b"bound"
    for change in (dict(ctype=2), dict(sid="mallory"), dict(rid="mallory"),
                   dict(kid_sender=99)):
        with pytest.raises(AuthFailure):
            v2_decrypt(sb, dataclasses.replace(env, **change))
    # receiver kid is checked before any crypto
    with pytest.raises(KidMismatch):
        v2_decrypt(sb, dataclasses.replace(env, kid_receiver=99))


def test_tampered_payload_fields_fail():
    sa, sb, a_rng, _ = helpers.v2_pair(205)
    env = v2_encrypt(sa, 0, b"payload", a_rng)
    ct = bytearray(env.ciphertext)
    ct[0] ^= 1
    with pytest.raises(AuthFailure):
        v2_decrypt(sb, dataclasses.replace(env, ciphertext=bytes(ct)))
    salt = bytearray(env.salt)
    salt[0] ^= 1  # wrong salt means wrong key, caught by the tag
    with pytest.raises(AuthFailure):
        v2_decrypt(sb, dataclasses.replace(env, salt=bytes(salt)))
    with pytest.raises(AuthFailure):
        v2_decrypt(sb, dataclasses.replace(
            env, nonce_material=env.nonce_material[:7] + b"\xff"))


def test_ad_layout_is_pinned():
    ad = build_ad_v2("r", "snd", 3, 4, 2, 9)
    assert ad == (b"\x00\x01r" + b"\x00\x03snd"
                  + struct.pack(">IIBB", 3, 4, 2, 9))


def test_counter_exhaustion():
    sa, _, a_rng, _ = helpers.v2_pair(206)
    sa.ctr = 0xFFFFFFFF
    with pytest.raises(CounterExhausted):
        v2_encrypt(sa, 0, b"x", a_rng)


def test_decrypt_memo_stays_exact_for_forged_headers():
    # the associated-data memo must never mix entries across header values
    sa, sb, a_rng, _ = helpers.v2_pair(207)
    env = v2_encrypt(sa, 0, b"first", a_rng)
    assert v2_decrypt(sb, env) == b"first"
    forged = dataclasses.replace(env, sid="intruder")
    with pytest.raises(AuthFailure):
        v2_decrypt(sb, forged)
    # the poisoned cache entry must not break honest traffic
    env2 = v2_encrypt(sa, 0, b"second", a_rng)
    assert v2_decrypt(sb, env2) == b"second"


def test_refused_open_leaves_the_memo_as_it_was():
    sa, sb, a_rng, _ = helpers.v2_pair(1)
    honest = v2_encrypt(sa, 0, b"honest", a_rng)
    assert v2_decrypt(sb, honest) == b"honest"
    before = dict(sb.ad_cache)
    for k in range(70):
        with pytest.raises(AuthFailure):
            v2_decrypt(sb, dataclasses.replace(honest, sid=f"forged-{k}"))
    assert dict(sb.ad_cache) == before


def test_decrypt_memo_bounded():
    # a peer holding the key can vary sid; the memo clears past 64 entries
    sa, sb, a_rng, _ = helpers.v2_pair(208)
    envs = [v2_encrypt(sa, 0, b"fill %d" % k, a_rng) for k in range(3)]
    for k in range(200):
        sprayer = dataclasses.replace(sa, sid=f"spray-{k}", ad_cache={})
        assert v2_decrypt(sb, v2_encrypt(sprayer, 0, b"s", a_rng)) == b"s"
        assert len(sb.ad_cache) <= 65
    for k, env in enumerate(envs):
        assert v2_decrypt(sb, env) == b"fill %d" % k


def test_encrypt_ad_cache_keyed_by_ctype():
    sa, sb, a_rng, _ = helpers.v2_pair(209)
    for ctype in (0, 1, 0, 1):
        env = v2_encrypt(sa, ctype, b"ct %d" % ctype, a_rng)
        assert env.ctype == ctype
        assert v2_decrypt(sb, env) == b"ct %d" % ctype


def test_reverse_direction_roundtrip():
    sa, sb, _, b_rng = helpers.v2_pair(210)
    env = v2_encrypt(sb, 0, b"from the other side", b_rng)
    assert env.kid_sender == 12 and env.kid_receiver == 11
    assert v2_decrypt(sa, env) == b"from the other side"


def test_reference_oracle_reproduces_golden_v2_lines():
    # keys, salts, nonces and envelopes all from the oracle; only the
    # script and the payload text come from the golden builder
    root = REF.SeededStream(helpers.GOLDEN_SEED)
    a_rng, b_rng = root.fork(b"alice"), root.fork(b"bob")
    a_sk, b_sk = a_rng.token(32), b_rng.token(32)
    pms = REF.x25519(a_sk, REF.x25519_public(b_sk))
    golden = helpers.parse_golden_file()
    script = helpers.GOLDEN_SCRIPTS["v2"]
    for ctr, (name, ctype, sender) in enumerate(script):
        assert sender == "a"
        draw = a_rng.token(20)  # the salt and the nonce's random half
        sealed = REF.v2_seal(pms, draw[:16], ctr, draw[16:], ctype,
                             helpers.golden_payload(name), 11, 12,
                             "alice", "bob")
        assert sealed == golden[name], name
    assert len(script) == sum(name.startswith("v2-") for name in golden)
